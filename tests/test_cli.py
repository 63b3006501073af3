"""The command-line front door: exit codes, OUTCOME lines, file formats."""

import pytest

from dnascreen.cli import main
from dnascreen.scenarios import CLEAN_SEQUENCES, DEFAULT_HAZARDS

HAZARD = DEFAULT_HAZARDS[0][0]
CLEAN = CLEAN_SEQUENCES[0]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pki_workshop_roundtrip(tmp_path, capsys):
    root = tmp_path / "root"
    inter = tmp_path / "inter"
    leaf = tmp_path / "leaf"
    tok = tmp_path / "tok"
    assert run_cli(capsys, "pki", "create-root", "--type", "manufacturer",
                   "--name", "F", "--out", str(root))[0] == 0
    assert run_cli(capsys, "pki", "issue-cert", "--issuer", str(root),
                   "--level", "intermediate", "--name", "MI",
                   "--out", str(inter))[0] == 0
    assert run_cli(capsys, "pki", "issue-cert", "--issuer", str(inter),
                   "--level", "leaf", "--name", "ML", "--out",
                   str(leaf))[0] == 0
    code, out, _ = run_cli(capsys, "pki", "issue-token", "--issuer", str(leaf),
                           "--type", "synthesizer", "--name", "S1",
                           "--rate-limit", "18446744073709551615",
                           "--out", str(tok))
    assert code == 0 and "sigma" in out
    code, out, _ = run_cli(capsys, "pki", "validate-chain", "--chain",
                           str(tok), "--root", str(root))
    assert code == 0 and "OUTCOME: OK" in out
    assert "rate_limit: 18446744073709551615" in \
        (tmp_path / "tok.cert.txt").read_text()


def test_pki_validate_byte_flip(tmp_path, capsys):
    root = tmp_path / "root"
    run_cli(capsys, "pki", "create-root", "--type", "infrastructure",
            "--name", "F", "--out", str(root))
    blob = bytearray((tmp_path / "root.cert").read_bytes())
    blob[40] ^= 1
    broken = tmp_path / "broken.cert"
    broken.write_bytes(bytes(blob))
    code, out, err = run_cli(capsys, "pki", "validate-chain", "--chain",
                             str(broken), "--root", str(root))
    assert code == 1
    assert "BadSignature" in err or "UntrustedRoot" in err \
        or "DecodeError" in err


def test_pki_level_violation_maps_to_exit_code(tmp_path, capsys):
    root = tmp_path / "root"
    run_cli(capsys, "pki", "create-root", "--type", "manufacturer",
            "--name", "F", "--out", str(root))
    code, _, err = run_cli(capsys, "pki", "issue-cert", "--issuer", str(root),
                           "--level", "leaf", "--name", "X",
                           "--out", str(tmp_path / "x"))
    assert code == 1 and "LevelViolation" in err


def test_run_basic_denies_hazard(tmp_path, capsys):
    order = tmp_path / "order.txt"
    order.write_text(f"{HAZARD.hex()}\n{CLEAN.hex()}\n")
    out_file = tmp_path / "transcript.log"
    code, out, _ = run_cli(capsys, "run", "basic", "--order", str(order),
                           "--seed", "3", "--out", str(out_file))
    assert code == 0
    assert "DENY" in out and "toxin-alpha" in out
    assert out.strip().endswith("OUTCOME: DENY")
    assert out_file.exists() and out_file.read_text().startswith("step=")


def test_run_basic_transcripts_are_reproducible(tmp_path, capsys):
    order = tmp_path / "order.txt"
    order.write_text(f"{CLEAN.hex()}\n")
    t1, t2 = tmp_path / "t1.log", tmp_path / "t2.log"
    run_cli(capsys, "run", "basic", "--order", str(order), "--seed", "9",
            "--out", str(t1))
    run_cli(capsys, "run", "basic", "--order", str(order), "--seed", "9",
            "--out", str(t2))
    assert t1.read_bytes() == t2.read_bytes()


def test_run_exemption_grants(tmp_path, capsys):
    order = tmp_path / "order.txt"
    order.write_text(f"{HAZARD.hex()}\n")
    code, out, _ = run_cli(capsys, "run", "exemption", "--order", str(order),
                           "--exempt", HAZARD.hex(), "--seed", "4")
    assert code == 0
    assert out.strip().endswith("OUTCOME: GRANT")


@pytest.mark.parametrize("argv,verdict_line,outcome", [
    (("run", "basic"), f"DENY seq={HAZARD.hex()}", "OUTCOME: DENY"),
    (("run", "exemption", "--exempt", HAZARD.hex()),
     f"EXEMPT seq={HAZARD.hex()}", "OUTCOME: GRANT"),
], ids=["basic", "exemption"])
def test_run_on_prod_backend(tmp_path, capsys, argv, verdict_line, outcome):
    order = tmp_path / "order.txt"
    order.write_text(f"{HAZARD.hex()}\n{CLEAN.hex()}\n")
    code, out, _ = run_cli(capsys, *argv, "--order", str(order),
                           "--backend", "prod", "--seed", "6")
    assert code == 0
    assert verdict_line in out and f"CLEAR seq={CLEAN.hex()}" in out
    assert out.strip().endswith(outcome)


@pytest.mark.parametrize("argv,error", [
    (("run", "basic", "--rate-limit", "0"), "RateLimited"),
    (("run", "exemption", "--exempt", HAZARD.hex(), "--code", "abc"),
     "AuthBackendRejected"),
], ids=["rate-limited", "bad-code"])
def test_refused_query_prints_no_verdict_lines(tmp_path, capsys, argv, error):
    order = tmp_path / "order.txt"
    order.write_text(f"{HAZARD.hex()}\n")
    code, out, err = run_cli(capsys, *argv, "--order", str(order),
                             "--out", str(tmp_path / "t.log"))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[-1] == f"OUTCOME: ERROR:{error}"
    assert not [line for line in lines if line.split(" ")[0]
                in ("CLEAR", "DENY", "EXEMPT")]
    assert error in err


def test_run_custom_hazard_file(tmp_path, capsys):
    hazards = tmp_path / "hz.txt"
    seq = b"CCCCAAAATTTTGGGG"
    hazards.write_text(f"{seq.hex()} lab-agent restricted synthesis target\n")
    order = tmp_path / "order.txt"
    order.write_text(seq.hex() + "\n")
    code, out, _ = run_cli(capsys, "run", "basic", "--order", str(order),
                           "--hazards", str(hazards))
    assert code == 0 and "lab-agent" in out
    assert "OUTCOME: DENY" in out


INPUT_FILES = {"order": f"{CLEAN.hex()}\n",
               "bad_order": f"{CLEAN.hex()}\nnot-hex\n",
               "bad_hazards": "gg agent reason\n",
               # a database cannot relay like a keyserver
               "bad_script": f"corrupt H mitm\nquery S {CLEAN.hex()}\n",
               # replaces query 1's response before anything was captured
               "swap_script": "swap S->H:s2c:1:r1 S->H:s2c:0:r1\n"
                              + f"query S {CLEAN.hex()}\n" * 2}


@pytest.mark.parametrize("argv,error", [
    (("run", "basic", "--order", "{bad_order}"), "ScriptError"),
    (("run", "basic", "--order", "{order}", "--hazards", "{bad_hazards}"),
     "ScriptError"),
    (("run", "exemption", "--order", "{order}", "--exempt", "zz"),
     "ScriptError"),
    (("run", "basic", "--order", "{order}", "--rate-limit", "-1"),
     "ScriptError"),
    (("attack", "collision", "--rate-limit", "-1"), "ScriptError"),
    (("run", "script", "--file", "{bad_script}"), "ScriptError"),
    (("run", "script", "--file", "{swap_script}"), "ScriptError"),
    (("run", "basic", "--order", "{missing}"), "FileNotFoundError"),
    (("run", "basic", "--order", "{order}", "--hazards", "{missing}"),
     "FileNotFoundError"),
    (("run", "script", "--file", "{missing}"), "FileNotFoundError"),
], ids=["order", "hazards", "exempt", "rate-limit", "attack-rate-limit",
        "corrupt", "swap-before-capture", "missing-order", "missing-hazards",
        "missing-script"])
def test_bad_input_ends_in_an_outcome_line(tmp_path, capsys, argv, error):
    paths = {"missing": tmp_path / "missing.txt"}
    for name, text in INPUT_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 1
    assert out.strip().splitlines()[-1] == f"OUTCOME: ERROR:{error}"
    assert error in err


@pytest.mark.parametrize("argv,named", [
    (("pki", "issue-token", "--issuer", "{leaf}", "--type", "synthesizer",
      "--name", "S1", "--rate-limit", "-1"), "--rate-limit"),
    (("pki", "issue-token", "--issuer", "{leaf}", "--type", "synthesizer",
      "--name", "S1", "--rate-limit", str(2 ** 64)), "--rate-limit"),
    (("pki", "issue-token", "--issuer", "{leaf}", "--type", "keyserver",
      "--name", "K1", "--share-index", "-1"), "--share-index"),
    (("pki", "issue-token", "--issuer", "{leaf}", "--type", "keyserver",
      "--name", "K1", "--share-index", "0"), "--share-index"),
    (("pki", "issue-token", "--issuer", "{leaf}", "--type", "keyserver",
      "--name", "K1", "--share-index", str(2 ** 32)), "--share-index"),
    (("pki", "issue-subtoken", "--parent", "{leaf}", "--subtoken-key",
      "{leaf}.key", "--sequences", CLEAN.hex()), "--parent"),
    (("run", "basic", "--order", "{empty}"), "empty.txt"),
], ids=["rate-limit-negative", "rate-limit-over-u64", "share-index-negative",
        "share-index-zero", "share-index-over-u32",
        "subtoken-parent-without-token", "empty-order"])
def test_bad_input_error_names_the_flag_or_file(tmp_path, capsys, argv,
                                                named):
    paths = {"leaf": tmp_path / "leaf", "empty": tmp_path / "empty.txt"}
    paths["empty"].write_text("# no sequences\n")
    root, inter = tmp_path / "root", tmp_path / "inter"
    run_cli(capsys, "pki", "create-root", "--type", "manufacturer",
            "--name", "F", "--out", str(root))
    run_cli(capsys, "pki", "issue-cert", "--issuer", str(root), "--level",
            "intermediate", "--name", "MI", "--out", str(inter))
    run_cli(capsys, "pki", "issue-cert", "--issuer", str(inter), "--level",
            "leaf", "--name", "ML", "--out", str(paths["leaf"]))
    argv = [a.format(**paths) for a in argv]
    if argv[0] == "pki":
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out.strip().splitlines()[-1] == "OUTCOME: ERROR:ScriptError"
    assert "ScriptError" in err and named in err


def test_run_script_file(tmp_path, capsys):
    script = tmp_path / "scenario.txt"
    script.write_text(f"query S {CLEAN.hex()}\n"
                      f"advance-clock 30\n"
                      f"query S {HAZARD.hex()}\n")
    code, out, _ = run_cli(capsys, "run", "script", "--file", str(script))
    assert code == 0 and "OUTCOME: OK" in out


@pytest.mark.parametrize("args,expected", [
    (("attack", "mitm", "--scep-variant", "scep"), "OUTCOME: ATTACK_SUCCEEDED"),
    (("attack", "mitm", "--scep-variant", "scep-plus"),
     "OUTCOME: ATTACK_BLOCKED:BadClientSig"),
    (("attack", "swap", "--resumption", "on", "--bind-responses", "off"),
     "OUTCOME: VERDICT_INVERTED"),
    (("attack", "swap", "--resumption", "on", "--bind-responses", "on"),
     "OUTCOME: SWAP_DETECTED"),
    (("attack", "swap", "--resumption", "off", "--bind-responses", "off"),
     "OUTCOME: SWAP_REJECTED"),
    (("attack", "passcode"), "OUTCOME: REPLAY_ACCEPTED"),
    (("attack", "collision"), "OUTCOME: BUDGET_MERGED"),
    (("attack", "collision", "--distinct"), "OUTCOME: INDEPENDENT_BUDGETS"),
])
def test_attack_matrix_exit_zero(args, expected, capsys, tmp_path):
    code, out, _ = run_cli(capsys, *args, "--out",
                           str(tmp_path / "attack.log"))
    assert code == 0
    assert out.strip().splitlines()[-1] == expected
    assert (tmp_path / "attack.log").exists()


def test_attack_headlines(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "attack", "mitm", "--scep-variant", "scep")
    assert out.splitlines()[0] == "ATTACK SUCCEEDED"
    _, out, _ = run_cli(capsys, "attack", "mitm", "--scep-variant",
                        "scep-plus")
    assert out.splitlines()[0] == "ATTACK BLOCKED: BadClientSig"
    _, out, _ = run_cli(capsys, "attack", "swap", "--resumption", "on",
                        "--bind-responses", "off")
    assert out.splitlines()[0] == "VERDICT INVERTED"


def test_pki_subtoken_roundtrip(tmp_path, capsys):
    root, inter, leaf = tmp_path / "root", tmp_path / "inter", tmp_path / "leaf"
    elt, sub = tmp_path / "elt", tmp_path / "sub"
    run_cli(capsys, "pki", "create-root", "--type", "exemption", "--name",
            "F", "--out", str(root))
    run_cli(capsys, "pki", "issue-cert", "--issuer", str(root), "--level",
            "intermediate", "--name", "EI", "--out", str(inter))
    run_cli(capsys, "pki", "issue-cert", "--issuer", str(inter), "--level",
            "leaf", "--name", "EL", "--out", str(leaf))
    seqs = "aabbccdd,eeff0011"
    assert run_cli(capsys, "pki", "issue-token", "--issuer", str(leaf),
                   "--type", "exemption", "--name", "C1", "--device-id",
                   "dev-1", "--sequences", seqs, "--out", str(elt))[0] == 0
    assert run_cli(capsys, "pki", "issue-subtoken", "--parent", str(elt),
                   "--subtoken-key", str(tmp_path / "elt.subkey"),
                   "--sequences", "aabbccdd", "--out", str(sub))[0] == 0
    code, out, _ = run_cli(capsys, "pki", "validate-chain", "--chain",
                           str(sub), "--root", str(root))
    assert code == 0 and "OUTCOME: OK" in out
    # a sub-token may not widen the sequence list
    code, _, err = run_cli(capsys, "pki", "issue-subtoken", "--parent",
                           str(elt), "--subtoken-key",
                           str(tmp_path / "elt.subkey"), "--sequences",
                           "aabbccdd,12121212", "--out", str(tmp_path / "bad"))
    assert code == 1 and "NotASubset" in err
