"""Command-line front door: PKI workshop, scenario runs, attack drills.

Every command finishes with a machine-parsable ``OUTCOME: <token>`` line.
Attack commands exit 0 when the outcome matches the expected result for the
chosen flag combination (including expected blocks), so a harness can
assert the whole matrix. All randomness flows from --seed; nothing in a
scenario path reads the wall clock.
"""

import argparse
import sys
from pathlib import Path

from . import pki
from .crypto import SigningKey
from .errors import ScreeningError, ScriptError
from .scep import SCEP, SCEP_PLUS
from .scenarios import (
    DEFAULT_HAZARDS,
    ScenarioConfig,
    run_scenario,
)
from .screening import HIT, HIT_EXEMPT
from . import attacks
from .simnet import CLOCK_START


def _hex(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as e:
        raise ScriptError(f"bad hex {text!r}: {e}") from None


def _hex_list(spec: str) -> list:
    """Comma-separated hex values."""
    return [_hex(h) for h in spec.split(",") if h]


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected on|off")
    return value == "on"


def _add_common(p):
    p.add_argument("--seed", type=int, default=1, help="deterministic seed")
    p.add_argument("--backend", choices=["test", "prod"], default="test")
    p.add_argument("--out", type=Path, help="write the transcript here")


def _add_scenario_flags(p):
    p.add_argument("--scep-variant", choices=[SCEP, SCEP_PLUS], default=SCEP)
    p.add_argument("--resumption", type=_onoff, default=False,
                   metavar="on|off")
    p.add_argument("--bind-responses", type=_onoff, default=False,
                   metavar="on|off")
    p.add_argument("--rate-limit", type=int, default=100)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--keyservers", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnascreen",
        description="Synthesis-order screening stack and attack simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    # -- pki --------------------------------------------------------------
    p_pki = sub.add_parser("pki", help="certificate and token workshop")
    pki_sub = p_pki.add_subparsers(dest="pki_command", required=True)

    cr = pki_sub.add_parser("create-root")
    cr.add_argument("--type", required=True, choices=pki.CERT_TYPES)
    cr.add_argument("--name", required=True)
    cr.add_argument("--email", default="")
    cr.add_argument("--out", required=True, type=Path,
                    help="prefix for .cert/.key files")
    _add_common_pki(cr)

    ic = pki_sub.add_parser("issue-cert")
    ic.add_argument("--issuer", required=True, type=Path, help="prefix")
    ic.add_argument("--level", required=True,
                    choices=[pki.INTERMEDIATE, pki.LEAF])
    ic.add_argument("--name", required=True)
    ic.add_argument("--email", default="")
    ic.add_argument("--out", required=True, type=Path)
    _add_common_pki(ic)

    it = pki_sub.add_parser("issue-token")
    it.add_argument("--issuer", required=True, type=Path, help="leaf prefix")
    it.add_argument("--type", required=True, dest="token_type",
                    choices=[pki.TOKEN_SYNTHESIZER, pki.TOKEN_KEYSERVER,
                             pki.TOKEN_DATABASE, pki.TOKEN_EXEMPTION])
    it.add_argument("--name", required=True)
    it.add_argument("--email", default="")
    it.add_argument("--synth-id")
    it.add_argument("--rate-limit", type=int, default=100)
    it.add_argument("--share-index", type=int, default=1)
    it.add_argument("--sequences", default="",
                    help="comma-separated hex, exemption tokens only")
    it.add_argument("--device-id", default="")
    it.add_argument("--out", required=True, type=Path)
    _add_common_pki(it)

    ist = pki_sub.add_parser("issue-subtoken")
    ist.add_argument("--parent", required=True, type=Path,
                     help="parent chain prefix")
    ist.add_argument("--subtoken-key", required=True, type=Path)
    ist.add_argument("--sequences", required=True)
    ist.add_argument("--out", required=True, type=Path)
    _add_common_pki(ist)

    vc = pki_sub.add_parser("validate-chain")
    vc.add_argument("--chain", required=True, type=Path)
    vc.add_argument("--root", required=True, type=Path)
    vc.add_argument("--at", type=int, default=CLOCK_START)
    vc.add_argument("--revocations", type=Path)
    _add_common_pki(vc)

    rv = pki_sub.add_parser("revoke")
    rv.add_argument("--revocations", required=True, type=Path)
    rv.add_argument("--sigma", help="hex token identifier")
    rv.add_argument("--key", help="hex verify key")
    _add_common_pki(rv)

    # -- run ---------------------------------------------------------------
    p_run = sub.add_parser("run", help="execute a screening scenario")
    run_sub = p_run.add_subparsers(dest="run_command", required=True)

    rb = run_sub.add_parser("basic")
    rb.add_argument("--order", required=True, type=Path,
                    help="file with one hex sequence per line")
    rb.add_argument("--hazards", type=Path,
                    help="hazard list: hex name reason, one per line")
    _add_common(rb)
    _add_scenario_flags(rb)

    re_ = run_sub.add_parser("exemption")
    re_.add_argument("--order", required=True, type=Path)
    re_.add_argument("--hazards", type=Path)
    re_.add_argument("--exempt", required=True,
                     help="comma-separated hex sequences the token covers")
    re_.add_argument("--code", default="fresh", help="fresh|stale|<digits>")
    _add_common(re_)
    _add_scenario_flags(re_)

    rs = run_sub.add_parser("script")
    rs.add_argument("--file", required=True, type=Path,
                    help="line-oriented scenario script")
    rs.add_argument("--hazards", type=Path)
    rs.add_argument("--exempt", default="")
    _add_common(rs)
    _add_scenario_flags(rs)

    # -- attack -------------------------------------------------------------
    p_atk = sub.add_parser("attack", help="run a scripted attack scenario")
    atk_sub = p_atk.add_subparsers(dest="attack_command", required=True)
    for name in ("mitm", "swap", "passcode", "collision"):
        pa = atk_sub.add_parser(name)
        _add_common(pa)
        _add_scenario_flags(pa)
        if name == "collision":
            pa.add_argument("--distinct", action="store_true",
                            help="use an honest, non-colliding identifier")
    return parser


def _add_common_pki(p):
    p.add_argument("--seed", type=int, default=1)


# --- pki file plumbing -----------------------------------------------


def _rng(seed: int, *context: str):
    # Distinct artifacts from one --seed: mix in the command context, via
    # sha256 so the stream is stable across processes.
    import hashlib
    import random
    mixed = hashlib.sha256(
        (":".join([str(seed), *context])).encode()).digest()
    return random.Random(int.from_bytes(mixed, "big"))


def _write_bundle(prefix: Path, chain: pki.CertChain):
    prefix.with_suffix(".cert").write_bytes(chain.encode())
    prefix.with_suffix(".cert.txt").write_text(pki.dump_text(chain) + "\n")


def _read_bundle(prefix: Path) -> pki.CertChain:
    path = prefix if prefix.suffix == ".cert" else prefix.with_suffix(".cert")
    return pki.CertChain.decode(path.read_bytes())


def _write_key(prefix: Path, key: SigningKey, suffix=".key"):
    prefix.with_suffix(suffix).write_bytes(key.encode())


def _read_key(path: Path) -> SigningKey:
    return SigningKey(path.read_bytes())


def _load_revocations(path: Path | None) -> pki.RevocationList:
    revs = pki.RevocationList()
    if path and path.exists():
        for line in path.read_text().splitlines():
            kind, _, value = line.strip().partition(" ")
            if kind == "sigma":
                revs.revoked_sigma.add(_hex(value))
            elif kind == "key":
                revs.revoked_keys.add(_hex(value))
    return revs


def cmd_pki(args) -> int:
    cmd = args.pki_command
    rng = _rng(args.seed, cmd, str(getattr(args, "out", "")))
    end = CLOCK_START + 10 * 365 * 86400
    if cmd == "create-root":
        root, key = pki.create_root(args.type,
                                    pki.Identity(args.name, args.email), rng,
                                    CLOCK_START - 3600, end)
        _write_bundle(args.out, pki.CertChain(path=(root,)))
        _write_key(args.out, key)
        print(f"created {args.type} root at {args.out}.cert")
    elif cmd == "issue-cert":
        issuer_chain = _read_bundle(args.issuer)
        issuer_key = _read_key(args.issuer.with_suffix(".key"))
        subject_key = SigningKey.generate(rng)
        cert = pki.issue_certificate(
            issuer_chain.path[0], issuer_key,
            pki.Identity(args.name, args.email), subject_key.verify_key,
            args.level, CLOCK_START - 3600, end, rng)
        _write_bundle(args.out,
                      pki.CertChain(path=(cert,) + issuer_chain.path))
        _write_key(args.out, subject_key)
        print(f"issued {args.level} certificate at {args.out}.cert")
    elif cmd == "issue-token":
        leaf_chain = _read_bundle(args.issuer)
        leaf_key = _read_key(args.issuer.with_suffix(".key"))
        subject_key = SigningKey.generate(rng)
        ttype = args.token_type
        if ttype == pki.TOKEN_SYNTHESIZER:
            if not 0 <= args.rate_limit <= pki.U64_MAX:
                raise ScriptError(f"--rate-limit {args.rate_limit} not a u64")
            payload = pki.SynthesizerPayload(args.synth_id or args.name,
                                             args.rate_limit)
        elif ttype == pki.TOKEN_KEYSERVER:
            if not 0 < args.share_index < 2 ** 32:  # 0 is the key's own point
                raise ScriptError(f"--share-index {args.share_index} is not "
                                  f"in 1..2^32-1")
            payload = pki.KeyserverPayload(args.share_index)
        elif ttype == pki.TOKEN_DATABASE:
            payload = pki.DatabasePayload()
        else:
            sub_key = SigningKey.generate(rng)
            _write_key(args.out, sub_key, suffix=".subkey")
            seqs = tuple(_hex_list(args.sequences))
            payload = pki.ExemptionPayload(seqs, args.device_id or args.name,
                                           sub_key.verify_key)
        token = pki.issue_token(leaf_chain.path[0], leaf_key, ttype, payload,
                                pki.Identity(args.name, args.email),
                                subject_key.verify_key, CLOCK_START - 3600,
                                end, rng)
        _write_bundle(args.out,
                      pki.CertChain(path=leaf_chain.path, token=token))
        _write_key(args.out, subject_key)
        print(f"issued {ttype} token at {args.out}.cert "
              f"(sigma {token.sigma.hex()})")
    elif cmd == "issue-subtoken":
        parent_chain = _read_bundle(args.parent)
        if parent_chain.token is None:
            raise ScriptError(f"--parent {args.parent} holds no token")
        sub_key = _read_key(args.subtoken_key)
        seqs = tuple(_hex_list(args.sequences))
        sub = pki.issue_subtoken(parent_chain.token, sub_key, seqs, rng)
        _write_bundle(args.out, pki.CertChain(
            path=parent_chain.path, token=sub,
            ancestors=(parent_chain.token,) + parent_chain.ancestors))
        print(f"issued sub-token at {args.out}.cert")
    elif cmd == "validate-chain":
        chain = _read_bundle(args.chain)
        root = _read_bundle(args.root).path[-1]
        pki.validate_chain(chain, root, args.at,
                           _load_revocations(args.revocations))
        print("chain validates")
        print("OUTCOME: OK")
        return 0
    elif cmd == "revoke":
        with open(args.revocations, "a") as fh:
            if args.sigma:
                fh.write(f"sigma {args.sigma}\n")
            if args.key:
                fh.write(f"key {args.key}\n")
        print(f"revocation list updated: {args.revocations}")
    print("OUTCOME: OK")
    return 0


# --- scenario plumbing ------------------------------------------------


def _load_hazards(path: Path | None) -> list:
    if path is None:
        return list(DEFAULT_HAZARDS)
    hazards = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        hazards.append((_hex(parts[0]),
                        parts[1] if len(parts) > 1 else "",
                        parts[2] if len(parts) > 2 else ""))
    return hazards


def _load_order(path: Path) -> list:
    order = [_hex(line.strip())
             for line in path.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    if not order:
        raise ScriptError(f"--order {path}: no sequences")
    return order


def _config_from(args, hazards, exempt=()) -> ScenarioConfig:
    return ScenarioConfig(
        backend_name=args.backend, scep_variant=args.scep_variant,
        resumption=args.resumption, bind_responses=args.bind_responses,
        rate_limit=args.rate_limit, threshold=args.threshold,
        n_keyservers=args.keyservers, hazards=hazards,
        elt_sequences=tuple(exempt))


def _emit(result, out: Path | None, stdout_transcript: bool = False):
    if out:
        out.write_text(result.transcript_text)
        print(f"transcript written to {out}")
    elif stdout_transcript:
        print(result.transcript_text, end="")
    print(result.outcome.render())


def cmd_run(args) -> int:
    hazards = _load_hazards(args.hazards)
    if args.run_command == "script":
        exempt = _hex_list(args.exempt)
        config = _config_from(args, hazards, exempt)
        result = run_scenario(config, args.file.read_text(), args.seed,
                              name=f"script:{args.file.name}")
        _emit(result, args.out)
        ok = result.outcome.ok
        print(f"OUTCOME: {'OK' if ok else 'ASSERTION_FAILED'}")
        return 0 if ok else 1

    order = _load_order(args.order)
    if args.run_command == "basic":
        config = _config_from(args, hazards)
        script = f"query S {','.join(s.hex() for s in order)}"
    else:
        exempt = _hex_list(args.exempt)
        config = _config_from(args, hazards, exempt)
        script = (f"query-exempt S {','.join(s.hex() for s in order)} "
                  f"code={args.code}")
    result = run_scenario(config, script, args.seed,
                          name=f"run-{args.run_command}")
    got = result.replies[0]
    if isinstance(got, ScreeningError):  # refused: no verdict to print
        _emit(result, args.out, stdout_transcript=True)
        raise got
    for seq, v in zip(order, got.verdicts):
        if v.flag == HIT:
            print(f"DENY seq={seq.hex()} hazard={v.hazard_name} "
                  f"reason={v.reason}")
        elif v.flag == HIT_EXEMPT:
            print(f"EXEMPT seq={seq.hex()}")
        else:
            print(f"CLEAR seq={seq.hex()}")
    _emit(result, args.out, stdout_transcript=True)
    if not result.outcome.ok:
        print("OUTCOME: ASSERTION_FAILED")
        return 1
    print(f"OUTCOME: {got.overall.upper()}")
    return 0


def cmd_attack(args) -> int:
    cmd = args.attack_command
    base = _config_from(args, list(DEFAULT_HAZARDS))
    if cmd == "mitm":
        result = attacks.attack_mitm_rate_limit(args.scep_variant, args.seed,
                                                base=base)
        expected = ("ATTACK_SUCCEEDED" if args.scep_variant == SCEP
                    else "ATTACK_BLOCKED:BadClientSig")
        headline = ("ATTACK SUCCEEDED" if args.scep_variant == SCEP
                    else "ATTACK BLOCKED: BadClientSig")
    elif cmd == "swap":
        result = attacks.attack_response_swap(args.resumption,
                                              args.bind_responses, args.seed,
                                              base=base)
        expected = ("VERDICT_INVERTED" if args.resumption
                    and not args.bind_responses
                    else "SWAP_DETECTED" if args.resumption
                    else "SWAP_REJECTED")
        headline = expected.replace("_", " ")
    elif cmd == "passcode":
        result = attacks.attack_passcode_replay(args.seed, base=base)
        expected = "REPLAY_ACCEPTED"
        headline = "REPLAY ACCEPTED"
    else:
        result = attacks.attack_token_collision_dos(not args.distinct,
                                                    args.seed, base=base)
        expected = ("INDEPENDENT_BUDGETS" if args.distinct
                    else "BUDGET_MERGED")
        headline = expected.replace("_", " ")
    print(headline)
    _emit(result, args.out)
    token = result.outcome.token
    ok = result.outcome.ok and token == expected
    print(f"OUTCOME: {token}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "pki":
            return cmd_pki(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_attack(args)
    except (ScreeningError, OSError) as err:  # OSError: an unreadable file
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        print(f"OUTCOME: ERROR:{type(err).__name__}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
