"""Fingerprint the observable behaviour of a dnascreen checkout.

Runs every shipped scenario (``attacks.all_scenarios()``) at seeds 1-64,
plus one mixed ``run_scenario`` script under each resumption x
response-binding setting, all on the ``test`` backend, and the same script
once on ``prod`` (resumption and binding on), and an adversary script
(drop, swap, replace, inject and ``corrupt H leaky``) on ``test`` with
resumption off and on. Prints five sha256 digests:

  outcomes     each test-backend run's ``outcome.render()`` and token
  wire         each test-backend transcript with every ``view=`` removed
  transcripts  each full test-backend transcript
  prod         the prod run's outcome, token and full transcript
  adversary    each adversary run's outcome, transcript, notes, agreement
               and record-slot checks, record key slots, and every item of
               its knowledge closure with the rule that added it

Run it on two checkouts; equal digests show that a refactor kept the
outcomes, the wire bytes and the formal views of every run:

  python3 tools/fingerprint.py                    # this checkout
  python3 tools/fingerprint.py --src ../other     # another checkout
  python3 tools/fingerprint.py --runs runs.txt    # and one line per run

``--runs FILE`` writes one line per run behind the wire, transcripts and
prod digests: the run (``scenario:seed``, ``script:resumption:binding`` or
``prod:script:...``), then its wire and transcript digests (16 hex digits
each). Diffing two such files lists the runs that moved.

It stores no golden values; only the comparison means anything.
"""

import argparse
import hashlib
import re
import sys
from pathlib import Path

SEEDS = range(1, 65)
SCRIPT_SEED = 1
_VIEW = re.compile(r" view=.*? note=")


def mixed_script(hazards: list, clean: list) -> str:
    """36 lines: basic and exemption queries, resumption, clock steps."""
    covered = hazards[0][0]
    lines = []
    for i in range(9):
        hazard = hazards[i % len(hazards)][0]
        seq = clean[i % len(clean)]
        lines += [
            f"query S {hazard.hex()},{seq.hex()}",
            f"advance-clock {30 * (i + 1)}",
            "resume-next S",
            f"query-exempt S {covered.hex()},{seq.hex()} code=fresh",
        ]
    return "\n".join(lines)


def script_run(scenarios, backend: str, resumption: bool, bind: bool):
    """(outcome text, transcript) of the mixed script under one setting."""
    script = mixed_script(scenarios.DEFAULT_HAZARDS,
                          scenarios.CLEAN_SEQUENCES)
    config = scenarios.ScenarioConfig(
        backend_name=backend, resumption=resumption, bind_responses=bind,
        elt_sequences=(scenarios.DEFAULT_HAZARDS[0][0],))
    result = scenarios.run_scenario(config, script, SCRIPT_SEED)
    return (f"script:{resumption}:{bind}\n{result.outcome.render()}\n"
            f"token={result.outcome.token}", result.transcript_text)


def adversary_script(hazards: list, clean: list) -> str:
    """Every tap action, an injection and a leaky H, each hitting a message.

    Query 1 loses its first hello to K1; query 2's hdb reply is captured and
    replaces query 3's (the response swap when query 3 resumes); query 4's
    hello to K2 is replaced by junk; the exemption query feeds H the code.
    """
    h0, h1 = hazards[0][0].hex(), hazards[1][0].hex()
    c0, c1 = clean[0].hex(), clean[1].hex()
    return "\n".join([
        "corrupt H leaky",
        "drop S->K1:c2s:0:m0",
        "swap S->H:s2c:0:r1 S->H:s2c:1:r1",
        f"query S {h0},{c0}",
        f"query S {c1}",
        "resume-next S",
        f"query S {h1}",
        "replace S->K2:c2s:2:m0 00ff",
        f"query S {c1}",
        "inject S->H 00ff",
        "advance-clock 30",
        "resume-next S",
        f"query-exempt S {h0},{c1} code=fresh",
        f"query S {c0}",
    ])


def adversary_runs(scenarios, closure):
    """What the adversary paths leave behind, under resumption off and on."""
    script = adversary_script(scenarios.DEFAULT_HAZARDS,
                              scenarios.CLEAN_SEQUENCES)
    for resumption in (False, True):
        config = scenarios.ScenarioConfig(
            resumption=resumption,
            elt_sequences=(scenarios.DEFAULT_HAZARDS[0][0],))
        result = scenarios.run_scenario(config, script, SCRIPT_SEED)
        world = result.world
        checks = [*scenarios.agreement_assertions(world),
                  scenarios.key_slot_uniqueness_assertion(world)]
        kn = closure.build_knowledge(world.net, world.backend)
        yield "\n".join([
            f"adversary:{resumption}", result.outcome.render(),
            result.transcript_text, *world.net.notes,
            *(f"{a.id} {a.passed} {a.evidence}" for a in checks),
            repr(world.net.record_key_slots()),
            *(f"{k!r} {item.rule} {item.parents!r}"
              for k, item in kn.items.items())])


def runs(attacks, scenarios):
    """(outcome text, transcript) of every test-backend run, in order."""
    for name, run in attacks.all_scenarios().items():
        for seed in SEEDS:
            result = run(seed)
            yield (f"{name}:{seed}\n{result.outcome.render()}\n"
                   f"token={result.outcome.token}", result.transcript_text)
    for resumption in (False, True):
        for bind in (False, True):
            yield script_run(scenarios, "test", resumption, bind)


def run_line(label: str, wire: bytes, transcript: bytes) -> str:
    """One run's line of the ``--runs`` table."""
    return " ".join([label, *(hashlib.sha256(b).hexdigest()[:16]
                              for b in (wire, transcript))])


def fingerprint(src: Path) -> tuple[dict, list]:
    """The five digests, and the ``--runs`` table's lines."""
    sys.path.insert(0, str(src / "src"))
    from dnascreen import attacks, closure, scenarios

    digests = {name: hashlib.sha256() for name in
               ("outcomes", "wire", "transcripts", "prod", "adversary")}
    table = []
    for outcome, transcript in runs(attacks, scenarios):
        wire = _VIEW.sub(" note=", transcript).encode()
        text = transcript.encode()
        digests["outcomes"].update(outcome.encode() + b"\0")
        digests["wire"].update(wire + b"\0")
        digests["transcripts"].update(text + b"\0")
        table.append(run_line(outcome.partition("\n")[0], wire, text))
    outcome, transcript = script_run(scenarios, "prod", True, True)
    digests["prod"].update(outcome.encode() + b"\0" + transcript.encode())
    table.append(run_line("prod:" + outcome.partition("\n")[0],
                          _VIEW.sub(" note=", transcript).encode(),
                          transcript.encode()))
    for text in adversary_runs(scenarios, closure):
        digests["adversary"].update(text.encode() + b"\0")
    return {name: h.hexdigest() for name, h in digests.items()}, table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="root of the checkout to fingerprint")
    ap.add_argument("--runs", type=Path, metavar="FILE",
                    help="also write one line per run: run, wire digest, "
                         "transcript digest")
    args = ap.parse_args()
    digests, table = fingerprint(args.src.resolve())
    for name, digest in digests.items():
        print(f"{name} {digest}")
    if args.runs is not None:
        args.runs.write_text("\n".join(table) + "\n")


if __name__ == "__main__":
    main()
