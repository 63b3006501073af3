"""dnascreen benchmark: one named workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing patched but the
scenario workloads' query timer.  ``--trace 1`` runs one pass untraced and
the same pass traced, checks that both transcripts are byte-identical, and
reports the per-layer metrics of the traced pass; its spans are written to
``perfbench/traces/``.  The program is imported from ``src/`` of the checkout
the script sits in, never from an installed copy.
"""

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("prod-screen", "test-screen", "closure-verdict", "attack-matrix")
SETUP_REPS = {"prod-screen": 3, "test-screen": 3, "closure-verdict": 21,
              "attack-matrix": 21}

# Counters that must read non-zero in the traced run of each workload: the
# layers the prediction table (perfbench/plan.json) says each workload moves.
MUST_MOVE = {
    "prod-screen": [
        "crypto.exp.calls", "crypto.member.calls", "doprf.blind.calls",
        "doprf.eval_share.calls", "doprf.combine.calls", "doprf.unblind.calls",
        "channel.handshake.calls", "channel.handshake.self_s",
        "channel.record.calls", "screening.connect.s", "screening.ks_round.s",
        "screening.assemble.s", "screening.blind_batch.s",
        "screening.hdb_round.s", "screening.hdb_lookup.s",
        "screening.build_hdb.s"],
    "test-screen": [
        "crypto.sign.calls", "crypto.verify.calls", "crypto.sig.s",
        "crypto.aead.calls", "crypto.aead.s", "pki.validate_chain.calls",
        "pki.validate_chain.s", "scep.client.s", "scep.server.s",
        "scep.ledger.checks", "scep.ledger.s", "scep.ledger.q1_s",
        "scep.ledger.q4_s", "screening.connect.s", "screening.hdb_lookup.s",
        "screening.auth_check.calls", "wire.pack.calls", "wire.unpack.calls",
        "wire.s", "terms.render.s", "simnet.transfer.calls",
        "simnet.transfer.self_s", "simnet.bookkeeping.s",
        "simnet.bookkeeping.q1_s", "simnet.bookkeeping.q4_s"],
    "closure-verdict": [
        "closure.build.s", "closure.items", "closure.rounds",
        "closure.add.new_ratio", "closure.probe.calls", "closure.probe.s",
        "simnet.transfer.calls", "simnet.bookkeeping.s", "simnet.render.s",
        "scenarios.build_world.s", "scenarios.secrecy.s"],
    "attack-matrix": [
        "pki.validate_chain.calls", "pki.issue.s", "scep.client.s",
        "scep.server.s", "scep.ledger.checks", "channel.resume.ok_ratio",
        "closure.build.s", "closure.probe.calls", "scenarios.build_world.s",
        "scenarios.secrecy.s", "scenarios.agreement.s",
        "scenarios.slot_unique.s", "attacks.drain.s"],
}


def import_program():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "dnascreen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dnascreen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dnascreen
    if Path(dnascreen.__file__).resolve().parent != SRC / "dnascreen":
        sys.exit(f"perfbench: imported dnascreen from {dnascreen.__file__}")


def expected_counts(exempt: bool, n: int, n_exempt: int) -> dict:
    """Operation counts of one query at t=2 of n=3 keyservers.

    A basic query costs 12 exponentiations per order plus 6 per sequence
    (blind, two share evaluations, two Lagrange powers, unblind), 6 subgroup
    membership checks per order plus 4 per sequence, and 12 Ed25519
    verifications per connection over 3 connections.  An exemption query
    also screens the exemption list through the keyservers, validates the
    ELT chain (4 verifications) and dials the auth backend (one handshake:
    4 exponentiations, 2 membership checks, 2 verifications).
    Exponentiations inside hash-to-group (the test backend's map) are not
    counted.
    """
    if not exempt:
        return {"exp": 12 + 6 * n, "member": 6 + 4 * n, "verify": 36}
    m = n + n_exempt
    return {"exp": 16 + 6 * m, "member": 8 + 4 * m, "verify": 42}


def unit_counts(tracer) -> Counter:
    """(unit, exp | member | verify) -> calls, in one scan of the spans."""
    from bench_trace import exp_outside_hash
    out = Counter()
    keys = {"crypto.member": "member", "crypto.verify": "verify"}
    for i, unit in enumerate(tracer.span_unit):
        name = tracer.name_of(i)
        if name == "crypto.exp":
            if exp_outside_hash(tracer, i):
                out[(unit, "exp")] += 1
        elif name in keys:
            out[(unit, keys[name])] += 1
    return out


def check_counts(tracer, res) -> list:
    counts = unit_counts(tracer)
    problems = []
    for u in res.units:
        exempt, n, n_exempt = res.unit_sizes[u]
        for key, want in expected_counts(exempt, n, n_exempt).items():
            got = counts[(u, key)]
            if got != want:
                problems.append(f"order {u} ({'exemption' if exempt else 'basic'}"
                                f", {n} seqs): {got} {key} calls, formula "
                                f"says {want}")
    return problems


def one_pass(workload: str, seed: int, pass_no: int, tracer=None,
             setup_reps: int = 1, transcript: bool = False):
    """One pass of the workload; returns (PassResult, set-up times)."""
    import bench_workloads as bw
    if workload in ("prod-screen", "test-screen"):
        spec = bw.PROD_SCREEN if workload == "prod-screen" else bw.TEST_SCREEN
        return bw.screen_pass(spec, seed, pass_no, tracer, setup_reps,
                              transcript)
    res = bw.PassResult()
    with bw.order_timer(res):
        if workload == "closure-verdict":
            res.merge(bw.closure_pass(seed, tracer, transcript))
        else:
            res.merge(bw.attack_pass(seed, pass_no, tracer, transcript))
    return res, []


def quantile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(workload: str, seed: int, seconds: float):
    import bench_workloads as bw
    total = bw.PassResult()
    setups = []
    if workload == "closure-verdict":
        setups = bw.closure_setup(seed, SETUP_REPS[workload])
    elif workload == "attack-matrix":
        setups = bw.attack_setup(seed, SETUP_REPS[workload])
    reps = SETUP_REPS[workload] if workload.endswith("screen") else 1
    start = perf_counter()
    pass_no = 0
    while pass_no == 0 or perf_counter() - start < seconds:
        res, setup = one_pass(workload, seed, pass_no, setup_reps=reps)
        total.merge(res)
        setups += setup
        pass_no += 1
    for p in total.problems:
        print(f"FAIL {p}")
    ms = total.order_ms
    p95 = quantile(ms, 95)
    beyond = sum(1 for v in ms if v > p95)
    timed = sum(total.pass_s)
    print(f"{workload} seed={seed}: {pass_no} passes, {total.attempted} "
          f"attempted, {total.failed} failed, {len(ms)} orders timed "
          f"({beyond} beyond p95), {total.verdict_seqs} sequences to a "
          f"verdict in {timed:.3f} s timed, {len(setups)} set-ups")
    if beyond < 10:
        print(f"note: order_p95_ms rests on {len(ms)} samples, fewer than 10 "
              f"beyond it")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "seqs_per_s": (total.verdict_seqs / timed, "seq/s"),
        "order_p50_ms": (statistics.median(ms), "ms"),
        "order_p95_ms": (p95, "ms"),
        "verdict_s": (statistics.median(total.pass_s), "s"),
        "scenarios_per_s": (len(total.pass_s) / timed, "1/s"),
        "ok_share": (1 - total.failed / total.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return total.failed == 0, total.attempted, total.failed, metrics


def run_traced(workload: str, seed: int):
    from bench_trace import Tracer, layer_metrics
    t0 = perf_counter()
    ref, _ = one_pass(workload, seed, 0, transcript=True)
    ref_wall = perf_counter() - t0

    tracer = Tracer()
    with tracer.patched():
        t0 = perf_counter()
        res, _ = one_pass(workload, seed, 0, tracer, transcript=True)
        wall = perf_counter() - t0
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload}-seed{seed}.jsonl")

    problems = list(ref.problems) + list(res.problems)
    if ref.transcripts != res.transcripts:
        problems.append("traced and untraced transcripts differ")
    if workload.endswith("screen"):
        problems += check_counts(tracer, res)
        print(f"operation counts checked against the formulas on "
              f"{len(res.units)} orders")
    metrics = layer_metrics(tracer, res.units, len(res.order_ms),
                            res.verdict_seqs, wall - ref_wall)
    problems += [f"{name} reads zero on {workload}"
                 for name in MUST_MOVE[workload] if not metrics[name][0]]
    for p in problems:
        print(f"FAIL {p}")
    print(f"{workload} seed={seed}: traced pass {wall:.3f} s, untraced "
          f"{ref_wall:.3f} s, {len(tracer)} spans, transcripts "
          f"{'identical' if ref.transcripts == res.transcripts else 'DIFFER'}"
          f" ({len(res.transcripts)} compared)")
    attempted = ref.attempted + res.attempted
    failed = ref.failed + res.failed
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args.workload,
                                                         args.seed)
    else:
        correct, attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
