"""Compare two checkouts on the benchmark with concurrent run pairs.

For each seed K..K+N-1 (1..N by default), runs
``perfbench/run.py --workload W --seed i`` of
checkout A and of checkout B at the same time, two processes and no more,
each pinned to its own core where the host allows it. The two sides swap
cores from one seed to the next, so a faster core favours neither side.
Running a pair together exposes both sides to the same host state, so a
host that drifts between fast and slow phases moves both numbers of a pair
alike; taken one after the other, the same runs can differ by more than the
change measured.

For each end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartiles, the ratio of B's median to A's, and the pairs each side won
(ties count for neither side):

  python3 tools/ab_pairs.py --a ../parent --b .
  python3 tools/ab_pairs.py --a ../parent --workload test-screen
  python3 tools/ab_pairs.py --a ../parent --first-seed 11   # seeds 11-20

Each run lasts ``run_seconds`` of ``BENCHMARK.json``, as the benchmark's own.

The runs use copies of the two checkouts, made at ``<tmp>/ab/a`` and
``<tmp>/ab/b`` and deleted afterwards: peak RSS moves with the length of the
path a checkout sits at, so two paths of one length keep a location from
reading as a change. Neither checkout is touched.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin(core):
    """A preexec function that pins the child to ``core``, if it can."""
    if core is None:
        return None
    return lambda: os.sched_setaffinity(0, {core})


def _cores() -> list:
    """Two cores to pin the pair to, or [None, None] without affinity."""
    try:
        cores = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None, None]
    return cores[:2] if len(cores) >= 2 else [None, None]


def run_pair(checkouts: list, workload: str, seed: int,
             seconds: float) -> list:
    """Both checkouts' metrics of one seed, run at the same time."""
    procs = []
    cores = _cores()
    if seed % 2 == 0:
        cores.reverse()
    for checkout, core in zip(checkouts, cores):
        cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
        procs.append(subprocess.Popen(cmd, cwd=checkout, text=True,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE,
                                      preexec_fn=_pin(core)))
    results = []
    for checkout, proc in zip(checkouts, procs):
        out, err = proc.communicate()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"ab_pairs: {checkout} {workload} seed {seed} failed "
                     f"(exit {proc.returncode}):\n{out}{err}")
        result = json.loads(lines[-1])
        results.append({k: v["value"] for k, v in result["metrics"].items()})
    return results


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list, metrics: list) -> list:
    """One row per metric: name, A quartiles, B quartiles, ratio, wins."""
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        a = [p[0][name] for p in pairs if name in p[0]]
        b = [p[1][name] for p in pairs if name in p[1]]
        if not a or not b:
            continue
        wins_a = sum(1 for x, y in zip(a, b) if (x > y) == higher and x != y)
        wins_b = sum(1 for x, y in zip(a, b) if (y > x) == higher and x != y)
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        rows.append((name, qa, qb, ratio, wins_a, wins_b))
    return rows


def print_table(workload: str, n_pairs: int, rows: list):
    print(f"\n{workload}: {n_pairs} concurrent pairs (median [q1, q3])")
    print(f"{'metric':<16} {'A':>30} {'B':>30} {'B/A':>7} "
          f"{'A won':>6} {'B won':>6}")
    for name, qa, qb, ratio, wins_a, wins_b in rows:
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
        print(f"{name:<16} {cells[0]:>30} {cells[1]:>30} {ratio:>7.3f} "
              f"{wins_a:>6} {wins_b:>6}")


def copy_checkouts(checkouts: list, tmp: str) -> list:
    """Copies of the checkouts at ``<tmp>/ab/a`` and ``<tmp>/ab/b``."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    "traces")
    copies = [Path(tmp) / "ab" / side for side in "ab"]
    for checkout, copy in zip(checkouts, copies):
        shutil.copytree(checkout, copy, ignore=ignore)
    return copies


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True,
                    help="checkout A, the reference (its root directory)")
    ap.add_argument("--b", type=Path, default=ROOT,
                    help="checkout B, the candidate (default: this one)")
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="workload to run; repeatable (default: all)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="number of pairs, one per seed")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="seed of the first pair; pairs run on seeds "
                         "K..K+N-1 (default: 1)")
    args = ap.parse_args(argv)
    checkouts = [args.a.resolve(), args.b.resolve()]
    print(f"A = {checkouts[0]}\nB = {checkouts[1]}")
    with tempfile.TemporaryDirectory() as tmp:
        copies = copy_checkouts(checkouts, tmp)
        for workload in args.workload or workloads:
            pairs = [run_pair(copies, workload, seed, bench["run_seconds"])
                     for seed in range(args.first_seed,
                                       args.first_seed + args.pairs)]
            print_table(workload, len(pairs),
                        summary(pairs, bench["end_to_end"]))


if __name__ == "__main__":
    main()
