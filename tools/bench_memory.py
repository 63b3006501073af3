"""Measure the memory of one pass of each workload of two dnascreen checkouts
into BENCH_memory.json.

For each workload of ``BENCHMARK.json`` it runs one pass at seed 1, built
from perfbench's own plans as ``perfbench/run.py`` runs it, under
``tracemalloc`` in a fresh Python process per checkout, and records:

  peak_mb      tracemalloc's peak over the pass
  retained_mb  what is still allocated after the pass with its world alive
               (attack-matrix: all 12 scenario results), after a full
               garbage collection
  top          the 10 source lines that hold the most of those bytes

Modules are imported before tracing starts, so neither figure counts them.
For each workload the parent (A) runs first, then the change (B):

  python3 tools/bench_memory.py --a ../parent        # B = this checkout

It replaces the readings ``parent`` and ``change`` in BENCH_memory.json at
the root of this checkout and records the host.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_primitives import host

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_memory.json"
SEED = 1

# Runs in a fresh interpreter: argv is [checkout, workload, seed].
CHILD = r"""
import gc, json, sys, tracemalloc
from pathlib import Path

checkout, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import bench_workloads as bw
from dnascreen import attacks
from dnascreen.scenarios import build_world, run_scenario


def one_pass():
    if workload in ("prod-screen", "test-screen"):
        spec = bw.PROD_SCREEN if workload == "prod-screen" else bw.TEST_SCREEN
        config, plan = bw.plan_screen(spec, seed, 0)
        world = build_world(config, seed * 1000)
        for exempt, order, advance in plan:
            if exempt:
                world.synth.exemption_query(order, world.elt_chain,
                                            world.fresh_code())
            else:
                world.synth.basic_query(order)
            world.net.advance_clock(advance)
        return world
    if workload == "closure-verdict":
        config, script, world_seed = bw.plan_closure(seed)
        return run_scenario(config, script, world_seed, name=workload)
    scenario_seed = bw.attack_seed(seed, 0)
    return [fn(scenario_seed) for fn in attacks.all_scenarios().values()]


def site(frame) -> str:
    path = Path(frame.filename)
    try:
        name = str(path.relative_to(checkout))
    except ValueError:
        name = "/".join(path.parts[-2:])
    return f"{name}:{frame.lineno}"


gc.collect()
tracemalloc.start()
kept = one_pass()
gc.collect()
retained, peak = tracemalloc.get_traced_memory()
snapshot = tracemalloc.take_snapshot().filter_traces(
    [tracemalloc.Filter(False, tracemalloc.__file__)])
tracemalloc.stop()
top = [{"site": site(stat.traceback[0]), "kb": round(stat.size / 1024, 1),
        "count": stat.count}
       for stat in snapshot.statistics("lineno")[:10]]
print(json.dumps({"peak_mb": round(peak / 2**20, 3),
                  "retained_mb": round(retained / 2**20, 3), "top": top}))
"""


def measure(checkout: Path, workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout), workload, str(SEED)],
        cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench_memory: {checkout} {workload} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True,
                    help="checkout A, recorded as 'parent' (its root)")
    ap.add_argument("--b", type=Path, default=ROOT,
                    help="checkout B, recorded as 'change' (default: this one)")
    args = ap.parse_args()
    sides = [args.a.resolve(), args.b.resolve()]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = {}, {}
    print(f"{'workload':<16} {'peak_mb A':>10} {'B':>8} {'B/A':>6} "
          f"{'retained_mb A':>14} {'B':>8} {'B/A':>6}")
    for workload in (w["name"] for w in bench["workloads"]):
        a = parent[workload] = measure(sides[0], workload)
        b = change[workload] = measure(sides[1], workload)
        print(f"{workload:<16} {a['peak_mb']:>10.2f} {b['peak_mb']:>8.2f} "
              f"{b['peak_mb'] / a['peak_mb']:>6.3f} "
              f"{a['retained_mb']:>14.2f} {b['retained_mb']:>8.2f} "
              f"{b['retained_mb'] / a['retained_mb']:>6.3f}")
    data = {
        "unit": f"MB (2^20 bytes) traced by tracemalloc over one pass at "
                f"seed {SEED}; top sites in KB, with the world alive",
        "host": host(),
        "readings": {"parent": parent, "change": change},
    }
    OUT.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
