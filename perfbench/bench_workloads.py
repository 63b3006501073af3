"""The four benchmark workloads: input generation, closed-loop runs, checks.

Every workload runs as a closed loop: one process, one thread, one client,
and each order (or scenario) is issued only after the previous verdict came
back.  All inputs derive from the workload seed through a harness rng of
their own, never from the world's rng, so the program receives only
generated inputs.
The harness's checks (verdicts against ``World.oracle``, the expected attack
tokens) run outside the timed region.  In a traced pass ``World.oracle`` runs
outside the spans and counters, also where a scenario script calls it.
"""

import hashlib
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from dnascreen import attacks
from dnascreen.scenarios import ScenarioConfig, build_world, run_scenario
from dnascreen.screening import DEFAULT_MAX_SEQUENCE_LEN, SynthesizerRole

from bench_trace import SETUP_UNIT

BASES = b"ACGT"

# The expected outcome matrix of ``dnascreen attack`` (cli.cmd_attack);
# honest scenarios carry no token.
EXPECTED_TOKENS = {
    "honest-basic-scep": "",
    "honest-basic-scep-plus": "",
    "honest-exemption-scep": "",
    "honest-exemption-scep-plus": "",
    "mitm-scep": "ATTACK_SUCCEEDED",
    "mitm-scep-plus": "ATTACK_BLOCKED:BadClientSig",
    "swap-on-off": "VERDICT_INVERTED",
    "swap-on-on": "SWAP_DETECTED",
    "swap-off-off": "SWAP_REJECTED",
    "passcode-replay": "REPLAY_ACCEPTED",
    "collision-forced": "BUDGET_MERGED",
    "collision-distinct": "INDEPENDENT_BUDGETS",
}

# Scenario seeds for attack-matrix.  On the 11-element test group the
# synthesizer's blinding scalar equals the corrupt K1's key share for about
# one seed in eleven; the closure then derives M(s) and both mitm scenarios
# fail order-secrecy.  That is a known defect of the test backend (the
# ristretto255 item removes it); the seeds below 65 where it occurs are left
# out so that the workload measures speed, and are listed here so it stays
# visible.
KNOWN_MITM_COLLISION_SEEDS = (12, 21, 47, 64)
ATTACK_SEED_POOL = tuple(s for s in range(1, 65)
                         if s not in KNOWN_MITM_COLLISION_SEEDS)


def random_seq(rng: random.Random, lo: int = 1,
               hi: int = DEFAULT_MAX_SEQUENCE_LEN) -> bytes:
    return bytes(rng.choice(BASES) for _ in range(rng.randint(lo, hi)))


def make_hazards(rng: random.Random, n: int) -> list:
    hazards, seen = [], set()
    while len(hazards) < n:
        s = random_seq(rng, 10)
        if s not in seen:
            seen.add(s)
            hazards.append((s, f"hazard-{len(hazards)}", "seeded hazard"))
    return hazards


def make_order(rng: random.Random, size: int, hazards: list, history: list,
               hazard_share: float, repeat_share: float) -> list:
    """``size`` sequences: listed hazards, repeats of earlier ones, or fresh."""
    order = []
    for _ in range(size):
        u = rng.random()
        if u < hazard_share:
            s = rng.choice(hazards)[0]
        elif u < hazard_share + repeat_share and history:
            s = rng.choice(history)
        else:
            s = random_seq(rng)
        history.append(s)
        order.append(s)
    return order


@dataclass(frozen=True)
class ScreenSpec:
    name: str
    backend: str
    blocks: int
    block_sizes: tuple     # each block is a seeded permutation of these sizes
    exempt_per_block: int  # exemption queries at seeded positions per block
    hazards: int
    hazard_share: float
    repeat_share: float


PROD_SCREEN = ScreenSpec("prod-screen", "prod", blocks=1, block_sizes=(1, 2, 3),
                         exempt_per_block=0, hazards=4, hazard_share=0.2,
                         repeat_share=0.2)
TEST_SCREEN = ScreenSpec("test-screen", "test", blocks=12,
                         block_sizes=tuple(range(1, 21)), exempt_per_block=5,
                         hazards=3, hazard_share=0.1, repeat_share=0.15)

CLOSURE_QUERIES = 160
CLOSURE_BLOCK = tuple(range(1, 7))


@dataclass
class PassResult:
    """One pass of a workload: a world (or scenario set) driven to verdicts."""

    order_ms: list = field(default_factory=list)
    verdict_seqs: int = 0  # sequences in orders that got a verdict
    pass_s: list = field(default_factory=list)  # timed seconds per scenario
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    transcripts: list = field(default_factory=list)  # sha256 per world
    units: list = field(default_factory=list)        # trace unit per order
    # unit -> (exemption query?, order sequences, exemption-list sequences)
    unit_sizes: dict = field(default_factory=dict)

    def merge(self, other: "PassResult"):
        self.order_ms += other.order_ms
        self.verdict_seqs += other.verdict_seqs
        self.pass_s += other.pass_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.transcripts += other.transcripts
        self.units += other.units
        self.unit_sizes.update(other.unit_sizes)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pause(tracer):
    return tracer.pause() if tracer is not None else nullcontext()


def _set_unit(tracer, unit):
    if tracer is not None:
        tracer.unit = unit


def time_setups(build, reps: int) -> tuple:
    """Seconds of each of ``reps`` calls to ``build``, and the last result."""
    times, world = [], None
    for _ in range(reps):
        t0 = perf_counter()
        world = build()
        times.append(perf_counter() - t0)
    return times, world


# --- prod-screen and test-screen ---------------------------------------------

def plan_screen(spec: ScreenSpec, seed: int, pass_no: int):
    """Hazards, exemption list, and (exempt?, order, clock advance) per order."""
    rng = random.Random(f"perfbench:{spec.name}:{seed}:{pass_no}")
    hazards = make_hazards(rng, spec.hazards)
    elt = (tuple(h[0] for h in rng.sample(hazards, 2))
           if spec.exempt_per_block else ())
    history, plan = [], []
    for _ in range(spec.blocks):
        sizes = list(spec.block_sizes)
        rng.shuffle(sizes)
        exempt_at = set(rng.sample(range(len(sizes)), spec.exempt_per_block))
        for i, size in enumerate(sizes):
            order = make_order(rng, size, hazards, history, spec.hazard_share,
                               spec.repeat_share)
            plan.append((i in exempt_at, order, rng.randint(1, 5)))
    # Every order falls in one 24 h window, so the budget must cover them all;
    # an exemption query also spends the exemption list at the keyservers.
    total = sum(len(o) + (len(elt) if ex else 0) for ex, o, _ in plan)
    config = ScenarioConfig(backend_name=spec.backend, hazards=hazards,
                            elt_sequences=elt, rate_limit=total + 1)
    return config, plan


def screen_pass(spec: ScreenSpec, seed: int, pass_no: int, tracer=None,
                setup_reps: int = 1, transcript: bool = False):
    """Drive one world's order stream; returns (PassResult, set-up times)."""
    config, plan = plan_screen(spec, seed, pass_no)
    world_seed = seed * 1000 + pass_no
    _set_unit(tracer, SETUP_UNIT)
    setup_times, world = time_setups(lambda: build_world(config, world_seed),
                                     setup_reps)
    synth = world.synth
    res = PassResult()
    timed = 0.0
    for i, (exempt, order, advance) in enumerate(plan):
        _set_unit(tracer, i)
        with _pause(tracer):
            code = world.fresh_code() if exempt else ""
        err = None
        t0 = perf_counter()
        try:
            if exempt:
                got = synth.exemption_query(order, world.elt_chain, code)
            else:
                got = synth.basic_query(order)
        except Exception as e:  # every failure is counted, none retried
            got, err = None, e
        dt = perf_counter() - t0
        timed += dt
        expected = world.oracle(order, config.elt_sequences if exempt else ())
        res.attempted += 1
        res.order_ms.append(dt * 1e3)
        res.units.append(i)
        res.unit_sizes[i] = (exempt, len(order), len(config.elt_sequences))
        if err is not None:
            res.failed += 1
            res.problems.append(f"order {i} raised {type(err).__name__}: {err}")
        elif (got.overall != expected.overall
              or got.verdicts != expected.verdicts):
            res.failed += 1
            res.problems.append(f"order {i}: verdicts differ from the oracle")
        else:
            res.verdict_seqs += len(order)
        world.net.advance_clock(advance)
    res.pass_s.append(timed)
    if transcript:
        with _pause(tracer):
            res.transcripts.append(_digest(world.net.transcript.render()))
    return res, setup_times


# --- scenario workloads --------------------------------------------------------

@contextmanager
def order_timer(res: PassResult):
    """Time the synthesizer's query calls made inside scenario code.

    This is the closed loop's request timer, moved to where scenario
    scripts issue their queries; it records no spans and touches no rng.
    """
    originals = {n: SynthesizerRole.__dict__[n]
                 for n in ("basic_query", "exemption_query")}

    def timed(fn):
        def call(self, order, *args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(self, order, *args, **kwargs)
            finally:
                res.order_ms.append((perf_counter() - t0) * 1e3)
            res.verdict_seqs += len(order)
            return out
        return call

    try:
        for n, fn in originals.items():
            setattr(SynthesizerRole, n, timed(fn))
        yield
    finally:
        for n, fn in originals.items():
            setattr(SynthesizerRole, n, fn)


def plan_closure(seed: int):
    rng = random.Random(f"perfbench:closure-verdict:{seed}")
    hazards = make_hazards(rng, 3)
    history, lines, total = [], [], 0
    while len(lines) < 2 * CLOSURE_QUERIES:
        sizes = list(CLOSURE_BLOCK)
        rng.shuffle(sizes)
        for size in sizes[:CLOSURE_QUERIES - len(lines) // 2]:
            order = make_order(rng, size, hazards, history, 0.1, 0.15)
            total += size
            lines.append("query S " + ",".join(s.hex() for s in order))
            lines.append(f"advance-clock {rng.randint(1, 60)}")
    config = ScenarioConfig(hazards=hazards, rate_limit=total + 1)
    return config, "\n".join(lines) + "\n", seed * 1000


def closure_pass(seed: int, tracer=None, transcript: bool = False):
    """One run_scenario call: the long script, then secrecy closure and probes."""
    config, script, world_seed = plan_closure(seed)
    res = PassResult()
    _set_unit(tracer, 0)
    t0 = perf_counter()
    try:
        result = run_scenario(config, script, world_seed,
                              name="closure-verdict")
    except Exception as e:
        result = None
        res.problems.append(f"run_scenario raised {type(e).__name__}: {e}")
    res.pass_s.append(perf_counter() - t0)
    res.attempted, res.units = 1, [0]
    if result is None or not result.outcome.ok:
        res.failed = 1
        if result is not None:
            res.problems.append(result.outcome.render())
    if transcript and result is not None:
        res.transcripts.append(_digest(result.transcript_text))
    return res


def closure_setup(seed: int, reps: int) -> list:
    config, _, world_seed = plan_closure(seed)
    return time_setups(lambda: build_world(config, world_seed), reps)[0]


def attack_seed(seed: int, pass_no: int) -> int:
    rng = random.Random(f"perfbench:attack-matrix:{seed}:{pass_no}")
    return rng.choice(ATTACK_SEED_POOL)


def attack_pass(seed: int, pass_no: int, tracer=None, transcript: bool = False):
    """Every shipped scenario once, at one seed drawn from the pool."""
    scenario_seed = attack_seed(seed, pass_no)
    res = PassResult()
    for i, (name, fn) in enumerate(attacks.all_scenarios().items()):
        _set_unit(tracer, i)
        t0 = perf_counter()
        try:
            result = fn(scenario_seed)
        except Exception as e:
            result = None
            res.problems.append(f"{name}@{scenario_seed} raised "
                                f"{type(e).__name__}: {e}")
        res.pass_s.append(perf_counter() - t0)
        res.attempted += 1
        res.units.append(i)
        if result is None:
            res.failed += 1
            continue
        want = EXPECTED_TOKENS.get(name)
        token = result.outcome.token
        if not result.outcome.ok or (want is not None and token != want):
            res.failed += 1
            res.problems.append(f"{name}@{scenario_seed}: token {token!r}, "
                                f"expected {want!r}, ok={result.outcome.ok}")
        if transcript:
            res.transcripts.append(_digest(result.transcript_text))
    return res


def attack_setup(seed: int, reps: int) -> list:
    s = attack_seed(seed, 0)
    return time_setups(lambda: build_world(ScenarioConfig(), s), reps)[0]
