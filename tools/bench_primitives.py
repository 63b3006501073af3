"""Time the primitives of two dnascreen checkouts into BENCH_primitives.json.

For each group backend (``test`` and ``prod``) it records the cost in
microseconds of:

  exp.long            x^k for uniform k, a new Scalar each call
  exp.long.one_scalar x^k over 16 elements under one Scalar, as a
                      keyserver's share or an order's blinding factor
  exp.short_neg       x^(q - 1), the Lagrange coefficient -1
  exp.generator       g^k for uniform k, a new Scalar each call
  element             the membership check of an element's canonical integer
  hash_to_group       of a 16-byte message
  encode              of a hashed element
  encode.powered      of an ``exp.long`` result
  decode              ``decode_element`` of a 32- or 384-byte encoding

and once for the primitives that do not depend on the group:

  ed25519.sign        of a 100-byte message
  ed25519.verify      of that signature, by one VerifyKey object
  aead.seal           of a 200-byte record
  aead.open           of that record
  wire.pack           of five 32-byte fields
  wire.unpack         of that message
  pki.decode_chain    ``CertChain.decode`` of an issued chain: root,
                      intermediate and leaf certificates and a token
  pki.validate_chain  ``validate_chain`` of that decoded chain
  pki.token_encode    ``encode`` of the decoded chain's token

Both checkouts are imported into one process, A's modules and then B's, and
measured in alternation: each round times every primitive once on each side,
one batch of about 5 ms, and the side that goes first swaps from round to
round. Each figure is the median over the rounds of the batch means. So a
host that drifts between fast and slow phases moves both sides alike, as
``tools/ab_pairs.py`` arranges for whole runs:

  python3 tools/bench_primitives.py --a ../parent        # B = this checkout

It replaces the readings ``parent`` (A) and ``change`` (B) in
BENCH_primitives.json at the root of this checkout and records the host.
"""

import argparse
import json
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_primitives.json"
ROUNDS = 51
BATCH_S = 0.005


def load(src: Path) -> SimpleNamespace:
    """The crypto, pki and wire modules of the checkout at ``src``, imported
    afresh beside any copy already loaded."""
    for name in [n for n in sys.modules
                 if n == "dnascreen" or n.startswith("dnascreen.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src / "src"))
    try:
        from dnascreen import crypto, pki, wire
    finally:
        sys.path.pop(0)
    return SimpleNamespace(crypto=crypto, pki=pki, wire=wire)


def batch_size(call) -> int:
    """Calls of ``call(i)`` that fill about one batch."""
    call(0)
    t = perf_counter()
    call(1)
    return max(1, int(BATCH_S / max(perf_counter() - t, 1e-7)))


def batch_us(call, n: int) -> float:
    """Mean microseconds of ``call(i)`` over one batch of n calls."""
    t = perf_counter()
    for i in range(n):
        call(i)
    return (perf_counter() - t) / n * 1e6


def group_calls(backend) -> dict:
    rng = random.Random(1)
    ks = [rng.randrange(1, backend.q) for _ in range(64)]
    xs = [backend.hash_to_group(rng.randbytes(16)) for _ in range(16)]
    encs = [x.encode() for x in xs]
    # checkouts from before ristretto255 encode every element big-endian
    order = getattr(backend, "byteorder", "big")
    ints = [int.from_bytes(e, order) for e in encs]
    msgs = [rng.randbytes(16) for _ in range(64)]
    minus_one = backend.scalar(backend.q - 1)
    one = backend.scalar(ks[0])
    g = backend.generator
    powered = [x.exp(backend.scalar(k)) for x, k in zip(xs, ks)]
    return {
        "exp.long": lambda i: xs[i % 16].exp(backend.scalar(ks[i % 64])),
        "exp.long.one_scalar": lambda i: xs[i % 16].exp(one),
        "exp.short_neg": lambda i: xs[i % 16].exp(minus_one),
        "exp.generator": lambda i: g.exp(backend.scalar(ks[i % 64])),
        "element": lambda i: backend.element(ints[i % 16]),
        "hash_to_group": lambda i: backend.hash_to_group(msgs[i % 64]),
        "encode": lambda i: xs[i % 16].encode(),
        "encode.powered": lambda i: powered[i % 16].encode(),
        "decode": lambda i: backend.decode_element(encs[i % 16]),
    }


def shared_calls(crypto, wire, pki) -> dict:
    rng = random.Random(2)
    sk = crypto.SigningKey.generate(rng)
    vk = sk.verify_key
    msg = rng.randbytes(100)
    sig = sk.sign(msg)
    key, record = rng.randbytes(32), rng.randbytes(200)
    sealed = crypto.aead_seal(key, 7, record)
    fields = [rng.randbytes(32) for _ in range(5)]
    packed = wire.pack_fields(*fields)
    chain_b, root = issued_chain(crypto, pki, rng)
    chain = pki.CertChain.decode(chain_b)
    return {
        "ed25519.sign": lambda i: sk.sign(msg),
        "ed25519.verify": lambda i: vk.verify(msg, sig),
        "aead.seal": lambda i: crypto.aead_seal(key, 7, record),
        "aead.open": lambda i: crypto.aead_open(key, 7, sealed),
        "wire.pack": lambda i: wire.pack_fields(*fields),
        "wire.unpack": lambda i: wire.unpack_fields(packed),
        "pki.decode_chain": lambda i: pki.CertChain.decode(chain_b),
        "pki.validate_chain": lambda i: pki.validate_chain(chain, root, 1),
        "pki.token_encode": lambda i: chain.token.encode(),
    }


def issued_chain(crypto, pki, rng) -> tuple:
    """(encoding, root) of a synthesizer token's chain, as a world issues it."""
    root, key = pki.create_root(pki.MANUFACTURER, pki.Identity("M-root"), rng,
                                0, 2)
    path = [root]
    for level, name in ((pki.INTERMEDIATE, "M-inter"), (pki.LEAF, "M-leaf")):
        subject_key = crypto.SigningKey.generate(rng)
        path.insert(0, pki.issue_certificate(
            path[0], key, pki.Identity(name), subject_key.verify_key, level,
            0, 2, rng))
        key = subject_key
    token = pki.issue_token(
        path[0], key, pki.TOKEN_SYNTHESIZER, pki.SynthesizerPayload("S", 100),
        pki.Identity("S"), crypto.SigningKey.generate(rng).verify_key, 0, 2,
        rng)
    return pki.CertChain(path=tuple(path), token=token).encode(), root


def calls(side: SimpleNamespace) -> dict:
    """{section: {primitive: call(i)}} of one checkout."""
    out = {name: group_calls(side.crypto.get_backend(name))
           for name in ("test", "prod")}
    out["shared"] = shared_calls(side.crypto, side.wire, side.pki)
    return out


def measure(sides: list) -> list:
    """Per side, {section: {primitive: median microseconds}}."""
    suites = [calls(side) for side in sides]
    sizes = [{(sec, name): batch_size(call)
              for sec, prims in suite.items() for name, call in prims.items()}
             for suite in suites]
    means = [{key: [] for key in size} for size in sizes]
    for r in range(ROUNDS):
        order = [0, 1] if r % 2 == 0 else [1, 0]
        for sec, name in sizes[0]:
            for s in order:
                call = suites[s][sec][name]
                means[s][(sec, name)].append(
                    batch_us(call, sizes[s][(sec, name)]))
    out = []
    for side_means in means:
        readings = {}
        for (sec, name), values in side_means.items():
            readings.setdefault(sec, {})[name] = round(
                statistics.median(values), 3)
        out.append(readings)
    return out


def host() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True,
                    help="checkout A, recorded as 'parent' (its root)")
    ap.add_argument("--b", type=Path, default=ROOT,
                    help="checkout B, recorded as 'change' (default: this one)")
    args = ap.parse_args()
    sides = [load(args.a.resolve()), load(args.b.resolve())]
    parent, change = measure(sides)
    data = {
        "unit": f"microseconds, median over {ROUNDS} alternating rounds of "
                f"one batch mean each",
        "host": host(),
        "readings": {"parent": parent, "change": change},
    }
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    for sec in parent:
        for name in parent[sec]:
            a, b = parent[sec][name], change[sec][name]
            print(f"{sec:<7} {name:<20} {a:>10.3f} {b:>10.3f} "
                  f"{b / a if a else float('nan'):>7.3f}")


if __name__ == "__main__":
    main()
