"""Time the primitives of a dnascreen checkout into BENCH_primitives.json.

For each group backend (``test`` and ``prod``) it records the median cost in
microseconds of:

  exp.long        x^k for uniform k
  exp.short_neg   x^(q - 1), the Lagrange coefficient -1
  exp.generator   g^k for uniform k
  element         the membership check of an element's canonical integer
  hash_to_group   of a 16-byte message
  encode          of a hashed element
  encode.powered  of an ``exp.long`` result
  decode          ``decode_element`` of a 32- or 384-byte encoding

and once for the primitives that do not depend on the group:

  ed25519.sign    of a 100-byte message
  ed25519.verify  of that signature, by one VerifyKey object
  aead.seal       of a 200-byte record
  aead.open       of that record
  wire.pack       of five 32-byte fields
  wire.unpack     of that message

Each figure is the median over 11 batches of the mean cost per call; a batch
runs for about 10 ms, at least one call. Run it on two checkouts, one after
the other on one host, and compare only readings taken that way:

  python3 tools/bench_primitives.py --src ../parent --label parent
  python3 tools/bench_primitives.py --label change

Each run replaces the reading under its label in BENCH_primitives.json at the
root of this checkout and records the host it ran on.
"""

import argparse
import json
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_primitives.json"
BATCHES = 11
BATCH_S = 0.01


def median_us(call) -> float:
    """Median over BATCHES of the mean microseconds of ``call(i)``."""
    call(0)
    t = perf_counter()
    call(1)
    n = max(1, int(BATCH_S / max(perf_counter() - t, 1e-7)))
    means = []
    for _ in range(BATCHES):
        t = perf_counter()
        for i in range(n):
            call(i)
        means.append((perf_counter() - t) / n * 1e6)
    return round(statistics.median(means), 3)


def group_readings(backend) -> dict:
    rng = random.Random(1)
    ks = [backend.random_nonzero_scalar(rng) for _ in range(64)]
    xs = [backend.hash_to_group(rng.randbytes(16)) for _ in range(16)]
    encs = [x.encode() for x in xs]
    # checkouts from before ristretto255 encode every element big-endian
    order = getattr(backend, "byteorder", "big")
    ints = [int.from_bytes(e, order) for e in encs]
    msgs = [rng.randbytes(16) for _ in range(64)]
    minus_one = backend.scalar(backend.q - 1)
    g = backend.generator
    powered = [x.exp(k) for x, k in zip(xs, ks)]
    return {
        "exp.long": median_us(lambda i: xs[i % 16].exp(ks[i % 64])),
        "exp.short_neg": median_us(lambda i: xs[i % 16].exp(minus_one)),
        "exp.generator": median_us(lambda i: g.exp(ks[i % 64])),
        "element": median_us(lambda i: backend.element(ints[i % 16])),
        "hash_to_group": median_us(
            lambda i: backend.hash_to_group(msgs[i % 64])),
        "encode": median_us(lambda i: xs[i % 16].encode()),
        "encode.powered": median_us(lambda i: powered[i % 16].encode()),
        "decode": median_us(lambda i: backend.decode_element(encs[i % 16])),
    }


def shared_readings(crypto, wire) -> dict:
    rng = random.Random(2)
    sk = crypto.SigningKey.generate(rng)
    vk = sk.verify_key
    msg = rng.randbytes(100)
    sig = sk.sign(msg)
    key, record = rng.randbytes(32), rng.randbytes(200)
    sealed = crypto.aead_seal(key, 7, record)
    fields = [rng.randbytes(32) for _ in range(5)]
    packed = wire.pack_fields(*fields)
    return {
        "ed25519.sign": median_us(lambda i: sk.sign(msg)),
        "ed25519.verify": median_us(lambda i: vk.verify(msg, sig)),
        "aead.seal": median_us(lambda i: crypto.aead_seal(key, 7, record)),
        "aead.open": median_us(lambda i: crypto.aead_open(key, 7, sealed)),
        "wire.pack": median_us(lambda i: wire.pack_fields(*fields)),
        "wire.unpack": median_us(lambda i: wire.unpack_fields(packed)),
    }


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


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src / "src"))
    from dnascreen import crypto, wire
    out = {name: group_readings(crypto.get_backend(name))
           for name in ("test", "prod")}
    out["shared"] = shared_readings(crypto, wire)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="root of the checkout to measure")
    ap.add_argument("--label", required=True,
                    help="name of this reading in the file, e.g. parent")
    args = ap.parse_args()
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.setdefault("unit", "microseconds, median of 11 batch means")
    data.setdefault("readings", {})
    data["host"] = host()
    data["readings"][args.label] = measure(args.src.resolve())
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(data["readings"][args.label], indent=2))


if __name__ == "__main__":
    main()
