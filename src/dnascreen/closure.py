"""Dolev-Yao adversary knowledge closure over a scenario's tapped terms.

Starting from the corrupt roles' keys and everything that crossed the wire,
the closure applies three destructive rules to a fixpoint:

- split concatenations at the length-prefixed boundaries it can parse,
- open sealed records whose write key it holds,
- exponentiate known group elements with known scalars (and their modular
  inverses), cancelling formally inverse pairs.

Exponent bookkeeping is free-algebra style: a derived element equals a base
atom only when its factor multiset cancels to nothing, never through the
concrete wrap-around of the tiny test group, which is exactly the
cannot-brute-force adversary of the symbolic model. Constructive powers
(hash, encrypt, concatenate anything known) do not reveal secrets and are
realized by the scripted corrupt-role behaviours instead of the closure.

Every derived term carries a derivation tree, so a "leaked" verdict is
always backed by explicit evidence.

Known limitation: combined keyed hashes (the output of the threshold
combine step) enter as fresh atoms, so derivations that would require
reassembling the full key from >= t corrupt shares are not modelled; no
shipped scenario corrupts that many keyservers.
"""

from dataclasses import dataclass

from .crypto import GroupBackend
from .errors import DecodeError
from .terms import Atom, Cat, ExpTerm, Sealed, term_key

MAX_FACTORS = 4


@dataclass
class Known:
    term: object
    rule: str
    parents: tuple


class Knowledge:
    """Fixpoint closure of what the adversary can derive."""

    def __init__(self, backend: GroupBackend):
        self.backend = backend
        self.items: dict[tuple, Known] = {}
        self.by_data: dict[bytes, tuple] = {}  # atom data -> first atom's key
        self.powered: set[tuple] = set()  # (element key, scalar key) done

    # -- building --

    def add(self, term, rule: str, parents: tuple = ()) -> bool:
        k = term_key(term)
        if k in self.items:
            return False
        self.items[k] = Known(term, rule, parents)
        if isinstance(term, Atom):
            self.by_data.setdefault(term.data, k)
        return True

    def known_keys(self) -> set:
        return {t.term.label for t in self.items.values()
                if isinstance(t.term, Atom) and t.term.kind == "key"}

    def close(self):
        changed = True
        while changed:
            changed = False
            keys = self.known_keys()
            for k, known in list(self.items.items()):
                t = known.term
                if isinstance(t, Cat):
                    for part in t.parts:
                        changed |= self.add(part, "split", (k,))
                elif isinstance(t, Sealed) and t.key_label in keys:
                    changed |= self.add(t.inner, "decrypt", (k,))
            changed |= self._exponentiate()

    def _exponentiate(self) -> bool:
        """Power each known element by each known scalar and its inverse,
        once per pair: a later round could only re-add a known term."""
        scalars = [(k, t.term) for k, t in self.items.items()
                   if isinstance(t.term, Atom) and t.term.kind == "scalar"]
        elements = [(k, t.term) for k, t in self.items.items()
                    if isinstance(t.term, ExpTerm)
                    or (isinstance(t.term, Atom) and t.term.kind == "element")]
        changed = False
        for ek, elt in elements:
            fresh = [(sk, sc) for sk, sc in scalars
                     if (ek, sk) not in self.powered]
            if not fresh:
                continue
            self.powered.update((ek, sk) for sk, _ in fresh)
            base = elt.base if isinstance(elt, ExpTerm) else elt
            factors = elt.factors if isinstance(elt, ExpTerm) else ()
            try:
                x = self.backend.model_decode(elt.data)
            except DecodeError:  # no element: nothing to exponentiate
                continue
            for sk, sc in fresh:
                s_val = int.from_bytes(sc.data, "big") % self.backend.q
                if s_val == 0:
                    continue
                for sign in (1, -1):
                    new_factors = _cancel(factors, (sc.label, sign))
                    if new_factors is None or len(new_factors) > MAX_FACTORS:
                        continue
                    exp_val = (s_val if sign == 1
                               else pow(s_val, -1, self.backend.q))
                    data = x.power(exp_val).encode()
                    if new_factors == ():
                        new_term = base
                    else:
                        new_term = ExpTerm(base, new_factors, data)
                    changed |= self.add(new_term,
                                        f"exp[{sc.label}^{sign:+d}]",
                                        (ek, sk))
        return changed

    # -- probing --

    def holds_atom_label(self, label: str) -> tuple | None:
        k = ("a", label)  # the term_key of every atom with this label
        return k if k in self.items else None

    def holds_bytes(self, data: bytes) -> tuple | None:
        return self.by_data.get(data)

    def derivation(self, k: tuple, depth: int = 0) -> list:
        known = self.items[k]
        lines = ["  " * depth + f"{known.rule}: {_describe(known.term)}"]
        for p in known.parents:
            if p in self.items:
                lines += self.derivation(p, depth + 1)
        return lines


def _cancel(factors: tuple, new: tuple) -> tuple | None:
    """Add one (label, sign) factor, cancelling its formal inverse if present."""
    label, sign = new
    inverse = (label, -sign)
    if inverse in factors:
        out = list(factors)
        out.remove(inverse)
        return tuple(sorted(out))
    if new in factors and factors.count(new) >= MAX_FACTORS:
        return None
    return tuple(sorted(factors + (new,)))


def _describe(term) -> str:
    if isinstance(term, Atom):
        return f"{term.label} [{term.kind}, {len(term.data)}B]"
    if isinstance(term, Sealed):
        return f"sealed under {term.key_label} at seq {term.seq}"
    if isinstance(term, Cat):
        return f"concatenation of {len(term.parts)} fields"
    if isinstance(term, ExpTerm):
        return f"{term.base.label} raised by {term.factors}"
    return repr(term)


def build_knowledge(net, backend: GroupBackend) -> Knowledge:
    """Closure over a finished scenario: initial corrupt keys + tapped terms."""
    kn = Knowledge(backend)
    for atom, why in net.initial_knowledge:
        kn.add(atom, f"initial: {why}")
    for ev in net.transcript.events:
        if ev.term is not None:
            kn.add(ev.term, f"tapped at step {ev.step}")
    kn.close()
    return kn


@dataclass
class ProbeResult:
    name: str
    leaked: bool
    evidence: str


def probe(kn: Knowledge, secrets: list) -> list[ProbeResult]:
    """Per-secret leak verdicts with derivation evidence."""
    results = []
    for secret in secrets:
        hit = None
        if secret.get("label"):
            hit = kn.holds_atom_label(secret["label"])
        if hit is None and secret.get("data"):
            hit = kn.holds_bytes(secret["data"])
        evidence = "\n".join(kn.derivation(hit)) if hit else "not derivable"
        results.append(ProbeResult(secret["name"], hit is not None, evidence))
    return results
