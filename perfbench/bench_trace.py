"""Span tracing around the public entry points of each dnascreen module.

Every traced function is wrapped in the namespace where its callers look it
up: a function imported by name into another module (``screening`` imports
``blind``, ``handshake_client``, ``validate_chain`` ...) is wrapped there as
well as where it is defined, and methods are wrapped on their class.  Nothing
under ``src/`` is edited; ``Tracer.patched()`` installs the wrappers and puts
the originals back on exit.

A span is ``(name, start, end, parent, unit)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``unit`` the id of the order or
scenario it belongs to.  Spans stay in memory until ``write_spans``.  A
span's self time is its duration minus the durations of its direct children;
the simulator runs one event at a time, so children never overlap.  This is
what separates a server handler from the client ``Conn.send`` it runs inside.
"""

import functools
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

from dnascreen import (attacks, channel, closure, crypto, doprf, pki, scenarios,
                       scep, screening, simnet, terms, wire)

SETUP_UNIT = -1


def _ok(tracer, name, args, result):
    tracer.count(name + ".ok")


def _true(tracer, name, args, result):
    if result:
        tracer.count(name + ".true")


def _transfer_bytes(tracer, name, args, result):
    tracer.count(name + ".bytes", len(args[3].data))


def _record_bytes(tracer, name, args, result):
    tracer.count(name + ".bytes", len(result.data))


def _closure_items(tracer, name, args, result):
    tracer.count(name + ".items", len(result.items))


# (owner, attribute, span name, observer).  One span name may cover several
# owners: the same function reached through each module that imports it.
TRACE_POINTS = [
    # crypto primitives
    (crypto.GroupElement, "exp", "crypto.exp", None),
    (crypto.GroupBackend, "element", "crypto.member", None),
    (crypto, "hash_to_group", "crypto.hash_to_group", None),
    (doprf, "hash_to_group", "crypto.hash_to_group", None),
    (crypto.SigningKey, "sign", "crypto.sign", None),
    (crypto.VerifyKey, "verify", "crypto.verify", None),
    (crypto, "aead_seal", "crypto.aead", None),
    (crypto, "aead_open", "crypto.aead", None),
    (channel, "aead_seal", "crypto.aead", None),
    (channel, "aead_open", "crypto.aead", None),
    # doprf
    *[(mod, fn, f"doprf.{fn}", None)
      for fn in ("blind", "eval_share", "combine", "unblind")
      for mod in (doprf, screening)],
    # channel
    *[(mod, "handshake_client", "channel.handshake", None)
      for mod in (channel, screening, attacks)],
    *[(mod, fn, "channel.record", _record_bytes if fn == "channel_send" else None)
      for fn in ("channel_send", "channel_recv")
      for mod in (channel, screening, scep, attacks)
      if not (mod is scep and fn == "channel_recv")],
    (channel, "resume_session", "channel.resume", _ok),
    (screening, "resume_session", "channel.resume", _ok),
    # pki
    *[(mod, "validate_chain", "pki.validate_chain", None)
      for mod in (pki, screening, scep)],
    *[(pki, fn, "pki.issue", None)
      for fn in ("create_root", "issue_certificate", "issue_token",
                 "issue_subtoken")],
    # scep
    (scep.ScepClientSession, "hello", "scep.client", None),
    (scep.ScepClientSession, "finish", "scep.client", None),
    (scep.ScepServerSession, "respond", "scep.server", None),
    (scep.ScepServerSession, "verify", "scep.server", None),
    (scep, "rate_limit_check", "scep.ledger", _true),
    (screening, "rate_limit_check", "scep.ledger", _true),
    # screening phases
    (screening.SynthesizerRole, "_connect", "screening.connect", None),
    (screening.SynthesizerRole, "_keyserver_round", "screening.ks_round", None),
    (screening.SynthesizerRole, "_assemble", "screening.assemble", None),
    (screening.SynthesizerRole, "_blind_batch", "screening.blind_batch", None),
    (screening.SynthesizerRole, "_hdb_round", "screening.hdb_round", None),
    (screening, "hdb_lookup", "screening.hdb_lookup", None),
    (screening, "build_hdb", "screening.build_hdb", None),
    (scenarios, "build_hdb", "screening.build_hdb", None),
    (screening.HashedDbRole, "_auth_check", "screening.auth_check", None),
    # wire and terms
    (wire, "pack_fields", "wire.pack", None),
    (wire, "unpack_fields", "wire.unpack", None),
    (terms, "render_term", "terms.render", None),
    # simnet
    (simnet.SimNetwork, "transfer", "simnet.transfer", _transfer_bytes),
    *[(simnet.SimNetwork, fn, "simnet.bookkeeping", None)
      for fn in ("register_channel", "record_client_session",
                 "record_server_session", "record_server_authenticated")],
    (simnet.Transcript, "render", "simnet.render", None),
    # closure
    (closure, "build_knowledge", "closure.build", _closure_items),
    (closure.Knowledge, "_exponentiate", "closure.round", None),
    (closure.Knowledge, "add", "closure.add", _true),
    (closure.Knowledge, "holds_bytes", "closure.probe", None),
    (closure.Knowledge, "holds_atom_label", "closure.probe", None),
    # scenarios and attacks
    (scenarios, "build_world", "scenarios.build_world", None),
    (attacks, "build_world", "scenarios.build_world", None),
    (scenarios, "secrecy_assertions", "scenarios.secrecy", None),
    (attacks, "secrecy_assertions", "scenarios.secrecy", None),
    (scenarios, "agreement_assertions", "scenarios.agreement", None),
    (attacks, "_unmatched_authenticated_sessions", "scenarios.agreement", None),
    (scenarios, "key_slot_uniqueness_assertion", "scenarios.slot_unique", None),
    (attacks, "key_slot_uniqueness_assertion", "scenarios.slot_unique", None),
    (attacks.MitmKeyserver, "attack_drain_budget", "attacks.drain", None),
]


class Tracer:
    """In-memory span recorder; one per traced pass.

    Spans live in flat arrays (name id, start, end, parent, unit) rather than
    as Python objects, so that a few hundred thousand of them add no work to
    the garbage collector and no noise to the times they record.
    """

    def __init__(self):
        self.names: list = []      # name id -> span name
        self._name_ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_unit = array("q")
        self.counters: dict = {}
        self.unit = SETUP_UNIT
        self.paused = False
        self._stack: list = []
        self._active: dict = {}  # span name -> 1 while a span of it is open

    def __len__(self):
        return len(self.start)

    def name_of(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    @contextmanager
    def pause(self):
        """Run harness work (oracles, input codes) outside spans and counters."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, fn, name: str, observe=None):
        tracer = self
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        def traced(*args, **kwargs):
            # recursive calls (render_term) and paused harness work pass through
            if tracer.paused or tracer._active.get(name):
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.span_unit.append(tracer.unit)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer._active[name] = 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._active[name] = 0
                stack.pop()
            if observe is not None:
                observe(tracer, name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _paused(self, fn):
        def call(*args, **kwargs):
            with self.pause():
                return fn(*args, **kwargs)
        return call

    @contextmanager
    def patched(self):
        """Install every trace point; World.oracle runs paused.

        The oracle is the correctness reference, not protocol work, also
        where a scenario script calls it itself.
        """
        saved = []
        try:
            for owner, attr, name, observe in TRACE_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe))
            original = scenarios.World.__dict__["oracle"]
            saved.append((scenarios.World, "oracle", original))
            scenarios.World.oracle = self._paused(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, unit."""
        with open(path, "w") as fh:
            for span in zip(map(self.names.__getitem__, self.name_id),
                            self.start, self.end, self.parent, self.span_unit):
                fh.write(json.dumps(span) + "\n")


class SpanStats:
    """Per-name totals over a tracer's spans, optionally restricted to units."""

    def __init__(self, tracer: Tracer, units=None):
        child_time = [0.0] * len(tracer)
        for start, end, parent in zip(tracer.start, tracer.end, tracer.parent):
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(tracer.names)
        total = [0.0] * len(tracer.names)
        self_time = [0.0] * len(tracer.names)
        for i, (nid, start, end, unit) in enumerate(zip(
                tracer.name_id, tracer.start, tracer.end, tracer.span_unit)):
            if units is not None and unit not in units:
                continue
            dur = end - start
            calls[nid] += 1
            total[nid] += dur
            self_time[nid] += dur - child_time[i]
        self.calls = dict(zip(tracer.names, calls))
        self.total = dict(zip(tracer.names, total))
        self.self_time = dict(zip(tracer.names, self_time))

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def s(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names)


def exp_outside_hash(tracer: Tracer, i: int) -> bool:
    """Whether exponentiation span ``i`` lies outside hash-to-group.

    On the ``test`` backend hash-to-group is itself an exponentiation of the
    generator; on ``prod`` it is a squaring.  Leaving it out gives one count
    that means the same on both backends.
    """
    parent = tracer.parent[i]
    return parent < 0 or tracer.name_of(parent) != "crypto.hash_to_group"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quarter_units(order_units: list):
    q = max(1, len(order_units) // 4)
    return set(order_units[:q]), set(order_units[-q:])


def layer_metrics(tracer: Tracer, order_units: list, n_orders: int,
                  order_seqs: int, overhead_s: float) -> dict:
    """Every per-layer metric of the benchmark as ``name -> (value, unit)``.

    Totals cover the whole traced pass, set-up included; the per-sequence and
    per-order ratios count only the order (or scenario) units.
    """
    st = SpanStats(tracer)
    orders = SpanStats(tracer, set(order_units))
    first, last = _quarter_units(order_units)
    q1, q4 = SpanStats(tracer, first), SpanStats(tracer, last)
    c = tracer.counters
    m = {
        "crypto.exp.calls": (st.n("crypto.exp"), "count"),
        "crypto.exp.s": (st.s("crypto.exp"), "s"),
        "crypto.member.calls": (st.n("crypto.member"), "count"),
        "crypto.member.s": (st.s("crypto.member"), "s"),
        "crypto.exp_per_seq": (_ratio(orders.n("crypto.exp"), order_seqs),
                               "count/seq"),
        "crypto.member_per_seq": (_ratio(orders.n("crypto.member"), order_seqs),
                                  "count/seq"),
        "crypto.sign.calls": (st.n("crypto.sign"), "count"),
        "crypto.verify.calls": (st.n("crypto.verify"), "count"),
        "crypto.sig.s": (st.s("crypto.sign", "crypto.verify"), "s"),
        "crypto.aead.calls": (st.n("crypto.aead"), "count"),
        "crypto.aead.s": (st.s("crypto.aead"), "s"),
    }
    for fn in ("blind", "eval_share", "combine", "unblind"):
        m[f"doprf.{fn}.calls"] = (st.n(f"doprf.{fn}"), "count")
        m[f"doprf.{fn}.s"] = (st.s(f"doprf.{fn}"), "s")
    m.update({
        "channel.handshake.calls": (st.n("channel.handshake"), "count"),
        "channel.handshake.self_s": (st.self_time.get("channel.handshake", 0.0),
                                     "s"),
        "channel.record.calls": (st.n("channel.record"), "count"),
        "channel.record.bytes": (c.get("channel.record.bytes", 0), "B"),
        "channel.resume.ok_ratio": (_ratio(c.get("channel.resume.ok", 0),
                                           st.n("channel.resume")), "ratio"),
        "pki.validate_chain.calls": (st.n("pki.validate_chain"), "count"),
        "pki.validate_chain.s": (st.s("pki.validate_chain"), "s"),
        "pki.issue.s": (st.s("pki.issue"), "s"),
        "scep.client.s": (st.s("scep.client"), "s"),
        "scep.server.s": (st.s("scep.server"), "s"),
        "scep.ledger.checks": (st.n("scep.ledger"), "count"),
        "scep.ledger.allow_ratio": (_ratio(c.get("scep.ledger.true", 0),
                                           st.n("scep.ledger")), "ratio"),
        "scep.ledger.s": (st.s("scep.ledger"), "s"),
        "scep.ledger.q1_s": (q1.s("scep.ledger"), "s"),
        "scep.ledger.q4_s": (q4.s("scep.ledger"), "s"),
    })
    for phase in ("connect", "ks_round", "assemble", "blind_batch", "hdb_round",
                  "hdb_lookup", "build_hdb"):
        m[f"screening.{phase}.s"] = (st.s(f"screening.{phase}"), "s")
    m.update({
        "screening.connects_per_order": (
            _ratio(orders.n("screening.connect"), n_orders),
            "count/order"),
        "screening.auth_check.calls": (st.n("screening.auth_check"), "count"),
        "wire.pack.calls": (st.n("wire.pack"), "count"),
        "wire.unpack.calls": (st.n("wire.unpack"), "count"),
        "wire.s": (st.s("wire.pack", "wire.unpack"), "s"),
        "terms.render.s": (st.s("terms.render"), "s"),
        "simnet.transfer.calls": (st.n("simnet.transfer"), "count"),
        "simnet.transfer.bytes": (c.get("simnet.transfer.bytes", 0), "B"),
        "simnet.transfer.self_s": (st.self_time.get("simnet.transfer", 0.0),
                                   "s"),
        "simnet.bookkeeping.s": (st.s("simnet.bookkeeping"), "s"),
        "simnet.bookkeeping.q1_s": (q1.s("simnet.bookkeeping"), "s"),
        "simnet.bookkeeping.q4_s": (q4.s("simnet.bookkeeping"), "s"),
        "simnet.render.s": (st.s("simnet.render"), "s"),
        "closure.build.s": (st.s("closure.build"), "s"),
        "closure.items": (c.get("closure.build.items", 0), "count"),
        "closure.rounds": (st.n("closure.round"), "count"),
        "closure.add.new_ratio": (_ratio(c.get("closure.add.true", 0),
                                         st.n("closure.add")), "ratio"),
        "closure.probe.calls": (st.n("closure.probe"), "count"),
        "closure.probe.s": (st.s("closure.probe"), "s"),
        "scenarios.build_world.s": (st.s("scenarios.build_world"), "s"),
        "scenarios.secrecy.s": (st.s("scenarios.secrecy"), "s"),
        "scenarios.agreement.s": (st.s("scenarios.agreement"), "s"),
        "scenarios.slot_unique.s": (st.s("scenarios.slot_unique"), "s"),
        "attacks.drain.s": (st.s("attacks.drain"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m
