"""Deterministic simulated network with a byte-level adversary tap API.

Every message between roles crosses ``SimNetwork.transfer``, where tap rules
may capture, drop, or replace it before delivery. Equal (config, script,
seed) yields byte-identical transcripts: all randomness flows from one
seeded generator, the clock only moves when told to, and roles run strictly
one event at a time (nested dials included).

Messages cross the network as terms (``terms``): a message's wire bytes are
its ``data``, and a record is the ``Sealed`` term ``channel_send`` framed.
Delivery hands the receiver the message; a server parses its bytes, and
pairs a record's opened plaintext with the term its sender sealed
(``screening.ServerConnection.handle``).

The transcript is the network's one log: the adversary's closure reads the
terms its events keep (``Event.term``, never rendered), notes are its
``note`` events, and record slots are read off each record's ``Sealed`` term.
An event keeps the bytes that crossed the wire, the term the adversary read
there and a rendered ``view``; a record's ``Sealed`` term shares the event's
frame rather than a copy of its ciphertext. The transcript's text is rendered
only when ``Transcript.render`` is called, never kept.

Tap selectors address messages as ``link:direction:conn:slot`` where slot is
``rN`` (record with wire sequence N) or ``mN`` (Nth message on that
connection and direction, 0-based), e.g. ``S->H:s2c:1:r1``.
"""

import random
import weakref
from dataclasses import dataclass

from . import terms
from .channel import ChannelSession
from .errors import MessageDropped, ScreeningError, ScriptError

CLOCK_START = 1_000_000_000


@dataclass(slots=True)
class Event:
    step: int
    clock: int
    kind: str  # hs | record | resume | reply | note | clock | adv | inject
    link: str
    conn: int
    direction: str  # c2s | s2c | -
    seq: int | None
    data: bytes
    note: str = ""
    sender: str = "-"
    receiver: str = "-"
    view: str = ""  # structural view of the message, decrypted where known
    term: object = None  # what the adversary read here; not rendered

    def render(self) -> str:
        seq = "-" if self.seq is None else str(self.seq)
        return (f"step={self.step:05d} t={self.clock} kind={self.kind} "
                f"link={self.link} conn={self.conn} "
                f"from={self.sender} to={self.receiver} "
                f"dir={self.direction} seq={seq} len={len(self.data)} "
                f"data={self.data.hex()} view={self.view} note={self.note}")


class Transcript:
    def __init__(self):
        self.events: list[Event] = []

    def add(self, **kw) -> Event:
        ev = Event(step=len(self.events), **kw)
        self.events.append(ev)
        return ev

    def render(self) -> str:
        return "\n".join(ev.render() for ev in self.events) + "\n"

    def records(self):
        return [ev for ev in self.events if ev.kind == "record"]


@dataclass(frozen=True)
class Selector:
    link: str
    direction: str
    conn: int
    rec_seq: int | None = None
    nth: int | None = None

    @classmethod
    def parse(cls, text: str) -> "Selector":
        try:
            link, direction, conn, slot = text.rsplit(":", 3)
            if direction not in ("c2s", "s2c"):
                raise ValueError("bad direction")
            if slot.startswith("r"):
                return cls(link, direction, int(conn), rec_seq=int(slot[1:]))
            if slot.startswith("m"):
                return cls(link, direction, int(conn), nth=int(slot[1:]))
            raise ValueError("slot must be rN or mN")
        except (ValueError, IndexError) as e:
            raise ScriptError(f"bad selector {text!r}: {e}") from None

    def matches(self, link: str, direction: str, conn: int,
                rec_seq: int | None, nth: int) -> bool:
        if (link, direction, conn) != (self.link, self.direction, self.conn):
            return False
        if self.rec_seq is not None:
            return rec_seq == self.rec_seq
        return nth == self.nth


@dataclass
class TapRule:
    selector: Selector
    action: str  # capture | replace | replace-hex | drop
    name: str = ""
    data: bytes = b""
    fired: bool = False


class Conn:
    """Client handle for one connection; each send is one network round trip."""

    def __init__(self, net: "SimNetwork", src: str, dst: str, handler,
                 index: int):
        self.net = weakref.proxy(net)  # the network keeps its last Conn
        self.src = src
        self.dst = dst
        self.handler = handler
        self.link = f"{src}->{dst}"
        self.index = index
        self.msg_count = {"c2s": 0, "s2c": 0}

    def send(self, msg) -> bytes | None:
        """Deliver a message (plain bytes go as a blob); the reply's bytes."""
        if isinstance(msg, bytes):
            msg = terms.blob(msg)
        delivered = self.net.transfer(self, "c2s", msg)
        if delivered is None:
            raise MessageDropped(f"message on {self.link} dropped in transit")
        reply = self.handler.handle(delivered)
        if reply is None:
            return None
        back = self.net.transfer(self, "s2c", reply)
        if back is None:
            raise MessageDropped(f"reply on {self.link} dropped in transit")
        return back.data


class SimNetwork:
    """Roles, clock, transcript, taps, and the adversary's bookkeeping."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.clock = CLOCK_START
        self.transcript = Transcript()
        self.roles = {}
        self.corrupt: set[str] = set()
        self.taps: list[TapRule] = []
        self.captured: dict = {}  # name -> the message captured
        self._conn_counts: dict[str, int] = {}
        self._last_conn: dict[str, Conn] = {}
        # Adversary view and scenario bookkeeping.
        self.initial_knowledge: list = []
        self.client_sessions: list = []
        self.server_sessions: dict = {}  # ScepServerSession -> entry
        self.secrets: list = []

    # -- clock --

    def now(self) -> int:
        return self.clock

    def advance_clock(self, seconds: int):
        if seconds < 0:
            raise ScriptError("the clock only moves forward")
        self.clock += seconds
        self.transcript.add(clock=self.clock, kind="clock", link="-", conn=0,
                            direction="-", seq=None, data=b"",
                            note=f"advance {seconds}s")

    # -- roles and connections --

    def register_role(self, role, corrupt: bool = False):
        self.roles[role.name] = role
        role.net = weakref.proxy(self)  # the network keeps its roles
        if corrupt:
            self.corrupt.add(role.name)
            for atom in role.long_term_key_atoms():
                self.add_initial_knowledge(atom, f"long-term key of {role.name}")

    def dial(self, src: str, dst: str) -> Conn:
        if dst not in self.roles:
            raise ScriptError(f"undeclared role {dst!r}")
        handler = self.roles[dst].open_connection()
        index = self._conn_counts.get(f"{src}->{dst}", 0)
        self._conn_counts[f"{src}->{dst}"] = index + 1
        conn = Conn(self, src, dst, handler, index)
        self._last_conn[conn.link] = conn
        return conn

    # -- transfer with taps --

    def transfer(self, conn: Conn, direction: str, msg):
        """The message delivered in place of ``msg``, or None if dropped."""
        # a record is the Sealed term that channel_send framed
        if isinstance(msg, terms.Sealed):
            kind, rec_seq = "record", msg.seq
        else:
            kind, rec_seq = "hs", None
        nth = conn.msg_count[direction]
        conn.msg_count[direction] += 1

        delivered = msg
        note = ""
        for rule in self.taps:
            if rule.fired or not rule.selector.matches(
                    conn.link, direction, conn.index, rec_seq, nth):
                continue
            rule.fired = True
            if rule.action == "capture":
                self.captured[rule.name] = msg
                note = f"captured as {rule.name}"
            elif rule.action == "replace":
                if rule.name not in self.captured:
                    raise ScriptError(f"nothing captured as {rule.name!r}")
                delivered = self.captured[rule.name]
                note = f"replaced with {rule.name}"
            elif rule.action == "replace-hex":
                delivered = terms.blob(rule.data)
                note = "replaced with injected bytes"
            elif rule.action == "drop":
                delivered = None
                note = "dropped"

        sender, receiver = ((conn.src, conn.dst) if direction == "c2s"
                            else (conn.dst, conn.src))
        self.transcript.add(clock=self.clock, kind=kind, link=conn.link,
                            conn=conn.index, direction=direction, seq=rec_seq,
                            data=msg.data, note=note,
                            sender=sender, receiver=receiver,
                            view=terms.render_term(msg),
                            # the adversary reads everything entering the network
                            term=msg)
        if delivered is not msg and delivered is not None:
            self.transcript.add(clock=self.clock, kind="adv", link=conn.link,
                                conn=conn.index, direction=direction,
                                seq=rec_seq, data=delivered.data,
                                note="delivered in place of the original",
                                sender="adversary", receiver=receiver,
                                view=terms.render_term(delivered))
        if delivered is None:
            self.transcript.add(clock=self.clock, kind="adv", link=conn.link,
                                conn=conn.index, direction=direction,
                                seq=rec_seq, data=b"", note="dropped",
                                sender="adversary", receiver=receiver)
        return delivered

    def inject(self, link: str, data: bytes):
        """Deliver raw bytes to the server side of the latest connection."""
        src, _, dst = link.partition("->")
        if dst not in self.roles:
            raise ScriptError(f"undeclared role {dst!r}")
        conn = self._last_conn.get(link)
        if conn is None:
            raise ScriptError(f"no live connection on {link}")
        msg = terms.blob(data)
        self.transcript.add(clock=self.clock, kind="inject", link=link,
                            conn=conn.index, direction="c2s",
                            seq=None, data=data, note="adversary injection",
                            term=msg)
        try:
            conn.handler.handle(msg)
        except ScreeningError as e:  # typed rejections are noted, not raised
            self.note(f"injection rejected: {type(e).__name__}")

    # -- adversary bookkeeping --

    def add_tap(self, rule: TapRule):
        self.taps.append(rule)

    def add_initial_knowledge(self, atom, why: str):
        self.initial_knowledge.append((atom, why))

    def register_channel(self, role_name: str, session: ChannelSession):
        """A corrupt role's session keys join the adversary's knowledge."""
        if role_name in self.corrupt:
            self.add_initial_knowledge(terms.key_atom(session.client_write),
                                       f"session key held by {role_name}")
            self.add_initial_knowledge(terms.key_atom(session.server_write),
                                       f"session key held by {role_name}")

    def record_client_session(self, client: str, server: str, scep_session):
        self.client_sessions.append({"client": client, "server": server,
                                     "agreed": scep_session.agreed()})

    def record_server_session(self, server: str, scep_session):
        self.server_sessions[scep_session] = {
            "server": server, "session": scep_session, "auth": None}

    def record_server_authenticated(self, scep_session, auth):
        """Mark the session recorded at respond time as authenticated, and
        record what it agreed on as a client session's is."""
        entry = self.server_sessions[scep_session]
        entry["auth"] = auth
        entry["agreed"] = scep_session.agreed()

    def honest_authenticated_sessions(self):
        """(index, entry) of each authenticated session at an honest server.

        The index counts every recorded session; corruption precedes them all.
        """
        for i, entry in enumerate(self.server_sessions.values()):
            if entry["auth"] is not None and entry["server"] not in self.corrupt:
                yield i, entry

    def add_secret(self, name: str, *, data: bytes = b"", label: str = ""):
        self.secrets.append({"name": name, "data": data, "label": label})

    def note(self, msg: str):
        self.transcript.add(clock=self.clock, kind="note", link="-", conn=0,
                            direction="-", seq=None, data=b"", note=msg)

    @property
    def notes(self) -> list[str]:
        return [ev.note for ev in self.transcript.events if ev.kind == "note"]

    # -- post-run checks --

    def record_key_slots(self) -> list:
        """(sender's write-key label, direction, seq) of every record."""
        return [(ev.term.key_label, ev.direction, ev.seq)
                for ev in self.transcript.records()]
