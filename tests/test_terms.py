"""A message is its term: every term reads its wire bytes as ``.data``."""

import pytest

from dnascreen import attacks, terms, wire
from dnascreen.screening import ServerConnection
from dnascreen.simnet import Event


def test_encode_nested_cat_sealed_and_exp_terms():
    base = terms.element_atom(b"\x00\x00\x00\x05")
    blinded = terms.ExpTerm(base, (("scalar:ab", 1),), b"\x00\x00\x00\x09")
    sealed = terms.Sealed("key:cd", 3, terms.blob(b"inner"), b"ciphertext")
    term = terms.cat(terms.blob(b"tag", "text"),
                     terms.cat(blinded, terms.cat()),
                     sealed, terms.nonce(b""))
    assert term.data == wire.pack_fields(
        b"tag", wire.pack_fields(b"\x00\x00\x00\x09", b""), b"ciphertext", b"")
    assert sealed.data == sealed.ct == b"ciphertext"
    # a record's Sealed is the whole frame; its ciphertext follows the header
    record = terms.Sealed("key:cd", 0, term, b"header" + b"ciphertext", 6)
    assert record.ct == b"ciphertext"
    # a Cat packs its bytes on each read and stores none
    assert terms.Cat.__slots__ == ("parts",)


def test_every_opened_request_is_its_senders_term(monkeypatch):
    # a server parses the plaintext it opened and hands its handler the term
    # the sender sealed: on every record of every shipped scenario they agree
    opened = []

    def checking(method):
        def wrapper(conn, plaintext, term):
            assert plaintext == term.data, terms.render_term(term)
            opened.append((conn.role.name, plaintext))
            return method(conn, plaintext, term)
        return wrapper

    for cls in (ServerConnection, attacks._MitmConnection):
        monkeypatch.setattr(cls, "_scep_step", checking(cls._scep_step))
    monkeypatch.setattr(ServerConnection, "_request",
                        checking(ServerConnection._request))

    checked = relayed = 0
    for run in attacks.all_scenarios().values():
        opened.clear()
        world = run(1).world
        checked += len(opened)
        mitm = world.keyservers["K1"]
        if isinstance(mitm, attacks.MitmKeyserver):
            # the relay's target opens the very hello the relay received
            hello = next(p for name, p in opened if name == mitm.name)
            assert (mitm.target, hello) in opened
            relayed += 1
    assert relayed == 2
    assert checked > 300


@pytest.fixture(scope="module")
def shipped_transcripts():
    """The transcript of every shipped scenario at one seed, kept alive."""
    return [run(2).world.net.transcript
            for run in attacks.all_scenarios().values()]


def test_a_records_term_shares_its_events_frame(shipped_transcripts):
    # the ciphertext is held once: in the frame the event keeps
    records = [ev for t in shipped_transcripts for ev in t.records()]
    for ev in records:
        assert isinstance(ev.term, terms.Sealed)
        assert ev.term.data is ev.data
        assert ev.term.ct == ev.data[13:]
    assert len(records) > 500


def _atoms(term):
    if isinstance(term, terms.Cat):
        for part in term.parts:
            yield from _atoms(part)
    elif isinstance(term, terms.Sealed):
        yield from _atoms(term.inner)
    elif isinstance(term, terms.Atom):
        yield term


def test_fixed_tags_are_one_atom_each(shipped_transcripts):
    tags = {b"client-hello", b"server-hello", b"client-kex", b"server-fin",
            b"ks-eval", b"ks-eval-ok", b"hdb-query", b"auth-verify",
            b"resume", b"error"}
    seen = {}
    for transcript in shipped_transcripts:
        for ev in transcript.events:
            for atom in _atoms(ev.term):
                if atom.kind == "text" and atom.data in tags:
                    seen.setdefault(atom.data, set()).add(id(atom))
    assert set(seen) == tags
    assert all(len(ids) == 1 for ids in seen.values()), {
        tag: len(ids) for tag, ids in seen.items()}


@pytest.mark.parametrize("obj", [
    terms.blob(b"x"),
    terms.cat(),
    terms.Sealed("key:cd", 0, terms.cat(), b"ct"),
    terms.ExpTerm(terms.element_atom(b"\x05"), (), b"\x05"),
    Event(step=0, clock=0, kind="note", link="-", conn=0, direction="-",
          seq=None, data=b""),
], ids=lambda obj: type(obj).__name__)
def test_events_and_terms_keep_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
