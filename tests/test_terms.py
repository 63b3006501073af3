"""Each message's formal term encodes to exactly the bytes on the wire."""

import pytest

from dnascreen import attacks, channel, scep, screening, terms, wire
from dnascreen.simnet import Event, SimNetwork
from dnascreen.terms import Payload


def test_encode_nested_cat_sealed_and_exp_terms():
    base = terms.element_atom(b"\x00\x00\x00\x05")
    blinded = terms.ExpTerm(base, (("scalar:ab", 1),), b"\x00\x00\x00\x09")
    sealed = terms.Sealed("key:cd", 3, terms.blob(b"inner"), b"ciphertext")
    term = terms.cat(terms.blob(b"tag", "text"),
                     terms.cat(blinded, terms.cat()),
                     sealed, terms.nonce(b""))
    assert terms.encode(term) == wire.pack_fields(
        b"tag", wire.pack_fields(b"\x00\x00\x00\x09", b""), b"ciphertext", b"")
    assert terms.encode(sealed) == b"ciphertext"
    assert terms.encode(blinded) == blinded.data
    assert Payload.of(term) == Payload(terms.encode(term), term)


def test_every_shipped_message_is_its_terms_encoding(monkeypatch):
    checked = []

    def check(payload):
        if isinstance(payload, bytes):
            return  # sent as an opaque blob, which encodes to itself
        assert terms.encode(payload.term) == payload.data, \
            terms.render_term(payload.term)
        checked.append(payload)

    original_send = channel.channel_send

    def checked_send(session, payload):
        check(payload)
        return original_send(session, payload)

    for mod in (channel, scep, screening, attacks):
        monkeypatch.setattr(mod, "channel_send", checked_send)

    original_transfer = SimNetwork.transfer

    def checked_transfer(self, conn, direction, payload):
        if not isinstance(payload.term, terms.Sealed):
            check(payload)
        return original_transfer(self, conn, direction, payload)

    monkeypatch.setattr(SimNetwork, "transfer", checked_transfer)

    for run in attacks.all_scenarios().values():
        run(1)
    assert len(checked) > 500


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
        assert terms.encode(ev.term) == ev.data[13:]
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
    Payload.opaque(b"x"),
    Event(step=0, clock=0, kind="note", link="-", conn=0, direction="-",
          seq=None, data=b""),
], ids=lambda obj: type(obj).__name__)
def test_events_and_terms_keep_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
