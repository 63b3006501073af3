"""Each message's formal term encodes to exactly the bytes on the wire."""

from dnascreen import attacks, channel, scep, screening, terms, wire
from dnascreen.simnet import SimNetwork, _classify
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


# The one message whose bytes are not its term's encoding.
def _scep_hello(payload: Payload) -> bool:
    # r_S goes out without a length prefix
    parts = getattr(payload.term, "parts", ())
    return bool(parts) and getattr(parts[0], "kind", "") == "nonce"


EXCEPTIONS = {"scep-hello": _scep_hello}


def test_every_shipped_message_is_its_terms_encoding(monkeypatch):
    checked, excepted = [], {name: 0 for name in EXCEPTIONS}

    def check(payload):
        if isinstance(payload, bytes):
            return  # sent as an opaque blob, which encodes to itself
        for name, matches in EXCEPTIONS.items():
            if matches(payload):
                assert terms.encode(payload.term) != payload.data, name
                excepted[name] += 1
                return
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
        if _classify(payload.data)[0] != "record":
            check(payload)
        return original_transfer(self, conn, direction, payload)

    monkeypatch.setattr(SimNetwork, "transfer", checked_transfer)

    for run in attacks.all_scenarios().values():
        run(1)
    assert len(checked) > 500
    assert all(excepted.values()), excepted

