"""Onion wrapping/peeling unit tests (§3.2, §3.5)."""

import random

import pytest

from repro.errors import ProtocolError
from repro.mixnet import onion


class TestWireMessage:
    def test_roundtrip(self):
        pid = bytes(range(16))
        message = onion.WireMessage(pid, b"body")
        assert onion.WireMessage.decode(message.encode()) == message

    def test_bad_path_id_length(self):
        with pytest.raises(ProtocolError):
            onion.WireMessage(b"short", b"body").encode()

    def test_decode_too_short(self):
        with pytest.raises(ProtocolError):
            onion.WireMessage.decode(b"tiny")


class TestOnionLayers:
    KEYS = [bytes([i]) * 32 for i in range(1, 4)]

    def test_wrap_peel_roundtrip(self):
        payload = b"the innermost payload"
        body = onion.wrap(payload, self.KEYS, base_round=10)
        for offset, key in enumerate(self.KEYS):
            body = onion.peel(key, 10 + offset, body)
        assert body == payload

    def test_wrong_round_garbles(self):
        payload = b"payload"
        body = onion.wrap(payload, self.KEYS, base_round=10)
        peeled = onion.peel(self.KEYS[0], 11, body)
        peeled = onion.peel(self.KEYS[1], 11, peeled)
        peeled = onion.peel(self.KEYS[2], 12, peeled)
        assert peeled != payload

    def test_length_preserved(self):
        payload = b"x" * 100
        body = onion.wrap(payload, self.KEYS, base_round=0)
        assert len(body) == 100

    def test_reverse_unwrap(self):
        payload = b"reverse payload"
        # Hop 1 (nearest source) wrapped at round 9, hop 2 at round 8.
        body = payload
        from repro.crypto import aead

        body = aead.senc(self.KEYS[1], 8, body)
        body = aead.senc(self.KEYS[0], 9, body)
        recovered = onion.unwrap_reverse(body, self.KEYS[:2], base_round=9)
        assert recovered == payload

    def test_path_ids_unique(self):
        rng = random.Random(5)
        ids = {onion.new_path_id(rng) for _ in range(100)}
        assert len(ids) == 100

    def test_dummy_matches_length(self):
        assert len(onion.dummy_body(77)) == 77


class TestForwardingWrapIsOnionWrap:
    """The forwarding driver wraps through ``onion.wrap`` with the
    inter-layer ``TAG_FORWARD``; the bytes must equal the layering the
    driver used to spell out by hand, reproduced here verbatim."""

    KEYS = tuple(bytes([0xA0 + i]) * 32 for i in range(3))
    ENVELOPE = bytes(range(97)) + b"\x00\xff envelope tail"
    BASE_ROUND = 41

    def _legacy_wrap(self, forward_keys, envelope, base_round):
        from repro.crypto import aead
        from repro.mixnet.network import TAG_FORWARD

        body = TAG_FORWARD + envelope
        for j in range(len(forward_keys), 0, -1):
            body = aead.senc(forward_keys[j - 1], base_round + j, body)
            if j > 1:
                body = TAG_FORWARD + body
        return body

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_wrap_task_bytes_match_the_handwritten_layering(self, hops):
        from repro.mixnet.forwarding import _wrap_task

        keys = self.KEYS[:hops]
        expected = self._legacy_wrap(keys, self.ENVELOPE, self.BASE_ROUND)
        assert _wrap_task(self.BASE_ROUND, (keys, self.ENVELOPE)) == expected
        # One tag byte per layer still to peel.
        assert len(expected) == len(self.ENVELOPE) + hops

    def test_each_hop_reads_the_tag_first_after_its_peel(self):
        from repro.mixnet.forwarding import _wrap_task
        from repro.mixnet.network import TAG_FORWARD

        body = _wrap_task(self.BASE_ROUND, (self.KEYS, self.ENVELOPE))
        for j, key in enumerate(self.KEYS, start=1):
            body = onion.peel(key, self.BASE_ROUND + j, body)
            assert body[:1] == TAG_FORWARD
            body = body[1:]
        assert body == self.ENVELOPE

    def test_wrap_task_goes_through_onion_wrap(self, monkeypatch):
        from repro.mixnet import forwarding

        calls = []
        real = onion.wrap

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(onion, "wrap", spy)
        forwarding._wrap_task(self.BASE_ROUND, (self.KEYS, self.ENVELOPE))
        assert len(calls) == 1
