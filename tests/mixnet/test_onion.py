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
    """The forwarding driver wraps a whole wave through
    ``onion.wrap_many`` with the inter-layer ``TAG_FORWARD``; the bytes
    must equal the layering the driver used to spell out by hand,
    reproduced here verbatim."""

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

    def _driver_wrap(self, envelopes, forward_keys):
        """What ``ForwardingDriver.send_batch`` calls for its wave."""
        from repro.mixnet.network import TAG_FORWARD

        return onion.wrap_many(
            envelopes, forward_keys, self.BASE_ROUND + 1, TAG_FORWARD
        )

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_batched_wrap_bytes_match_the_handwritten_layering(self, hops):
        keys = self.KEYS[:hops]
        expected = self._legacy_wrap(keys, self.ENVELOPE, self.BASE_ROUND)
        assert self._driver_wrap([self.ENVELOPE], [keys]) == [expected]
        # One tag byte per layer still to peel.
        assert len(expected) == len(self.ENVELOPE) + hops
        # A wave: every message under its own path's keys.
        other_keys, other = keys[::-1], self.ENVELOPE[::-1]
        assert self._driver_wrap(
            [self.ENVELOPE, other, other], [keys, other_keys, keys]
        ) == [
            expected,
            self._legacy_wrap(other_keys, other, self.BASE_ROUND),
            self._legacy_wrap(keys, other, self.BASE_ROUND),
        ]

    def test_each_hop_reads_the_tag_first_after_its_peel(self):
        from repro.mixnet.network import TAG_FORWARD

        (body,) = self._driver_wrap([self.ENVELOPE], [self.KEYS])
        for j, key in enumerate(self.KEYS, start=1):
            body = onion.peel(key, self.BASE_ROUND + j, body)
            assert body[:1] == TAG_FORWARD
            body = body[1:]
        assert body == self.ENVELOPE

    def test_send_batch_goes_through_onion_wrap_many(self, monkeypatch):
        from repro.mixnet.forwarding import ForwardingDriver, SendRequest
        from repro.mixnet.network import TAG_FORWARD, MixnetWorld
        from repro.mixnet.telescope import TelescopeDriver
        from repro.params import SystemParameters

        params = SystemParameters(
            num_devices=10,
            hops=2,
            replicas=1,
            forwarder_fraction=0.4,
            degree_bound=2,
            pseudonyms_per_device=2,
        )
        world = MixnetWorld(
            params,
            num_devices=10,
            rng=random.Random(7),
            rsa_bits=512,
            pseudonyms_per_device=2,
        )
        destinations = [world.devices[d].identity.primary().handle for d in (5, 8)]
        paths = TelescopeDriver(world).setup_paths(
            [(0, 0, 0, destinations[0]), (3, 0, 0, destinations[1])]
        )
        assert all(path.established for path in paths.values())
        base_round = world.current_round
        calls = []
        real = onion.wrap_many

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(onion, "wrap_many", spy)
        ForwardingDriver(world).send_batch(
            [SendRequest(0, (0, 0), b"one"), SendRequest(3, (0, 0), b"two")],
            payload_bytes=16,
        )
        assert len(calls) == 1  # the whole wave, once
        envelopes, hop_keys, first_round, tag = calls[0]
        assert len(envelopes) == len(hop_keys) == 2
        assert all(len(keys) == params.hops for keys in hop_keys)
        assert (first_round, tag) == (base_round + 1, TAG_FORWARD)
        received = [world.devices[d].received for d in (5, 8)]
        assert [r[0].plaintext.rstrip(b"\x00") for r in received] == [b"one", b"two"]
