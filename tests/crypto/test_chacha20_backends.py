"""The one ChaCha20 keystream kernel, on both compute backends.

The pure backend runs the RFC 8439 block function; the NumPy backend
runs every block of a batch as one array computation.  Everything here
holds for both, byte for byte: the RFC vectors, a per-message reference
that never touches the seam, batches against singles, and the bytes a
seeded mixnet puts on the wire.  Without NumPy the same tests run on the
pure backend alone.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aead, chacha20
from repro.errors import AuthenticationError, CryptoError, ProtocolError
from repro.mixnet import onion
from repro.mixnet.forwarding import ForwardingDriver, SendRequest
from repro.mixnet.network import MixnetWorld
from repro.mixnet.telescope import TelescopeDriver
from repro.params import SystemParameters
from repro.runtime import available_backends, backends, use_backend

BACKENDS = available_backends()

RFC_KEY = bytes(range(32))
SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_backend(request.param) as active:
        yield active


def reference_xor(key, nonce, data, initial_counter):
    """RFC 8439 §2.4 spelled out: block by block, byte by byte, the
    counter wrapping at 2^32 as the block function wraps it."""
    out = bytearray()
    for start in range(0, len(data), chacha20.BLOCK_BYTES):
        block = chacha20.chacha20_block(
            key, initial_counter + start // chacha20.BLOCK_BYTES, nonce
        )
        out += bytes(x ^ y for x, y in zip(data[start : start + 64], block))
    return bytes(out)


class TestRfcVectors:
    def test_block_function(self, backend):
        """RFC 8439 §2.3.2."""
        nonce = bytes.fromhex("000000090000004a00000000")
        (block,) = backend.chacha20_keystreams([(RFC_KEY, nonce, 1, 1)])
        assert block == bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )

    def test_encryption(self, backend):
        """RFC 8439 §2.4.2."""
        nonce = bytes.fromhex("000000000000004a00000000")
        assert chacha20.chacha20_xor(RFC_KEY, nonce, SUNSCREEN, 1) == bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d"
        )

    def test_aead(self, backend):
        """RFC 8439 §2.8.2; the nonce read as a 96-bit round number."""
        key = bytes(range(0x80, 0xA0))
        round_number = int.from_bytes(bytes.fromhex("070000004041424344454647"), "big")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        sealed = aead.ae_seal(key, round_number, SUNSCREEN, aad)
        assert sealed == bytes.fromhex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691"
        )
        assert aead.ae_open(key, round_number, sealed, aad) == SUNSCREEN


LENGTHS = st.sampled_from([0, 1, 63, 64, 65, 8396])
COUNTERS = st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 7])
MESSAGES = st.lists(
    st.tuples(st.binary(min_size=32, max_size=32), st.binary(min_size=12, max_size=12), LENGTHS),
    max_size=5,
)


class TestBackendsAgree:
    @given(MESSAGES, COUNTERS, st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_pure_equals_numpy_equals_reference(self, messages, counter, seed):
        rng = random.Random(seed)
        items = [(key, nonce, rng.randbytes(size)) for key, nonce, size in messages]
        expected = [reference_xor(*item, counter) for item in items]
        for name in BACKENDS:
            with use_backend(name):
                assert chacha20.chacha20_xor_many(items, counter) == expected, name

    def test_counter_wraps_inside_one_stream(self, backend):
        request = [(RFC_KEY, bytes(12), 2**32 - 2, 4)]
        (stream,) = backend.chacha20_keystreams(request)
        assert stream == b"".join(
            chacha20.chacha20_block(RFC_KEY, counter, bytes(12))
            for counter in (2**32 - 2, 2**32 - 1, 0, 1)
        )

    def test_against_an_independent_implementation(self, backend):
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        rng = random.Random(97)
        for size, counter in [(1, 0), (64, 1), (65, 7), (8396, 1), (300, 2**32 - 5)]:
            key, nonce, data = rng.randbytes(32), rng.randbytes(12), rng.randbytes(size)
            theirs = ciphers.Cipher(
                # Their 16-byte nonce is our counter, little-endian, then
                # nonce.  No case crosses 2^32: what a library does with
                # the counter there is its own choice (RFC 8439 wraps).
                ciphers.algorithms.ChaCha20(key, counter.to_bytes(4, "little") + nonce),
                mode=None,
            ).encryptor()
            assert chacha20.chacha20_xor(key, nonce, data, counter) == theirs.update(data)


class TestBatchEqualsSingles:
    KEYS = [bytes([i]) * 32 for i in range(1, 5)]
    BODIES = [b"", b"x", bytes(range(200)), b"y" * 64, b"tail" * 33]

    def test_chacha20_xor_many(self, backend):
        items = [
            (self.KEYS[i % 4], bytes([i]) * 12, body)
            for i, body in enumerate(self.BODIES)
        ]
        for counter in (0, 1, 2**32 - 1):
            assert chacha20.chacha20_xor_many(items, counter) == [
                chacha20.chacha20_xor(*item, counter) for item in items
            ]
        assert chacha20.chacha20_xor_many([]) == []

    def test_senc_many_and_ae_seal_many(self, backend):
        items = [(self.KEYS[i % 4], 40 + i, body) for i, body in enumerate(self.BODIES)]
        assert aead.senc_many(items) == [aead.senc(*item) for item in items]
        assert aead.ae_seal_many(items) == [aead.ae_seal(*item) for item in items]

    def test_ae_open_many(self, backend):
        """A mixed wave: every good item equals the single ``ae_open``;
        a forged tag, a short message and a wrong round are None, each
        for its own item only."""
        items = [(self.KEYS[i % 4], 40 + i, body) for i, body in enumerate(self.BODIES)]
        sealed = [(key, r, aead.ae_seal(key, r, body)) for key, r, body in items]
        forged = bytearray(sealed[2][2])
        forged[-1] ^= 1
        wave = [
            sealed[0],
            (*sealed[2][:2], bytes(forged)),
            sealed[1],
            (self.KEYS[0], 40, b"short"),
            (sealed[3][0], sealed[3][1] + 1, sealed[3][2]),
            *sealed[2:],
        ]
        assert aead.ae_open_many(wave) == [
            aead.ae_open(*sealed[0]),
            None,
            self.BODIES[1],
            None,
            None,
            *self.BODIES[2:],
        ]
        assert aead.ae_open_many([]) == []

    def test_wrap_many(self, backend):
        for depth in range(4):
            hop_keys = [self.KEYS[i % 2 : i % 2 + depth] for i in range(5)]
            assert onion.wrap_many(self.BODIES, hop_keys, 17, b"F") == [
                onion.wrap(body, keys, 17, b"F")
                for body, keys in zip(self.BODIES, hop_keys)
            ]
        assert onion.wrap_many(self.BODIES, [[]] * 5, 17, b"F") == self.BODIES
        assert onion.wrap_many([], [], 17) == []

    def test_wrap_many_refuses_paths_of_different_depth(self, backend):
        with pytest.raises(ProtocolError):
            onion.wrap_many([b"a", b"b"], [self.KEYS[:2], self.KEYS[:1]], 17)


class TestAuthenticatedEncryption:
    KEY = bytes(range(32))

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 8396])
    def test_round_trip(self, backend, size):
        plaintext = random.Random(size).randbytes(size)
        sealed = aead.ae_seal(self.KEY, 9, plaintext, aad=b"path")
        assert len(sealed) == size + 16
        assert aead.ae_open(self.KEY, 9, sealed, aad=b"path") == plaintext

    def test_tag_failure_comes_before_any_plaintext(self, backend, monkeypatch):
        sealed = bytearray(aead.ae_seal(self.KEY, 9, b"attack at dawn" * 9))
        sealed[5] ^= 1
        decrypted = []
        monkeypatch.setattr(
            aead, "xor_bytes", lambda *args: decrypted.append(args) or b""
        )
        with pytest.raises(AuthenticationError):
            aead.ae_open(self.KEY, 9, bytes(sealed))
        assert decrypted == []

    def test_ae_open_many_checks_every_tag_before_any_plaintext(
        self, backend, monkeypatch
    ):
        sealed = aead.ae_seal(self.KEY, 9, b"attack at dawn" * 9)
        forged = sealed[:5] + bytes([sealed[5] ^ 1]) + sealed[6:]
        decrypted = []
        monkeypatch.setattr(
            aead, "xor_bytes", lambda *args: decrypted.append(args) or b""
        )
        wave = [(self.KEY, 9, forged), (self.KEY, 10, sealed), (self.KEY, 9, b"")]
        assert aead.ae_open_many(wave) == [None, None, None]
        assert decrypted == []

    def test_one_cipher_call_per_operation(self, backend, monkeypatch):
        calls = []
        real = backends.chacha20_keystreams

        def spy(streams):
            calls.append([(first, blocks) for _, _, first, blocks in streams])
            return real(streams)

        monkeypatch.setattr(backends, "chacha20_keystreams", spy)
        sealed = aead.ae_seal(self.KEY, 3, b"m" * 65)
        aead.ae_open(self.KEY, 3, sealed)
        aead.ae_seal_many([(self.KEY, 3, b"m" * 65), (self.KEY, 4, b"")])
        aead.ae_open_many([(self.KEY, 3, sealed), (self.KEY, 3, b"short")])
        # Counter 0 keys Poly1305; the message starts at counter 1.  A
        # message shorter than a tag asks for no keystream.
        assert calls == [[(0, 3)], [(0, 3)], [(0, 3), (0, 1)], [(0, 3)]]


class TestPrefetch:
    """A keystream depends on key, nonce and counter only, so a block
    that computes a wave's keystreams ahead serves every call inside it
    from one request, with the bytes of calls made outside it."""

    KEY = bytes(range(32))

    @pytest.fixture
    def requests(self, monkeypatch):
        calls = []
        real = backends.chacha20_keystreams

        def spy(streams):
            calls.append([(n[-1], first, blocks) for _, n, first, blocks in streams])
            return real(streams)

        monkeypatch.setattr(backends, "chacha20_keystreams", spy)
        return calls

    def test_calls_inside_are_served_from_one_request(self, backend, requests):
        sealed = aead.ae_seal(self.KEY, 5, b"m" * 70)
        expected = [sealed, b"m" * 70, aead.senc(self.KEY, 6, b"z" * 130)]
        requests.clear()
        with chacha20.prefetch(
            [
                aead.ae_stream(self.KEY, 5, 70),
                aead.senc_stream(self.KEY, 6, 130),
                aead.senc_stream(self.KEY, 6, 1),
            ]
        ):
            assert [
                aead.ae_seal(self.KEY, 5, b"m" * 70),
                aead.ae_open(self.KEY, 5, sealed),
                aead.senc(self.KEY, 6, b"z" * 130),
            ] == expected
        # One request; a stream asked for twice is computed at its longest.
        assert requests == [[(5, 0, 3), (6, 1, 3)]]

    def test_what_was_not_prefetched_goes_to_the_backend(self, backend, requests):
        calls = [
            (self.KEY, bytes(12), b"y" * 64, 1),  # prefetched
            (self.KEY, bytes(12), b"y" * 200, 1),  # longer than prefetched
            (self.KEY, bytes(11) + b"\x01", b"y", 1),  # another nonce
            (self.KEY, bytes(12), b"y", 0),  # another counter
        ]
        expected = [chacha20.chacha20_xor(*call) for call in calls]
        requests.clear()
        with chacha20.prefetch([(self.KEY, bytes(12), 1, 1)]):
            assert [chacha20.chacha20_xor(*call) for call in calls] == expected
        assert requests == [[(0, 1, 1)], [(0, 1, 4)], [(1, 1, 1)], [(0, 0, 1)]]

    def test_bad_streams_are_refused_before_any_request(self, backend, requests):
        requests.clear()
        for stream in [(b"short", bytes(12), 1, 1), (self.KEY, bytes(8), 1, 1)]:
            with pytest.raises(CryptoError):
                with chacha20.prefetch([(self.KEY, bytes(12), 1, 1), stream]):
                    pass
        assert requests == []


class TestTypedRefusals:
    """Bad keys, nonces and round numbers are ``CryptoError`` on every
    entry point, raised before any keystream is computed."""

    KEY = bytes(32)
    NONCE = bytes(12)

    @pytest.fixture(autouse=True)
    def no_keystream(self, monkeypatch):
        def refuse(streams):
            raise AssertionError("keystream requested for invalid input")

        monkeypatch.setattr(backends, "chacha20_keystreams", refuse)

    @pytest.mark.parametrize("data", [b"", b"data"])
    def test_key_and_nonce_lengths(self, data):
        with pytest.raises(CryptoError):
            chacha20.chacha20_xor(b"short", self.NONCE, data)
        with pytest.raises(CryptoError):
            chacha20.chacha20_xor(self.KEY, b"\x00" * 8, data)
        good = (self.KEY, self.NONCE, b"payload")
        with pytest.raises(CryptoError):
            chacha20.chacha20_xor_many([good, (b"short", self.NONCE, data)])
        with pytest.raises(CryptoError):
            chacha20.chacha20_xor_many([good, (self.KEY, b"\x00" * 13, data)])

    @pytest.mark.parametrize("round_number", [-1, 2**96])
    def test_round_numbers_outside_the_nonce(self, round_number):
        with pytest.raises(CryptoError):
            aead.nonce_from_round(round_number)
        for single in (aead.senc, aead.ae_seal):
            with pytest.raises(CryptoError):
                single(self.KEY, round_number, b"data")
        with pytest.raises(CryptoError):
            aead.ae_open(self.KEY, round_number, bytes(20))
        for many in (aead.senc_many, aead.ae_seal_many, aead.ae_open_many):
            with pytest.raises(CryptoError):
                many([(self.KEY, 1, b"data"), (self.KEY, round_number, b"")])
        with pytest.raises(CryptoError):
            onion.wrap_many([b"a", b"b"], [[self.KEY], [self.KEY]], round_number)

    def test_aead_key_length(self):
        for call in (
            lambda: aead.senc(b"short", 1, b""),
            lambda: aead.ae_seal(b"short", 1, b""),
            lambda: aead.ae_open(b"short", 1, bytes(16)),
            lambda: aead.senc_many([(b"short", 1, b"")]),
            lambda: aead.ae_seal_many([(self.KEY, 1, b"x"), (b"short", 1, b"")]),
            lambda: aead.ae_open_many([(self.KEY, 1, bytes(16)), (b"short", 1, b"")]),
        ):
            with pytest.raises(CryptoError):
                call()

    def test_largest_round_number_is_accepted(self):
        assert aead.nonce_from_round(2**96 - 1) == b"\xff" * 12


#: SHA-256 over the deposit log of :func:`wire_digest`'s world, computed
#: at the commit before the batched kernel existed (per-byte XOR, one
#: block function call per block, one onion wrap per fabric task).
PARENT_WIRE_DIGEST = "abf95d691511c6f74d9058748db9fbcb574fa4d808352bf6520a5110c6547f6b"


def wire_digest():
    """Telescope three 2-hop paths on a seeded 12-device world, push one
    ``send_batch`` wave of multi-block envelopes over them, and hash
    every byte any device deposited."""
    params = SystemParameters(
        num_devices=12,
        hops=2,
        replicas=1,
        forwarder_fraction=0.4,
        degree_bound=2,
        pseudonyms_per_device=2,
    )
    world = MixnetWorld(
        params,
        num_devices=12,
        rng=random.Random(23),
        rsa_bits=512,
        pseudonyms_per_device=2,
    )

    def handle(device_id):
        return world.devices[device_id].identity.primary().handle

    paths = TelescopeDriver(world).setup_paths(
        [(0, 0, 0, handle(5)), (3, 0, 0, handle(9)), (7, 0, 0, handle(2))]
    )
    assert all(path.established for path in paths.values())
    sent = ForwardingDriver(world).send_batch(
        [
            SendRequest(0, (0, 0), b"are you ill?"),
            SendRequest(3, (0, 0), bytes(range(256)) * 2),
            SendRequest(7, (0, 0), b""),
        ],
        payload_bytes=700,
    )
    assert all(sent.values())
    assert sum(len(device.received) for device in world.devices.values()) == 3
    digest = hashlib.sha256()
    for round_number, depositor, mailbox, data in world.deposit_log:
        digest.update(repr((round_number, depositor, mailbox)).encode())
        digest.update(len(data).to_bytes(4, "big") + data)
    return digest.hexdigest(), len(world.deposit_log)


def test_wire_bytes_equal_the_parent_commit(backend):
    assert wire_digest() == (PARENT_WIRE_DIGEST, 33)
