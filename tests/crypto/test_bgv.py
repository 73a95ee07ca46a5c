"""BGV correctness, homomorphism, noise-soundness, and budget tests."""

import dataclasses
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import bgv, noise
from repro.crypto.polyring import RingElement, RingParams
from repro.errors import CryptoError, NoiseBudgetExceeded, ParameterError
from repro.params import PAPER, SMALL, TEST
from repro.runtime.backends import Resident, use_backend


def _nonzero_coeffs(plain):
    return {i: c for i, c in enumerate(plain.coeffs) if c}


class TestEncryptDecrypt:
    def test_monomial_roundtrip(self, public_key, secret_key, rng):
        ct = bgv.encrypt_monomial(public_key, 7, rng)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, ct)) == {7: 1}

    @given(st.integers(min_value=0, max_value=TEST.n - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_exponent_roundtrip(self, public_key, secret_key, exponent):
        rng = random.Random(exponent)
        ct = bgv.encrypt_monomial(public_key, exponent, rng)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, ct)) == {exponent: 1}

    def test_general_polynomial_roundtrip(self, public_key, secret_key, rng):
        m = RingElement.from_coeffs(TEST.plaintext_ring, [3, 0, 5, 1000])
        (ct,) = bgv.encrypt(public_key, [m], rng)
        assert bgv.decrypt(secret_key, ct).coeffs == m.coeffs

    def test_exponent_out_of_range(self, public_key, rng):
        with pytest.raises(ParameterError):
            bgv.encrypt_monomial(public_key, TEST.n, rng)

    def test_randomness_from_another_ring_is_refused(self, public_key, rng):
        other = RingParams(TEST.n, SMALL.q)
        fresh = bgv.EncryptionRandomness.generate(TEST, rng)
        for field in ("e0", "e1"):
            foreign = dataclasses.replace(fresh, **{field: RingElement.zero(other)})
            with pytest.raises(ParameterError):
                bgv.encrypt(public_key, [bgv.monomial(TEST, 1)], rng, randomness=[foreign])

    def test_fresh_ciphertext_metadata(self, public_key, rng):
        ct = bgv.encrypt_monomial(public_key, 1, rng)
        assert ct.degree == 1
        assert ct.fresh_factors == 1

    def test_wrong_key_garbles(self, public_key, rng):
        other_sk, _ = bgv.keygen(TEST, random.Random(999))
        ct = bgv.encrypt_monomial(public_key, 7, rng)
        assert _nonzero_coeffs(bgv.decrypt(other_sk, ct)) != {7: 1}


class TestHomomorphism:
    def test_multiply_adds_exponents(self, public_key, secret_key, rng):
        a = bgv.encrypt_monomial(public_key, 3, rng)
        b = bgv.encrypt_monomial(public_key, 4, rng)
        prod = bgv.multiply(a, b)
        assert prod.degree == 2
        assert _nonzero_coeffs(bgv.decrypt(secret_key, prod)) == {7: 1}

    def test_add_accumulates_bins(self, public_key, secret_key, rng):
        total = bgv.encrypt_monomial(public_key, 2, rng)
        for _ in range(4):
            total = bgv.add(total, bgv.encrypt_monomial(public_key, 2, rng))
        total = bgv.add(total, bgv.encrypt_monomial(public_key, 9, rng))
        assert _nonzero_coeffs(bgv.decrypt(secret_key, total)) == {2: 5, 9: 1}

    def test_paper_example(self, public_key, secret_key, rng):
        """§4.1: Enc(x^0+x^1) + Enc(x^0+x^2) = Enc(2x^0 + x^1 + x^2)."""
        a01 = bgv.multiply(
            bgv.encrypt_monomial(public_key, 0, rng),
            bgv.encrypt_monomial(public_key, 1, rng),
        )  # x^1 -- just to vary degrees below
        left = bgv.add(
            bgv.encrypt_monomial(public_key, 0, rng),
            bgv.encrypt_monomial(public_key, 1, rng),
        )
        right = bgv.add(
            bgv.encrypt_monomial(public_key, 0, rng),
            bgv.encrypt_monomial(public_key, 2, rng),
        )
        total = bgv.add(left, right)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, total)) == {0: 2, 1: 1, 2: 1}
        assert _nonzero_coeffs(bgv.decrypt(secret_key, a01)) == {1: 1}

    def test_mixed_degree_addition(self, public_key, secret_key, rng):
        deg2 = bgv.multiply(
            bgv.encrypt_monomial(public_key, 1, rng),
            bgv.encrypt_monomial(public_key, 2, rng),
        )
        fresh = bgv.encrypt_monomial(public_key, 5, rng)
        total = bgv.add(deg2, fresh)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, total)) == {3: 1, 5: 1}

    def test_subtract(self, public_key, secret_key, rng):
        (three,) = bgv.encrypt(
            public_key, [RingElement.constant(TEST.plaintext_ring, 3)], rng
        )
        (one,) = bgv.encrypt(
            public_key, [RingElement.constant(TEST.plaintext_ring, 1)], rng
        )
        diff = bgv.subtract(three, one)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, diff)) == {0: 2}

    def test_subtract_to_zero(self, public_key, secret_key, rng):
        a = bgv.encrypt_monomial(public_key, 4, rng)
        b = bgv.encrypt_monomial(public_key, 4, rng)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, bgv.subtract(a, b))) == {}

    def test_shift_moves_bins(self, public_key, secret_key, rng):
        ct = bgv.shift(bgv.encrypt_monomial(public_key, 3, rng), 10)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, ct)) == {13: 1}

    def test_multiply_plain(self, public_key, secret_key, rng):
        ct = bgv.encrypt_monomial(public_key, 2, rng)
        plain = RingElement.from_coeffs(TEST.plaintext_ring, [0, 0, 0, 2])
        out = bgv.multiply_plain(ct, plain)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, out)) == {5: 2}

    def test_encrypt_zero_is_additive_identity(self, public_key, secret_key, rng):
        z = bgv.encrypt_zero_like(public_key, rng)
        ct = bgv.encrypt_monomial(public_key, 6, rng)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, bgv.add(ct, z))) == {6: 1}

    def test_multiply_by_x0_is_multiplicative_identity(
        self, public_key, secret_key, rng
    ):
        one = bgv.encrypt_monomial(public_key, 0, rng)
        ct = bgv.encrypt_monomial(public_key, 6, rng)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, bgv.multiply(ct, one))) == {
            6: 1
        }


class TestNoise:
    def test_estimate_bounds_exact(self, public_key, secret_key, rng):
        """The analytic estimate must upper-bound the measured noise
        through a realistic chain of operations."""
        acc = bgv.encrypt_monomial(public_key, 1, rng)
        for i in range(6):
            acc = bgv.multiply(acc, bgv.encrypt_monomial(public_key, i % 3, rng))
            assert bgv.exact_noise_bits(secret_key, acc) <= acc.noise_bits
        for _ in range(5):
            acc = bgv.add(acc, acc)
            assert bgv.exact_noise_bits(secret_key, acc) <= acc.noise_bits

    def test_fresh_noise_positive(self, public_key, rng):
        ct = bgv.encrypt_monomial(public_key, 0, rng)
        assert 0 < ct.noise_bits < bgv.noise_capacity_bits(TEST)

    def test_budget_guard_trips(self, public_key, rng):
        """Multiplying far past the budget must raise, not corrupt."""
        acc = bgv.encrypt_monomial(public_key, 0, rng)
        with pytest.raises(NoiseBudgetExceeded):
            for _ in range(TEST.max_multiplications * 3):
                acc = bgv.multiply(acc, bgv.encrypt_monomial(public_key, 0, rng))

    def test_supported_multiplications_decrypt_correctly(
        self, public_key, secret_key
    ):
        """Chains within the declared budget must decrypt correctly —
        this validates profile.max_multiplications end to end."""
        rng = random.Random(77)
        acc = bgv.encrypt_monomial(public_key, 1, rng)
        for _ in range(min(TEST.max_multiplications, 12)):
            acc = bgv.multiply(acc, bgv.encrypt_monomial(public_key, 1, rng))
        decrypted = _nonzero_coeffs(bgv.decrypt(secret_key, acc))
        assert list(decrypted.values()) == [1]


class TestBudgetModel:
    def test_paper_profile_rejects_q1(self):
        """§6.2: the two-hop Q1 needs d^2 = 100 multiplications, which
        exceeds the paper profile's noise budget."""
        report = noise.check_budget(PAPER, hops=2, degree_bound=10)
        assert report.multiplications_required == 100
        assert not report.feasible

    def test_paper_profile_accepts_one_hop(self):
        report = noise.check_budget(PAPER, hops=1, degree_bound=10)
        assert report.feasible

    def test_paper_budget_is_dozens(self):
        assert 24 <= PAPER.max_multiplications < 100

    def test_require_budget_raises(self):
        with pytest.raises(NoiseBudgetExceeded):
            noise.require_budget(PAPER, hops=2, degree_bound=10)


class TestRelinearization:
    def test_reduces_degree_and_preserves_plaintext(
        self, public_key, secret_key, relin_keys, rng
    ):
        acc = bgv.encrypt_monomial(public_key, 1, rng)
        for _ in range(4):
            acc = bgv.multiply(acc, bgv.encrypt_monomial(public_key, 2, rng))
        assert acc.degree == 5
        rel = bgv.relinearize(acc, relin_keys)
        assert rel.degree == 1
        assert _nonzero_coeffs(bgv.decrypt(secret_key, rel)) == {9: 1}

    def test_degree_one_passthrough(self, public_key, relin_keys, rng):
        ct = bgv.encrypt_monomial(public_key, 1, rng)
        assert bgv.relinearize(ct, relin_keys) is ct

    def test_missing_keys_raise(self, public_key, secret_key, rng):
        small_rlk = bgv.make_relin_keys(secret_key, 2, random.Random(5))
        a = bgv.encrypt_monomial(public_key, 1, rng)
        prod = bgv.multiply(bgv.multiply(a, a), a)
        with pytest.raises(CryptoError):
            bgv.relinearize(prod, small_rlk)

    def test_relinearized_sums_decrypt(self, public_key, secret_key, relin_keys, rng):
        """Aggregator flow: relinearize device outputs, then sum."""
        total = None
        for exponent in (2, 2, 3):
            ct = bgv.multiply(
                bgv.encrypt_monomial(public_key, exponent - 1, rng),
                bgv.encrypt_monomial(public_key, 1, rng),
            )
            rel = bgv.relinearize(ct, relin_keys)
            total = rel if total is None else bgv.add(total, rel)
        assert _nonzero_coeffs(bgv.decrypt(secret_key, total)) == {2: 2, 3: 1}


class TestSerialization:
    def test_roundtrip(self, public_key, secret_key, rng):
        ct = bgv.multiply(
            bgv.encrypt_monomial(public_key, 3, rng),
            bgv.encrypt_monomial(public_key, 4, rng),
        )
        back = bgv.Ciphertext.deserialize(ct.serialize(), TEST)
        assert back.components == ct.components

    def test_digest_changes_with_content(self, public_key, rng):
        a = bgv.encrypt_monomial(public_key, 1, rng)
        b = bgv.encrypt_monomial(public_key, 1, rng)
        assert a.digest() != b.digest()  # fresh randomness differs

    def test_size_matches_serialization(self, public_key, rng):
        ct = bgv.encrypt_monomial(public_key, 1, rng)
        assert abs(len(ct.serialize()) - ct.size_bytes) <= 16

    def test_bad_magic_rejected(self, public_key, rng):
        ct = bgv.encrypt_monomial(public_key, 1, rng)
        data = b"XXXX" + ct.serialize()[4:]
        with pytest.raises(CryptoError):
            bgv.Ciphertext.deserialize(data, TEST)

    def test_paper_ciphertext_size(self):
        """§6.4: each FHE ciphertext is around 4.3 MB."""
        assert 4.0e6 < PAPER.ciphertext_bytes < 5.0e6


class TestRandomnessWitness:
    def test_pinned_randomness_reproduces_ciphertext(self, public_key, rng):
        """The ZKP layer derives ciphertexts from witnesses."""
        randomness = bgv.EncryptionRandomness.generate(TEST, rng)
        a = bgv.encrypt_monomial(public_key, 5, rng, randomness=randomness)
        b = bgv.encrypt_monomial(
            public_key, 5, random.Random(1), randomness=randomness
        )
        assert a.components == b.components

    def test_drawn_randomness_carries_its_signs(self, rng):
        """``generate`` files the ternary signs it drew beside ``u``: the
        values a scan would find."""
        randomness = bgv.EncryptionRandomness.generate(TEST, rng)
        signs = randomness.operand.forms[Resident.signs_key(TEST.q)]
        assert [s % TEST.q for s in signs] == list(randomness.u.coeffs)
        assert set(signs) == {-1, 0, 1}

    @pytest.mark.parametrize(
        "profile,pin",
        [
            (TEST, "7f689c3053890a6ff2b8f05b1437339a1afd731e01769ad026c4017cf73e9db3"),
            (SMALL, "248cfaff259bda44bfb0e16c4c929ff2e7355dba162a460ed1a41f8230389076"),
        ],
        ids=["test", "small"],
    )
    def test_a_batch_scans_no_u_and_hashes_as_pinned(self, monkeypatch, profile, pin):
        """A seeded 16-leaf batch, both kernel paths: no ``u`` reaches the
        kernel's ternary scan, and the ciphertexts are byte for byte those
        pinned from before the signs were filed."""
        nb = pytest.importorskip("repro.runtime.numpy_backend")
        scanned = []
        original = nb._ternary_signs

        def spy(operand, q):
            key = Resident.signs_key(q)
            if not (isinstance(operand, Resident) and key in operand.forms):
                scanned.append(tuple(operand))
            return original(operand, q)

        monkeypatch.setattr(nb, "_ternary_signs", spy)
        _, pk = bgv.keygen(profile, random.Random(49))
        plains = [bgv.monomial(profile, 3 * i % profile.n) for i in range(16)]
        randomness = [
            bgv.EncryptionRandomness.generate(profile, random.Random(50 + i))
            for i in range(16)
        ]
        scanned.clear()
        with use_backend("numpy"):
            cts = bgv.encrypt(pk, plains, random.Random(50))
            bgv.encrypt(pk, plains, None, randomness=randomness)
        # Only the key halves, once each: their answer is filed too.
        assert sorted(scanned) == sorted([pk.pk0.coeffs, pk.pk1.coeffs])
        digest = hashlib.sha256(b"".join(ct.serialize() for ct in cts)).hexdigest()
        assert digest == pin


class TestPublicKeyFingerprint:
    def test_cached_value_is_the_recompute_and_never_pickled(self, public_key):
        first = public_key.fingerprint()
        assert public_key.fingerprint() is first
        fresh = hashlib.sha256(
            bgv._ring_bytes(public_key.pk0) + bgv._ring_bytes(public_key.pk1)
        ).digest()
        assert first == fresh
        copy = pickle.loads(pickle.dumps(public_key))
        assert "_fingerprint" not in copy.__dict__
        assert copy == public_key and copy.fingerprint() == first
