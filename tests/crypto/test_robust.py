"""Reed-Solomon robust decoding over the Shamir code: edge cases.

The decoder's contract is sharp — correct through exactly
``(n - t) // 2`` wrong shares and flag their indices, *raise* (never
answer wrongly) past that radius, reject malformed index sets, and
amortize the error-locator work to one Gao run per batch regardless of
width (none at all at exactly ``t`` shares).
"""

import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv, robust, shamir
from repro.errors import RobustDecodingError, SecretSharingError
from repro.params import SMALL, TEST
from repro.runtime import TaskFabric, backends

#: A small prime large enough that random collisions cannot fake a
#: successful decode.
FIELD = (1 << 61) - 1


def _shares(secret, threshold, n, rng):
    return shamir.share_secret(secret, threshold, n, FIELD, rng)


def _decode_one(points, threshold):
    """Decode a single codeword as a width-1 batch."""
    indices = [x for x, _ in points]
    secrets, flagged, _ = robust.batch_robust_reconstruct(
        indices, [[y for _, y in points]], threshold, FIELD
    )
    return secrets[0], flagged


class TestUniqueDecodingRadius:
    @pytest.mark.parametrize("n,threshold", [(5, 2), (7, 3), (9, 3)])
    def test_exactly_radius_errors_corrected(self, n, threshold):
        rng = random.Random(n * 100 + threshold)
        radius = robust.max_correctable_errors(n, threshold)
        for _ in range(10):
            secret = rng.randrange(FIELD)
            shares = _shares(secret, threshold, n, rng)
            bad = rng.sample(range(n), radius)
            corrupted = [
                (s.index, (s.value + rng.randrange(1, FIELD)) % FIELD)
                if i in bad
                else (s.index, s.value)
                for i, s in enumerate(shares)
            ]
            decoded, flagged = _decode_one(corrupted, threshold)
            assert decoded == secret
            assert flagged == {shares[i].index for i in bad}

    @pytest.mark.parametrize("n,threshold", [(5, 2), (7, 3), (9, 3)])
    def test_radius_plus_one_errors_never_wrong(self, n, threshold):
        """One error past the radius: the decoder must raise or (if the
        received word happens to still be decodable) return the true
        secret — a wrong answer is the one forbidden outcome."""
        rng = random.Random(n * 200 + threshold)
        radius = robust.max_correctable_errors(n, threshold)
        raised = 0
        for _ in range(20):
            secret = rng.randrange(FIELD)
            shares = _shares(secret, threshold, n, rng)
            bad = rng.sample(range(n), radius + 1)
            corrupted = [
                (s.index, (s.value + rng.randrange(1, FIELD)) % FIELD)
                if i in bad
                else (s.index, s.value)
                for i, s in enumerate(shares)
            ]
            try:
                decoded, _ = _decode_one(corrupted, threshold)
            except RobustDecodingError:
                raised += 1
            else:
                assert decoded == secret
        assert raised > 0

    def test_guaranteed_failure_raises(self):
        """Five points split 3/2 between two distinct lines: no
        polynomial of degree < 2 agrees with 4 of them, so Gao must
        refuse outright."""
        a, b = (3, 7), (11, 4)  # two different degree-1 polynomials
        points = [
            (x, (a[0] + a[1] * x) % FIELD) for x in (1, 2, 3)
        ] + [(x, (b[0] + b[1] * x) % FIELD) for x in (4, 5)]
        with pytest.raises(RobustDecodingError):
            _decode_one(points, 2)

    def test_honest_shares_flag_nothing(self):
        rng = random.Random(17)
        secret = rng.randrange(FIELD)
        shares = _shares(secret, 3, 8, rng)
        decoded, flagged = _decode_one(
            [(s.index, s.value) for s in shares], 3
        )
        assert decoded == secret
        assert flagged == set()


class TestDegenerateIndexSets:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(SecretSharingError):
            _decode_one([(1, 5), (2, 6), (2, 7), (4, 8)], 2)

    def test_zero_index_rejected(self):
        """Index 0 would place a share at the secret's own evaluation
        point."""
        with pytest.raises(SecretSharingError):
            _decode_one([(0, 5), (1, 6), (2, 7)], 2)

    def test_negative_index_rejected(self):
        with pytest.raises(SecretSharingError):
            _decode_one([(-1, 5), (1, 6), (2, 7)], 2)

    def test_too_few_shares_raise_decoding_error(self):
        with pytest.raises(RobustDecodingError):
            _decode_one([(1, 5)], 2)

    def test_batch_duplicate_indices_rejected(self):
        with pytest.raises(SecretSharingError):
            robust.batch_robust_reconstruct(
                [1, 2, 2, 4], [[1, 2, 3, 4]], 2, FIELD
            )

    def test_batch_row_length_mismatch_rejected(self):
        with pytest.raises(SecretSharingError):
            robust.batch_robust_reconstruct(
                [1, 2, 3, 4], [[1, 2, 3]], 2, FIELD
            )


class TestBatchOpening:
    def _batch(self, width, n, threshold, num_corrupt, seed):
        rng = random.Random(seed)
        secrets = [rng.randrange(FIELD) for _ in range(width)]
        vector_shares = shamir.share_vector(
            secrets, threshold, n, FIELD, rng
        )
        indices = [s.index for s in vector_shares]
        rows = [
            [s.values[j] for s in vector_shares] for j in range(width)
        ]
        bad = rng.sample(range(n), num_corrupt)
        for p in bad:
            for j in range(width):
                rows[j][p] = (rows[j][p] + rng.randrange(1, FIELD)) % FIELD
        return secrets, indices, rows, {indices[p] for p in bad}

    def test_width_one(self):
        secrets, indices, rows, bad = self._batch(1, 7, 3, 2, seed=23)
        decoded, flagged, stats = robust.batch_robust_reconstruct(
            indices, rows, 3, FIELD
        )
        assert decoded == secrets
        assert flagged == bad
        assert stats.width == 1
        assert stats.locator_computations == 1

    def test_width_4096_single_locator(self):
        """The headline amortization: 4096 codewords on one index set
        cost exactly one error-locator (Gao) computation."""
        secrets, indices, rows, bad = self._batch(4096, 9, 3, 3, seed=29)
        decoded, flagged, stats = robust.batch_robust_reconstruct(
            indices, rows, 3, FIELD
        )
        assert decoded == secrets
        assert flagged == bad
        assert stats.width == 4096
        assert stats.locator_computations == 1
        assert stats.errors_corrected == 3 * 4096

    def test_exactly_threshold_shares_need_no_locator(self):
        """No redundancy: every word is a codeword, so the opening is
        interpolation — nothing flagged, no Gao run."""
        secrets, indices, rows, _ = self._batch(64, 3, 3, 0, seed=37)
        decoded, flagged, stats = robust.batch_robust_reconstruct(
            indices, rows, 3, FIELD
        )
        assert decoded == secrets
        assert flagged == set()
        assert (stats.width, stats.locator_computations) == (64, 0)

    def test_empty_batch(self):
        decoded, flagged, stats = robust.batch_robust_reconstruct(
            [1, 2, 3], [], 2, FIELD
        )
        assert decoded == []
        assert flagged == set()
        assert stats.width == 0

    def test_too_many_liars_raise(self):
        _, indices, rows, _ = self._batch(16, 5, 2, 2, seed=31)
        with pytest.raises(RobustDecodingError):
            robust.batch_robust_reconstruct(indices, rows, 2, FIELD)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(TEST, id="test"),
        pytest.param(SMALL, id="small", marks=pytest.mark.slow),
    ],
)
def genesis(request):
    """A 2-of-3 committee sharing a fresh key, and one ciphertext."""
    setup = random.Random(431)
    secret, public = bgv.keygen(request.param, setup)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[4, 6, 9], threshold=2, rng=setup
    )
    return secret, committee, bgv.encrypt_monomial(public, 17, setup)


class TestOneDecoder:
    """The one decryption algorithm against the two independent
    oracles: Shamir reconstruction of every coefficient, and direct
    secret-key decryption."""

    @pytest.mark.parametrize("backend", backends.available_backends())
    def test_threshold_members_open_by_interpolation(
        self, genesis, backend
    ):
        secret, committee, ct = genesis
        profile = committee.profile
        chosen = committee.members[: committee.threshold]
        with backends.use_backend(backend):
            smudges = committee_mod.shared_smudge_shares(
                chosen, profile, committee.threshold, random.Random(5)
            )
            partials = [
                committee_mod.partial_decrypt(
                    m, ct, profile, smudges[m.share_index]
                )
                for m in chosen
            ]
            plain, flagged = committee_mod.threshold_decrypt(
                committee, ct, random.Random(5),
                participating=[m.device_id for m in chosen],
            )
        indices = [m.share_index for m in chosen]
        rows = [
            [p.coeffs[j] for p in partials] for j in range(profile.n)
        ]
        opened, flagged_indices, stats = robust.batch_robust_reconstruct(
            indices, rows, committee.threshold, profile.q
        )
        assert opened == [
            shamir.reconstruct_secret(
                [shamir.Share(i, v) for i, v in zip(indices, row)],
                profile.q,
            )
            for row in rows
        ]
        assert (flagged_indices, stats.locator_computations) == (set(), 0)
        assert flagged == set()
        assert plain.coeffs == bgv.decrypt(secret, ct).coeffs

    @pytest.mark.parametrize("backend", backends.available_backends())
    def test_redundant_members_match_direct_decryption(
        self, genesis, backend
    ):
        secret, committee, ct = genesis
        with backends.use_backend(backend):
            plain, flagged = committee_mod.threshold_decrypt(
                committee, ct, random.Random(6)
            )
        assert plain.coeffs == bgv.decrypt(secret, ct).coeffs
        assert flagged == set()


class TestCrossBackendDeterminism:
    def test_bit_identical_across_backends_and_workers(self):
        """The full decryption path — partials, smudging, batch decode —
        must produce the same plaintext bits and flagged set on every
        compute backend at every worker count."""
        setup = random.Random(643)
        secret, public = bgv.keygen(TEST, setup)
        committee = committee_mod.genesis_share_key(
            secret, member_ids=[2, 3, 5, 8, 13], threshold=2, rng=setup
        )
        ct = bgv.encrypt_monomial(public, 9, setup)

        def lie(device_id, value):
            if device_id == 5:
                return value + type(value).constant(value.params, 6)
            return value

        outcomes = []
        for backend in backends.available_backends():
            for workers in (1, 2):
                with backends.use_backend(backend), TaskFabric(
                    workers=workers, chunk_size=2
                ):
                    plaintext, flagged = committee_mod.threshold_decrypt(
                        committee, ct, random.Random(99), corrupt=lie
                    )
                outcomes.append((tuple(plaintext.coeffs), flagged))
        assert len(outcomes) >= 2
        assert all(o == outcomes[0] for o in outcomes)
        assert outcomes[0][1] == {5}
        assert outcomes[0][0] == tuple(bgv.decrypt(secret, ct).coeffs)
