"""The one relinearization fold: both backends against a schoolbook sum.

``backends.fold_multiply_accumulate`` is the only body of
``bgv.relinearize``.  Everything here compares it with an independent
reference — the digit polynomials split out by hand, each multiplied
into its key piece by the O(n²) schoolbook product, the products summed
— and requires exact equality on every backend, including the inputs
the narrow fold basis is sized for, the rings a backend cannot
transform, and the parent commit's ciphertext bytes.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import QueryAggregator
from repro.crypto import bgv, ntt
from repro.crypto.modmath import ntt_prime
from repro.engine.encrypted import EncryptedExecutor
from repro.params import SMALL, TEST
from repro.runtime import TaskFabric, available_backends, resolve_backend, use_backend
from repro.runtime.backends import Resident
from tests.conftest import build_epidemic_graph, build_system

BACKENDS = available_backends()

#: (n, q): a direct-transform prime, a 61-bit prime, the TEST ring's
#: 512-bit modulus on a short ring, and the TEST ring itself.
RINGS = [(8, 7681), (16, ntt_prime(61, 32)), (16, TEST.q), (64, TEST.q)]


def reference_fold(pairs, coeffs, base_bits, n, q):
    """``(sum_i b_i*d_i, sum_i a_i*d_i)`` by schoolbook products."""
    mask = (1 << base_bits) - 1
    acc0, acc1 = [0] * n, [0] * n
    for i, (b_i, a_i) in enumerate(pairs):
        digits = [(c >> (i * base_bits)) & mask for c in coeffs]
        for acc, piece in ((acc0, b_i), (acc1, a_i)):
            term = ntt.negacyclic_multiply_schoolbook(list(piece), digits, q)
            for j in range(n):
                acc[j] = (acc[j] + term[j]) % q
    return acc0, acc1


def fold_on(backend, pairs, coeffs, base_bits, n, q):
    resident = [(Resident(tuple(b)), Resident(tuple(a))) for b, a in pairs]
    folder = resolve_backend(backend)
    first = folder.fold_multiply_accumulate(resident, coeffs, base_bits, n, q)
    # The second fold reuses the forms the first one parked.
    assert folder.fold_multiply_accumulate(resident, coeffs, base_bits, n, q) == first
    return first


@st.composite
def fold_cases(draw):
    n, q = draw(st.sampled_from(RINGS))
    # 8/16/32 are machine words to the NumPy kernel; 12 is not, and goes
    # through its per-term fallback.
    base_bits = draw(st.sampled_from([8, 12, 16, 32]))
    count = -(-q.bit_length() // base_bits)
    coefficient = st.one_of(
        st.sampled_from([0, 1, q - 1]), st.integers(min_value=0, max_value=q - 1)
    )
    vector = st.lists(coefficient, min_size=n, max_size=n)
    pairs = [(draw(vector), draw(vector)) for _ in range(count)]
    return pairs, draw(vector), base_bits, n, q


@settings(max_examples=30, deadline=None)
@given(fold_cases())
def test_fold_equals_the_schoolbook_sum_on_every_backend(case):
    pairs, coeffs, base_bits, n, q = case
    expected = reference_fold(pairs, coeffs, base_bits, n, q)
    for backend in BACKENDS:
        assert fold_on(backend, pairs, coeffs, base_bits, n, q) == expected, backend


@pytest.mark.parametrize("n,q", [(64, TEST.q), (16, SMALL.q)])
def test_fold_is_exact_at_the_bound_the_narrow_basis_is_sized_for(n, q):
    """Every key coefficient q−1, every digit 2^32−1, and 31 pieces —
    the most a 5-bit piece count admits.  (Such a folded coefficient is
    not below q; the fold only needs it below 2^(32·pieces).)"""
    count = 31
    pairs = [([q - 1] * n, [q - 1] * n)] * count
    coeffs = [2 ** (32 * count) - 1] * n
    expected = reference_fold(pairs, coeffs, 32, n, q)
    for backend in BACKENDS:
        assert fold_on(backend, pairs, coeffs, 32, n, q) == expected, backend


@pytest.mark.parametrize(
    "n,q",
    [(8, 1000), (6, 1000)],
    ids=["modulus-without-an-ntt", "ring-degree-not-a-power-of-two"],
)
def test_fold_falls_back_to_per_term_products_inside_the_backend(n, q):
    rng = random.Random(n * q)
    count = -(-q.bit_length() // 8)
    pairs = [
        ([rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(n)])
        for _ in range(count)
    ]
    coeffs = [rng.randrange(q) for _ in range(n)]
    expected = reference_fold(pairs, coeffs, 8, n, q)
    for backend in BACKENDS:
        assert fold_on(backend, pairs, coeffs, 8, n, q) == expected, backend


# -- relinearize equals the parent commit's bytes --------------------------------

#: sha256 of ``relinearize(...)`` taken from the parent commit (its
#: sequential per-piece body) for the construction in ``relin_case``.
PARENT_DIGESTS = {
    ("test", 2): "8c76328c0738052ba745af9c4b7ded88d6162a9d5137e746d51e60add4544b91",
    ("test", 3): "9d1be7739182adb9e429292fe33ae68e4bb6ce677b817aee68ce71b6fab4b7a2",
    ("test", 4): "d6a99439e45edab4f6a290c3b2e7589f1763d213433246707a46588d36c93ba8",
    ("test", 5): "74f7c2cacb62b748ed1bb6589fa8d3971c6df2bf47bc12689a622b1a5a5d8839",
    ("small", 2): "c8764cd2ac6cb6df54f37495bcc202bf4e2b10f3b5f21e84c4ec9b0c77c26a87",
}
PARENT_NOISE_BITS = {
    ("test", 2): 54.08746284125034,
    ("test", 3): 60.033681766269765,
    ("test", 4): 86.04490902169302,
    ("test", 5): 112.05613627711627,
    ("small", 2): 65.85798099512758,
}


def relin_case(profile, degree):
    rng = random.Random(2100 + degree)
    secret, public = bgv.keygen(profile, rng)
    rlk = bgv.make_relin_keys(secret, degree, rng)
    ct = bgv.encrypt_monomial(public, 1, rng)
    for i in range(degree - 1):
        ct = bgv.multiply(ct, bgv.encrypt_monomial(public, i + 2, rng))
    assert ct.degree == degree
    return bgv.relinearize(ct, rlk)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_relinearize_equals_the_parents_bytes_at_test(backend, degree):
    with use_backend(backend):
        out = relin_case(TEST, degree)
    assert out.digest().hex() == PARENT_DIGESTS["test", degree]
    assert out.noise_bits == PARENT_NOISE_BITS["test", degree]


def test_relinearize_equals_the_parents_bytes_at_small():
    pytest.importorskip("numpy")  # minutes on the pure backend
    with use_backend("numpy"):
        out = relin_case(SMALL, 2)
    assert out.digest().hex() == PARENT_DIGESTS["small", 2]
    assert out.noise_bits == PARENT_NOISE_BITS["small", 2]


# -- where the evaluation forms live ------------------------------------------------


def _forms(operands):
    """Per operand, the evaluation forms backends have parked on it."""
    return [list(r.forms) for r in operands]


def test_forms_attach_per_power_used_and_never_pickle(secret_key, public_key):
    rlk = bgv.make_relin_keys(secret_key, 3, random.Random(7))
    unused = pickle.dumps((public_key, rlk))
    rng = random.Random(8)
    a = bgv.encrypt_monomial(public_key, 1, rng)
    b = bgv.encrypt_monomial(public_key, 2, rng)
    bgv.relinearize(bgv.multiply(a, b), rlk)

    assert all(_forms(public_key.resident))
    assert all(forms for pair in rlk.keys[2].resident for forms in _forms(pair))
    # Degree 2 never folds power 3: its pieces stay untransformed.
    assert not any(forms for pair in rlk.keys[3].resident for forms in _forms(pair))

    # The forms are several times the coefficients; the operand wrappers
    # that do ship are a few hundred bytes.
    shipped = pickle.dumps((public_key, rlk))
    assert len(shipped) < 1.01 * len(unused)
    public_copy, rlk_copy = pickle.loads(shipped)
    assert (public_copy, rlk_copy) == (public_key, rlk)
    assert not any(_forms(public_copy.resident))
    assert not any(
        forms
        for key in rlk_copy.keys.values()
        for pair in key.resident
        for forms in _forms(pair)
    )


def test_two_workers_aggregate_the_bytes_one_worker_does():
    system = build_system(seed=61, people=8, degree=2)
    graph = build_epidemic_graph(seed=62, people=8, degree=2)
    plan = system.compile("SELECT HISTO(COUNT(*)) FROM neigh(1)")
    submissions = EncryptedExecutor(
        plan, system.public_key, system.zk, random.Random(63)
    ).run(graph)
    assert any(s.ciphertext.degree > 1 for s in submissions)

    def aggregate(workers):
        with TaskFabric(workers=workers, chunk_size=2) as fabric:
            return QueryAggregator(
                zk=system.zk, relin_keys=system.relin_keys, fabric=fabric
            ).aggregate(submissions)

    # One worker first, so the parent's key forms exist before the pool
    # of two receives the keys.
    serial, parallel = aggregate(1), aggregate(2)
    assert parallel.ciphertext.serialize() == serial.ciphertext.serialize()
    assert parallel.accepted == serial.accepted
