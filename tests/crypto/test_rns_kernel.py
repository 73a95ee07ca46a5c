"""The NumPy ring kernel's two stages, checked on every plan kind.

A plan's transforms are matrix products on float64 digits and its CRT
lands straight in Z_q.  Each plan kind the backend builds at the TEST
and SMALL rings (general, ternary, the relinearization fold's digit
bases, the plaintext ring) must round-trip a transform exactly, give
the schoolbook product, and lift every column the CRT can meet, the
extremes of its bound included, to the centred big-integer value.
"""

import random

import pytest

np = pytest.importorskip("numpy")
nb = pytest.importorskip("repro.runtime.numpy_backend")

from repro.crypto.modmath import is_prime
from repro.errors import ParameterError
from repro.params import PAPER, SMALL, TEST
from repro.runtime.backends import schoolbook_sum


def _kinds(profile):
    """(name, n, q, factor_bits, terms) of every plan kind a profile
    uses: the basis each is sized for, as ``_sum_plan`` takes it."""
    n, q, t = profile.n, profile.q, profile.t
    kinds = [
        ("general", n, q, q.bit_length(), 2),
        ("ternary", n, q, 0, 1),
        ("plaintext", n, t, t.bit_length(), 2),
    ]
    for base in (8, 16, 32):
        kinds.append((f"fold{base}", n, q, base, -(-q.bit_length() // base)))
    return kinds


KINDS = [
    pytest.param(profile, *kind, id=f"{profile.name}-{kind[0]}")
    for profile in (TEST, SMALL)
    for kind in _kinds(profile)
]


def _plan(n, q, factor_bits, terms):
    return nb.NumpyBackend()._sum_plan(n, q, factor_bits, terms)


def _bound_bits(n, q, factor_bits, terms):
    """What ``_sum_plan`` sizes for: values below 2^bits / 2."""
    return q.bit_length() + factor_bits + n.bit_length() + terms.bit_length() + 1


def _worst(n, q, factor_bits):
    """The largest operands of a kind: ``q-2`` (``q-1`` is lifted as
    ``-1``, being ternary) against ``-1`` (ternary), ``2^base - 1`` (a
    fold digit) or ``q-2``.  Every coefficient of their negacyclic
    product is ``a·b·(2j + 2 - n)``: the worst case is the last one."""
    if factor_bits == 0:
        return [q - 2] * n, [q - 1] * n, -1
    b = (1 << factor_bits) - 1 if factor_bits < q.bit_length() else q - 2
    return [q - 2] * n, [b] * n, b


def _product(plan, a, b):
    form_a, form_b = plan.forms([a, b])
    product = np.multiply(form_a, form_b, dtype=np.int64)[:, None]
    return plan.outputs(plan.reduce(product))[0]


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_inverse_undoes_forward(profile, name, n, q, factor_bits, terms):
    plan = _plan(n, q, factor_bits, terms)
    rng = np.random.default_rng(n + len(plan.primes))
    x = rng.integers(0, 1 << 28, size=(len(plan.primes), 3, n))
    x %= plan.p_flat[:, :, None]
    x[:, 0] = plan.p_flat - 1  # every residue at its largest
    x[:, 1] = 0
    assert np.array_equal(plan.inverse(plan.forward(x)), x)


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_worst_product_is_the_closed_form(profile, name, n, q, factor_bits, terms):
    plan = _plan(n, q, factor_bits, terms)
    a, b, b_value = _worst(n, q, factor_bits)
    expected = [(q - 2) * b_value * (2 * j + 2 - n) % q for j in range(n)]
    assert _product(plan, a, b) == expected


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_product_is_the_schoolbook(profile, name, n, q, factor_bits, terms):
    """Dense against dense at TEST; at SMALL one operand keeps a few
    coefficients, the first and the last among them, so the schoolbook
    stays cheap and the wrap-around is still met."""
    plan = _plan(n, q, factor_bits, terms)
    rng = random.Random(n * 7 + factor_bits)
    top = q if factor_bits >= q.bit_length() else 1 << max(factor_bits, 1)
    a = [rng.randrange(q) for _ in range(n)]
    b = [rng.randrange(top) for _ in range(n)]
    if factor_bits == 0:
        b = [rng.choice((0, 1, q - 1)) for _ in range(n)]
    if n > 64:
        keep = {0, 1, n // 2, n - 1}
        b = [c if i in keep else 0 for i, c in enumerate(b)]
    assert _product(plan, a, b) == schoolbook_sum([(a, b)], n, q)


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_crt_is_the_centred_lift(profile, name, n, q, factor_bits, terms):
    plan = _plan(n, q, factor_bits, terms)
    bound = (1 << (_bound_bits(n, q, factor_bits, terms) - 1)) - 1
    values = [bound, -bound, 0, 1, -1, bound // 3, -(bound // 7)]
    residues = np.array(
        [[x % p for x in values] for p in plan.primes.tolist()], dtype=np.float64
    )
    assert plan.from_residues(residues) == [x % q for x in values]


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_basis_leaves_a_quarter_of_its_product(profile, name, n, q, factor_bits, terms):
    plan = _plan(n, q, factor_bits, terms)
    assert plan.modulus >= 4 << (_bound_bits(n, q, factor_bits, terms) - 1)


def test_a_basis_without_margin_is_refused():
    """The smallest plan (the TEST plaintext ring) clears the M/4 rule;
    one prime sized for its whole product does not."""
    n, t = TEST.n, TEST.t
    bits = _bound_bits(n, t, t.bit_length(), 1)
    smallest = _plan(n, t, t.bit_length(), 1)
    assert smallest.modulus >> (bits + 1)
    prime = next(p for p in range(1 << 27, 1 << 28, 2 * n) if is_prime(p + 1)) + 1
    with pytest.raises(ParameterError, match="margin"):
        nb._Plan(n, t, [prime], 27)


@pytest.mark.slow
def test_paper_plan_round_trips_one_transform():
    plan = _plan(PAPER.n, PAPER.q, PAPER.q.bit_length(), 1)
    assert max(plan.radices) <= 32
    rng = np.random.default_rng(5)
    x = rng.integers(0, 1 << 28, size=(len(plan.primes), 1, PAPER.n))
    x %= plan.p_flat[:, :, None]
    assert np.array_equal(plan.inverse(plan.forward(x)), x)
