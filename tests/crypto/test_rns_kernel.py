"""The NumPy ring kernel's two stages, checked on every plan kind.

A plan's transforms are matrix products on balanced float64 residues
and its CRT lands straight in Z_q.  Each plan kind the backend builds at
the TEST and SMALL rings (general, ternary, the relinearization fold's
digit bases, the plaintext ring) must round-trip a transform exactly,
give the schoolbook product, and lift every column the CRT can meet, the
extremes of its bound included, to the centred big-integer value.

Exactness rests on one bound: basis primes below 2^25, every value held
within ``(p+3)/2`` of zero, so a sum of 32 products stays below 2^53.
The edge tests below hold each stage to it: a transform step at its
largest values, sums and a fold long enough to need the accumulators'
periodic reduction, and the residues a transform is handed.
"""

import random

import pytest

np = pytest.importorskip("numpy")
nb = pytest.importorskip("repro.runtime.numpy_backend")

from repro.crypto.modmath import is_prime
from repro.errors import ParameterError
from repro.params import PAPER, SMALL, TEST
from repro.runtime.backends import PureBackend, Resident, schoolbook_sum


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
    product = np.multiply(form_a, form_b)[:, None]
    return plan.outputs(plan.reduce(product))[0]


def _edge(plan):
    """``(k, 1, 1)`` float64: ``(p+3)/2`` per prime, the largest
    magnitude a residue may have between the kernel's stages."""
    return (plan.p_float[:, :, None] + 3) / 2


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_inverse_undoes_forward(profile, name, n, q, factor_bits, terms):
    plan = _plan(n, q, factor_bits, terms)
    rng = np.random.default_rng(n + len(plan.primes))
    half = (plan.p_flat[:, :, None] - 1) // 2
    x = rng.integers(-half, half + 1, size=(len(plan.primes), 4, n)).astype(float)
    x[:, 0] = _edge(plan)[:, 0]  # every residue at its largest
    x[:, 1] = -_edge(plan)[:, 0]
    x[:, 2] = 0
    expected = np.mod(x, plan.p_float[:, :, None])
    assert np.array_equal(plan.inverse(plan.forward(x)), expected)


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
    prime = next(p for p in range(1 << 24, 1 << 25, 2 * n) if is_prime(p + 1)) + 1
    with pytest.raises(ParameterError, match="margin"):
        nb._Plan(n, t, [prime], 24)


# -- the 25-bit edge ------------------------------------------------------


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_every_basis_prime_is_below_2_25(profile, name, n, q, factor_bits, terms):
    primes = _plan(n, q, factor_bits, terms).primes.tolist()
    assert max(primes) < 1 << 25 == nb.MAX_RNS_PRIME
    assert all(p % (2 * n) == 1 and is_prime(p) for p in primes)


@pytest.mark.parametrize("profile,name,n,q,factor_bits,terms", KINDS)
def test_a_32_point_step_at_the_largest_values_is_exact(
    profile, name, n, q, factor_bits, terms
):
    """All-``(p+1)/2`` residues against all-``(p-1)/2`` entries at every
    prime of the basis, the largest first, and the same near the edge
    with the low bits varied (an equal-term sum is exact well past
    2^53): the float64 product equals the integer one, and the
    reduction leaves a balanced residue of it."""
    plan = _plan(n, q, factor_bits, terms)
    primes = plan.primes.tolist()
    assert primes[0] == max(primes)
    p = plan.p_float[:, :, None]
    jitter = np.arange(32.0)
    cases = [
        (np.full((32, 32), 1.0) * (p - 1) / 2, np.ones((32, 1)) * (p + 1) / 2),
        ((p - 1) / 2 - 2 * jitter - jitter[:, None], (p + 1) / 2 - 4 * jitter[:, None]),
    ]
    for matrix, column in cases:
        out = np.matmul(matrix, column)
        as_ints = [x.astype(np.int64).astype(object) for x in (matrix, column)]
        exact = np.matmul(*as_ints)[:, :, 0].tolist()
        assert out[:, :, 0].astype(np.int64).tolist() == exact
        left = plan.reduce(out)[:, :, 0]
        for k, prime in enumerate(primes):
            assert all((int(r) - e) % prime == 0 for r, e in zip(left[k], exact[k]))
            assert np.abs(left[k]).max() <= (prime + 3) / 2


@pytest.mark.parametrize("profile", [TEST, SMALL], ids=lambda p: p.name)
def test_residues_a_transform_takes_are_balanced(profile):
    """What the forward transform is handed lies within ``(p+1)/2`` of
    zero, congruent to the coefficient: ``q``'s extremes and the
    ternary lift."""
    n, q = profile.n, profile.q
    plan = _plan(n, q, q.bit_length(), 2)
    values = [0, 1, q - 1, q - 2, q // 2, (q + 1) // 2] + list(range(2, n - 4))
    residues = plan.to_residues([values])[:, 0]
    primes = plan.primes.tolist()
    for k, prime in enumerate(primes):
        assert np.abs(residues[k]).max() <= (prime + 1) / 2
        assert [int(r) % prime for r in residues[k]] == [v % prime for v in values]
    ternary = plan._lift([Resident([q - 1, 0, 1] * (n // 4) + [1] * (n - 3 * (n // 4)))])
    assert set(np.unique(ternary).tolist()) == {-1.0, 0.0, 1.0}


def _edge_constants(plan, count, seed):
    """``count`` distinct constant polynomials near ``(p_min - 1)/2``:
    the form of a constant is the constant at every slot of every prime,
    so each of these is within ``2^24`` and near it everywhere."""
    top = (min(plan.primes.tolist()) - 1) // 2
    rng = random.Random(seed)
    return [[top - rng.randrange(1, 1 << 12, 2)] + [0] * (plan.n - 1) for _ in range(count)]


def test_a_40_pair_sum_equals_the_pure_oracle():
    """Past 32 pairs an accumulator needs its periodic reduction: forty
    products of edge constants (each near 2^48, same sign, odd) sum past
    2^53.  Dense random pairs ride along."""
    n, q = TEST.n, TEST.q
    backend = nb.NumpyBackend()
    plan = backend._sum_plan(n, q, q.bit_length(), 40)
    left, right = _edge_constants(plan, 40, 1), _edge_constants(plan, 40, 2)
    edge = list(zip(left, right))
    assert sum(a[0] * b[0] for a, b in edge) >= 1 << 53
    rng = random.Random(3)
    dense = [
        tuple([rng.randrange(q) for _ in range(n)] for _ in range(2)) for _ in range(40)
    ]
    sums = [edge, dense, [(Resident(a), Resident(b)) for a, b in edge]]
    expected = PureBackend().negacyclic_multiply(sums, n, q)
    assert backend.negacyclic_multiply(sums, n, q) == expected
    assert expected[0][0] == sum(a[0] * b[0] for a, b in edge) % q


def test_a_small_base_8_fold_equals_its_definition():
    """SMALL at base 8 folds 113 pieces.  Each key piece is an edge
    constant and every digit polynomial is the same dense ``d``
    (coefficient ``d_j·Σ 2^(8i)``), so each output slot adds 113
    same-sign products near 2^48 of a form: far past 2^53 without the
    periodic reduction.  The oracle is the fold's definition, ``Σ b_i·d``
    and ``Σ a_i·d`` with constant pieces: ``d`` times the pieces' sum."""
    n, q = SMALL.n, SMALL.q
    count = -(-q.bit_length() // 8)
    assert count == 113
    backend = nb.NumpyBackend()
    plan = backend._sum_plan(n, q, 8, count)
    b_pieces, a_pieces = _edge_constants(plan, count, 4), _edge_constants(plan, count, 5)
    spread = sum(1 << (8 * i) for i in range(count))
    rng = random.Random(6)
    d = [rng.randrange(1, 16) for _ in range(n)]
    coeffs = [x * spread for x in d]
    assert max(coeffs) < q
    pairs = [(Resident(b), Resident(a)) for b, a in zip(b_pieces, a_pieces)]
    d0, d1 = backend.fold_multiply_accumulate(pairs, coeffs, 8, n, q)
    for out, pieces in ((d0, b_pieces), (d1, a_pieces)):
        total = sum(piece[0] for piece in pieces)
        assert out == [total * x % q for x in d]


def test_paper_bases_assemble_and_an_exhausted_one_is_refused():
    """PAPER's general, ternary and fold bases find their primes below
    2^25 (69 are ≡ 1 mod 2^16); asking for more bits than all of them
    hold is refused."""
    n, q = PAPER.n, PAPER.q
    for factor_bits, terms in [(q.bit_length(), 2), (0, 1)] + [
        (base, -(-q.bit_length() // base)) for base in (8, 16, 32)
    ]:
        bits = _bound_bits(n, q, factor_bits, terms)
        primes = nb._rns_primes(n, q, bits + 1)
        assert max(primes) < 1 << 25 and all(p % (2 * n) == 1 for p in primes)
        assert sum(p.bit_length() - 1 for p in primes) >= bits + 1
    every = [p for p in range(1, 1 << 25, 2 * n) if is_prime(p)]
    assert len(every) == 69
    with pytest.raises(ParameterError, match="cannot assemble"):
        nb._rns_primes(n, q, sum(p.bit_length() - 1 for p in every) + 1)


@pytest.mark.slow
def test_paper_plan_round_trips_one_transform():
    plan = _plan(PAPER.n, PAPER.q, PAPER.q.bit_length(), 1)
    assert max(plan.radices) <= 32
    rng = np.random.default_rng(5)
    half = (plan.p_flat[:, :, None] - 1) // 2
    x = rng.integers(-half, half + 1, size=(len(plan.primes), 1, PAPER.n)).astype(float)
    x[:, :, ::7] = _edge(plan)[:, :, :1]
    expected = np.mod(x, plan.p_float[:, :, None])
    assert np.array_equal(plan.inverse(plan.forward(x)), expected)
