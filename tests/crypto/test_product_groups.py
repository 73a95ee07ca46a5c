"""A product call's sums taken in groups of bounded size.

The NumPy kernel splits a call's sums into consecutive groups whose
operand forms and accumulator fit :data:`_GROUP_ELEMENTS`, so a call of
any length (a genesis hands it every relinearization piece) holds the
working set of a few products.  Within a group, every distinct operand
is transformed once and the pair products are gathered per term
position.  Whatever the grouping, every sum must equal the pure
backend's product of that sum alone.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import SMALL, TEST
from repro.runtime import backends, resolve_backend

nb = pytest.importorskip("repro.runtime.numpy_backend")


def _rows(profile, ternary):
    """Ring rows per group at ``profile`` on the kernel's basis."""
    plan = nb.NumpyBackend()._sum_plan(
        profile.n, profile.q, 0 if ternary else profile.q.bit_length(), 2
    )
    return max(1, nb._GROUP_ELEMENTS // (len(plan.primes) * profile.n))


def _mixed_sums(profile, count, rng):
    """``count`` sums over general and ternary operands: one ternary
    Resident in every sum, one general Resident in every third, and
    every fourth sum of three pairs (one of them repeating a pair)."""
    n, q = profile.n, profile.q
    shared = backends.Resident([rng.choice((0, 1, q - 1)) for _ in range(n)])
    key = backends.Resident([rng.randrange(q) for _ in range(n)])
    sums = []
    for i in range(count):
        general = [rng.randrange(q) for _ in range(n)]
        terms = [(general, shared)]
        if i % 3 == 0:
            terms.append((shared, key))
        if i % 4 == 0:
            other = [rng.randrange(q) for _ in range(n)]
            terms += [(key, other), (general, shared)]
        sums.append(terms)
    return sums


def _alone(sums, n, q):
    pure = resolve_backend("pure")
    return [
        pure.negacyclic_multiply([[(list(a), list(b)) for a, b in terms]], n, q)[0]
        for terms in sums
    ]


@pytest.mark.parametrize(
    "profile,count",
    [(TEST, None), pytest.param(SMALL, 5, marks=pytest.mark.slow)],
    ids=["test", "small"],
)
def test_many_sums_equal_each_sum_alone(profile, count):
    """Enough sums for several groups on the general basis, then with
    every pair ternary (the ternary basis at SMALL, the direct path at
    TEST); each group boundary falls between sums that share
    Residents."""
    n, q = profile.n, profile.q
    rng = random.Random(profile.n)
    vectorized = resolve_backend("numpy")
    if count is None:
        count = 2 * _rows(profile, ternary=False)
    sums = _mixed_sums(profile, count, rng)
    assert len(list(nb._groups(sums, _rows(profile, ternary=False)))) > 1
    expected = _alone(sums, n, q)
    assert vectorized.negacyclic_multiply(sums, n, q) == expected
    # Again, with every Resident now holding its form.
    assert vectorized.negacyclic_multiply(sums, n, q) == expected

    ternary = [[terms[0]] for terms in sums]
    assert len(list(nb._groups(ternary, _rows(profile, ternary=True)))) > 1
    assert vectorized.negacyclic_multiply(ternary, n, q) == [
        _alone([terms], n, q)[0] for terms in ternary
    ]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
        max_size=12,
    ),
    rows=st.integers(1, 8),
)
def test_groups_are_consecutive_and_bounded(shape, rows):
    """The groups are the sums in order; a group of several sums holds
    at most ``rows`` distinct operands plus sums, and every group but
    the last would exceed that with the next sum."""
    pool = [[i] for i in range(6)]
    sums = [[(pool[a], pool[b]) for a, b in terms] for terms in shape]
    groups = list(nb._groups(sums, rows))
    assert [terms for group in groups for terms in group] == sums

    def held(group):
        operands = {id(x) for terms in group for pair in terms for x in pair}
        return len(operands) + len(group)

    for group, after in zip(groups, groups[1:] + [None]):
        assert group
        assert len(group) == 1 or held(group) <= rows
        if after is not None:
            assert held(group + after[:1]) > rows
