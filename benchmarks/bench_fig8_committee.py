"""Figure 8: committee-size trade-offs.

(a) probability that enough committee members are malicious to
reconstruct the key (privacy failure); (b) probability that enough are
online to decrypt (liveness).  Larger committees are safer but cost
more bandwidth — the §6.5 cost model quantifies the other side.

Plus the robust-decode axis: actively-secure decryption used to cost
one full decryption per threshold-sized member subset (C(n, t) rounds,
majority vote); single-pass Reed-Solomon decoding does it in one round
regardless of committee size.
"""

import random
import time
from itertools import combinations

from benchmarks.conftest import format_table
from repro.analysis.committee_model import (
    figure_8a_series,
    figure_8b_series,
    liveness_probability,
    mpc_gb_per_member,
    mpc_minutes,
    privacy_failure_probability,
)
from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.crypto.polyring import RingElement
from repro.params import TEST


def test_fig8a_privacy_failure(benchmark, report):
    series = benchmark(figure_8a_series)
    rows = []
    for size, points in sorted(series.items()):
        for malice, probability in points:
            rows.append([size, f"{malice:.1%}", f"{probability:.3e}"])
    report(
        *format_table(
            "Figure 8(a): probability of privacy failure",
            ["committee size", "malicious users", "P[failure]"],
            rows,
        )
    )
    # Bigger committees are exponentially safer.
    assert privacy_failure_probability(40, 0.04) < (
        privacy_failure_probability(10, 0.04) ** 2
    )


def test_fig8b_liveness(benchmark, report):
    series = benchmark(figure_8b_series)
    rows = []
    for size, points in sorted(series.items()):
        for churn, probability in points:
            rows.append([size, f"{churn:.0%}", probability])
    report(
        *format_table(
            "Figure 8(b): probability of liveness",
            ["committee size", "malice + churn", "P[liveness]"],
            rows,
        )
    )
    assert liveness_probability(10, 0.02) > 0.999


def test_fig8_cost_side(benchmark, report):
    """§6.5: the bandwidth/compute price of bigger committees."""
    sizes = (10, 20, 40)
    costs = benchmark(
        lambda: [(c, mpc_minutes(c), mpc_gb_per_member(c)) for c in sizes]
    )
    report(
        *format_table(
            "Committee cost model (§6.5 anchors at C=10)",
            ["committee size", "MPC minutes", "GB per member"],
            [list(row) for row in costs],
        )
    )
    assert costs[0][1] == 3.0
    assert costs[0][2] == 4.5


def _lie(corrupt):
    """The corruption hook: each listed member's partial is off by one."""
    return lambda device_id, value: (
        value + RingElement.constant(value.params, 1)
        if device_id in corrupt
        else value
    )


def _subset_enumeration_decrypt(committee, ciphertext, rng, corrupt):
    """The pre-robust baseline, preserved here for comparison: decrypt
    with every threshold-sized member subset (no redundancy, so no
    detection) and majority-vote.  One "round" is one full decryption —
    C(n, t) of them."""
    votes: dict[tuple, int] = {}
    rounds = 0
    for subset in combinations(committee.members, committee.threshold):
        rounds += 1
        plaintext, _ = committee_mod.threshold_decrypt(
            committee, ciphertext, rng,
            participating=[m.device_id for m in subset],
            corrupt=_lie(corrupt),
        )
        votes[plaintext.coeffs] = votes.get(plaintext.coeffs, 0) + 1
    majority = max(votes, key=lambda k: votes[k])
    return (
        RingElement(committee.profile.plaintext_ring, majority),
        rounds,
    )


def test_robust_decode_vs_subset_enumeration(benchmark, report):
    """The robust-decode axis: wall time and round count, old vs new,
    one corrupt member in every committee."""
    setup = random.Random(88)
    secret, public = bgv.keygen(TEST, setup)
    ciphertext = bgv.encrypt_monomial(public, 6, setup)
    oracle = tuple(bgv.decrypt(secret, ciphertext).coeffs)

    rows = []
    timings = {}
    for size in (5, 7, 9):
        committee = committee_mod.genesis_share_key(
            secret, member_ids=list(range(1, size + 1)), threshold=2,
            rng=random.Random(size),
        )
        corrupt = {committee.members[0].device_id}

        start = time.perf_counter()
        old_plain, old_rounds = _subset_enumeration_decrypt(
            committee, ciphertext, random.Random(7), corrupt
        )
        old_seconds = time.perf_counter() - start

        start = time.perf_counter()
        new_plain, flagged = committee_mod.threshold_decrypt(
            committee, ciphertext, random.Random(7),
            corrupt=_lie(corrupt),
        )
        new_seconds = time.perf_counter() - start

        assert tuple(old_plain.coeffs) == oracle
        assert tuple(new_plain.coeffs) == oracle
        assert flagged == corrupt
        timings[size] = (old_seconds, new_seconds)
        rows.append([
            size,
            old_rounds,
            1,
            f"{old_seconds * 1e3:.1f}",
            f"{new_seconds * 1e3:.1f}",
            f"{old_seconds / new_seconds:.1f}x",
        ])

    # One steady-state measurement for the BENCH record's span metrics.
    committee = committee_mod.genesis_share_key(
        secret, member_ids=list(range(1, 10)), threshold=2,
        rng=random.Random(9),
    )
    benchmark(
        lambda: committee_mod.threshold_decrypt(
            committee, ciphertext, random.Random(7),
            corrupt=_lie({committee.members[0].device_id}),
        )
    )
    report(
        *format_table(
            "Robust decode vs subset enumeration (threshold 2, one liar)",
            [
                "committee size", "rounds (subset)", "rounds (robust)",
                "subset ms", "robust ms", "speedup",
            ],
            rows,
        )
    )
    # The single-pass decode must never lose to C(n, t) enumeration
    # once the committee is big enough for the gap to dominate jitter.
    for size, (old_seconds, new_seconds) in timings.items():
        if size >= 7:
            assert new_seconds <= old_seconds, (
                f"robust decode slower than subset enumeration at "
                f"n={size}: {new_seconds:.4f}s vs {old_seconds:.4f}s"
            )
