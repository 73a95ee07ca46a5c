"""§6.5: cost for committee members.

The committee threshold-decrypts the global ciphertext and reshares the
key via VSR.  The paper reports ~3 minutes of MPC and ~4.5 GB per member
at C = 10.  We measure the actual threshold decryption and VSR rotation
at the TEST ring and report the model numbers at deployment scale.
"""

import random

from benchmarks.conftest import format_table
from repro.analysis.committee_model import mpc_gb_per_member, mpc_minutes
from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.params import TEST


def _setup(threshold=2, size=3):
    rng = random.Random(17)
    secret, public = bgv.keygen(TEST, rng)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=list(range(size)), threshold=threshold, rng=rng
    )
    ct = bgv.encrypt_monomial(public, 5, rng)
    for _ in range(10):
        ct = bgv.add(ct, bgv.encrypt_monomial(public, 5, rng))
    return rng, secret, committee, ct


def test_threshold_decryption_latency(benchmark, report):
    rng, secret, committee, ct = _setup()
    plain, _ = benchmark.pedantic(
        lambda: committee_mod.threshold_decrypt(committee, ct, rng),
        rounds=3,
        iterations=1,
    )
    assert plain.coeffs[5] == 11
    report(
        "measured threshold decryption (TEST ring, C=3, t=2) benchmarked; "
        "model at deployment scale below"
    )


def test_vsr_rotation_latency(benchmark, report):
    rng, secret, committee, ct = _setup()

    def rotate():
        return committee_mod.rotate_committee(
            committee, new_member_ids=[7, 8, 9], new_threshold=2, rng=rng
        )

    new = benchmark.pedantic(rotate, rounds=1, iterations=1)
    plain, _ = committee_mod.threshold_decrypt(new, ct, rng)
    assert plain.coeffs[5] == 11
    report(
        "VSR rotation (64-coefficient TEST key, C=3) benchmarked; key "
        "decrypts correctly after handoff"
    )


def test_committee_cost_model(benchmark, report):
    sizes = (10, 20, 40)
    rows = benchmark(
        lambda: [(c, mpc_minutes(c), mpc_gb_per_member(c)) for c in sizes]
    )
    report(
        *format_table(
            "§6.5 committee costs at deployment scale",
            ["committee size", "MPC minutes", "GB per member"],
            [list(r) for r in rows],
        ),
        "paper anchors at C=10: ~3 minutes, ~4.5 GB per member",
    )
    assert rows[0] == (10, 3.0, 4.5)
