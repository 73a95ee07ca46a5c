"""Threshold decryption takes every member's ``c1·s_i`` in one kernel call.

Each attempt hands the backend one product sum per member, all sharing
one ``c1`` operand, and each member's key share is a resident operand
whose evaluation form outlives the attempt.  The partials are the ones
:func:`committee.partial_decrypt` computes member by member.
"""

import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.params import SMALL, TEST
from repro.runtime import backends


@pytest.fixture(scope="module", params=[TEST, SMALL], ids=["test", "small"])
def genesis(request):
    profile = request.param
    rng = random.Random(91)
    secret, public = bgv.keygen(profile, rng)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[2, 5, 9, 12, 20], threshold=3, rng=rng
    )
    plain = bgv.monomial(profile, 4)
    (ct,) = bgv.encrypt(public, [plain], rng)
    return secret, committee, ct


@pytest.mark.parametrize("backend", backends.available_backends())
def test_one_kernel_call_per_attempt(genesis, backend, monkeypatch):
    secret, committee, ct = genesis
    expected = bgv.decrypt(secret, ct)
    calls = []
    original = backends.ring_multiply

    def spy(sums, n, q):
        calls.append(sums)
        return original(sums, n, q)

    monkeypatch.setattr(backends, "ring_multiply", spy)
    with backends.use_backend(backend):
        for members in (committee.members, committee.members[1:4]):
            calls.clear()
            plain, flagged = committee_mod.threshold_decrypt(
                committee, ct, random.Random(3),
                participating=[m.device_id for m in members],
            )
            (sums,) = calls
            assert plain == expected and not flagged
            assert [[y for _, y in terms] for terms in sums] == [
                [m.resident] for m in members
            ]
            assert len({id(x) for terms in sums for x, _ in terms}) == 1


def test_share_forms_outlive_the_attempt(genesis):
    pytest.importorskip("numpy")
    _, committee, ct = genesis
    with backends.use_backend("numpy"):
        committee_mod.threshold_decrypt(committee, ct, random.Random(4))
    for member in committee.members:
        assert any(key[0] == "numpy" for key in member.resident.forms)
        assert member.resident.coeffs == member.key_share.values


@pytest.mark.parametrize("backend", backends.available_backends())
def test_batched_partials_are_the_single_ones(genesis, backend):
    _, committee, ct = genesis
    profile = committee.profile
    members = committee.members
    smudges = committee_mod.shared_smudge_shares(
        members, profile, committee.threshold, random.Random(6)
    )
    with backends.use_backend(backend):
        products = committee_mod._share_products(members, ct, profile)
        batched = [
            committee_mod.partial_decrypt(m, ct, profile, smudges[m.share_index], p)
            for m, p in zip(members, products)
        ]
        single = [
            committee_mod.partial_decrypt(m, ct, profile, smudges[m.share_index])
            for m in members
        ]
    assert batched == single
    share = lambda m: bgv.RingElement.from_coeffs(profile.ring, list(m.key_share.values))
    assert products[0] == ct.components[1] * share(members[0])
