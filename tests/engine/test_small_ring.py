"""Ring-size generality: the pipeline is profile-independent.

The suite mostly runs at the tiny TEST ring; this module exercises one
full encrypted query at the SMALL ring (N=1024, 900-bit q) to guard
against anything accidentally hard-coded to n=64.
"""

import random

import pytest

from repro.crypto import bgv
from repro.crypto.zksnark import Groth16System
from repro.engine.encrypted import EncryptedExecutor
from repro.engine.plaintext import aggregate_coefficients
from repro.engine.zkcircuits import build_circuits
from repro.params import SMALL, SystemParameters
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import DEFAULT_SCHEMA
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph


@pytest.mark.slow
def test_small_ring_end_to_end():
    rng = random.Random(123)
    graph = generate_household_graph(
        6, degree_bound=2, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    secret, public = bgv.keygen(SMALL, rng)
    zk = Groth16System.setup(build_circuits(), rng)
    # The full default schema fits comfortably in 1024 coefficients:
    # SUM(edge.duration) with d=2 needs 2*240+1 = 481.
    plan = compile_query(
        parse(
            "SELECT HISTO(SUM(edge.duration)) FROM neigh(1) WHERE dest.inf"
        ),
        SystemParameters(degree_bound=2),
        DEFAULT_SCHEMA,
    )
    plan.validate_feasible(SMALL)
    executor = EncryptedExecutor(plan, public, zk, rng)
    submissions = executor.run(graph)
    total = [0] * plan.layout.total_coefficients
    for submission in submissions:
        plain = bgv.decrypt(secret, submission.ciphertext)
        for i in range(len(total)):
            total[i] += plain.coeffs[i]
    expected, _ = aggregate_coefficients(plan, graph)
    assert total == expected


@pytest.mark.slow
def test_small_ring_threshold_decryption():
    from repro.core import committee as committee_mod

    rng = random.Random(124)
    secret, public = bgv.keygen(SMALL, rng)
    # Sharing 1024 coefficients costs 2048 Feldman commitments (~0.3 ms
    # each from the group's fixed-base table); a 2-of-3 committee keeps
    # that count down.
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[1, 2, 3], threshold=2, rng=rng
    )
    ct = bgv.encrypt_monomial(public, 321, rng)
    plain, _ = committee_mod.threshold_decrypt(committee, ct, rng)
    assert plain.coeffs[321] == 1
