"""The aggregator's one root relinearization against one per submission.

The aggregator sums the accepted submissions as submitted and folds the
sum once (§5's "one-time operation").  Each fold adds key-switching
noise, so one fold of the sum must carry no more noise — measured with
the secret key, and as the analytic tag — than the sum of per-submission
folds, and it must decrypt to the same plaintext.  Every origin of a
cycle has two neighbours, so ``HISTO(COUNT(*)) FROM neigh(1)`` makes
every submission a degree-2 product.
"""

import random

import pytest

from repro.core.aggregator import QueryAggregator, tree_reduce
from repro.crypto import bgv, zksnark
from repro.engine.encrypted import EncryptedExecutor
from repro.engine.plaintext import aggregate_coefficients
from repro.engine.zkcircuits import build_circuits
from repro.params import SMALL, TEST, SystemParameters
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.runtime import available_backends, use_backend
from repro.workloads.graphgen import ContactGraph

PARAMS = SystemParameters(degree_bound=2)
QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1)"


def _cycle(people: int) -> ContactGraph:
    graph = ContactGraph(degree_bound=2)
    for _ in range(people):
        graph.add_vertex()
    for v in range(people):
        graph.add_edge(v, (v + 1) % people)
    return graph


@pytest.mark.parametrize(
    "profile,people", [(TEST, 48), (SMALL, 6)], ids=["TEST-48", "SMALL-6"]
)
def test_one_root_fold_is_no_noisier_than_one_per_submission(profile, people):
    backend = "numpy" if "numpy" in available_backends() else "pure"
    rng = random.Random(26)
    graph = _cycle(people)
    plan = compile_query(parse(QUERY), PARAMS, scaled_schema())
    with use_backend(backend):
        secret, public = bgv.keygen(profile, rng)
        relin = bgv.make_relin_keys(secret, 2, rng)
        zk = zksnark.Groth16System.setup(build_circuits(), rng)
        submissions = EncryptedExecutor(plan, public, zk, rng).run(graph)
        assert [s.ciphertext.degree for s in submissions] == [2] * people
        released = (
            QueryAggregator(zk=zk, relin_keys=relin)
            .aggregate(submissions)
            .ciphertext
        )
        reference = tree_reduce(
            [bgv.relinearize(s.ciphertext, relin) for s in submissions]
        )
        assert released.degree == reference.degree == 1
        assert bgv.exact_noise_bits(secret, released) <= bgv.exact_noise_bits(
            secret, reference
        )
        assert released.noise_bits <= reference.noise_bits
        plain = bgv.decrypt(secret, released)
        assert plain == bgv.decrypt(secret, reference)
    expected, _ = aggregate_coefficients(plan, graph)
    assert list(plain.coeffs[: len(expected)]) == expected
