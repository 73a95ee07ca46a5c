"""The encrypted distributed executor (§4.3-§4.5).

Runs a compiled plan the way the deployed system would: destinations
encrypt monomial contributions under the system BGV key, origins combine
them homomorphically (bucket selection, products, group shifts) without
ever seeing plaintext neighbor data, and every party attaches the §4.6
zero-knowledge proofs.

The origin combination is a *pure deterministic function* of the
origin's private decisions, the input ciphertexts, and a seed for its
fresh encryptions — it is the body of the ``wf-aggregation`` circuit,
and a leaf's encryption the body of ``wf-encryption``.  An honest device
runs each once, inside the prover, and submits the proof's output;
only a Byzantine device builds a ciphertext outside a proof.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro import telemetry
from repro.crypto import bgv, zksnark
from repro.crypto.polyring import RingElement
from repro.engine import semantics, zkcircuits
from repro.engine.malicious import Behavior
from repro.errors import ProtocolError
from repro.params import BGVProfile
from repro.query import ast
from repro.query.plans import ExecutionPlan
from repro.runtime import TaskFabric, derive_rng
from repro.workloads.graphgen import ContactGraph


@dataclass(frozen=True)
class LeafMessage:
    """One proved contribution ciphertext from a destination."""

    sender: int
    ciphertext: bgv.Ciphertext
    statement: zksnark.Statement
    proof: zksnark.Proof


@dataclass(frozen=True)
class DestResponse:
    """Everything a destination sends for one (origin, neighbor) slot:
    one message normally, ``num_buckets`` for §4.5 sequences."""

    messages: tuple[LeafMessage, ...]

    @property
    def ciphertexts(self) -> tuple[bgv.Ciphertext, ...]:
        return tuple(m.ciphertext for m in self.messages)


@dataclass(frozen=True)
class OriginSubmission:
    """What the aggregator receives from one origin vertex."""

    origin: int
    ciphertext: bgv.Ciphertext
    aggregate_statement: zksnark.Statement
    aggregate_proof: zksnark.Proof
    leaves: tuple[LeafMessage, ...]
    #: Multi-hop only: intermediate nodes' (output, statement, proof).
    intermediates: tuple[
        tuple[bgv.Ciphertext, zksnark.Statement, zksnark.Proof], ...
    ] = ()


@dataclass
class RunStats:
    """Bookkeeping for tests and benchmarks."""

    leaf_ciphertexts: int = 0
    multiplications: int = 0
    origin_filtered_leaves: int = 0
    #: Selected neighbors whose term defaulted to Enc(x^0) (§4.4).
    defaulted_members: int = 0
    behaviors_applied: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class MultihopDecisions:
    """Origin/intermediate decisions for k-hop tree aggregation."""

    contributes: bool


def leaf_max_exponent(plan: ExecutionPlan) -> int:
    """Upper bound on one contribution's exponent (the ZKP range)."""
    if plan.is_ratio:
        assert plan.layout.pair_base is not None
        return plan.layout.pair_base + plan.layout.max_value
    return plan.layout.max_value


# ---------------------------------------------------------------------------
# Destination side
# ---------------------------------------------------------------------------


def leaf_randomness(
    profile: BGVProfile, master_seed: int, origin: int, index: int
) -> bgv.EncryptionRandomness:
    """Entry ``index`` of one origin's leaf-encryption stream.

    Derived from ``(master_seed, origin, index)`` alone, so a leaf's
    ciphertext does not depend on worker count, execution order, or how
    much randomness any other draw consumed.
    """
    rng = derive_rng(master_seed, "origin", origin, "leaf-enc", index)
    return bgv.EncryptionRandomness.generate(profile, rng)


def _leaf_stream(profile: BGVProfile, master_seed: int, origin: int):
    """One origin's leaf randomness, entries 0, 1, 2, … in order."""
    for index in itertools.count():
        yield leaf_randomness(profile, master_seed, origin, index)


#: Leaf behaviours that encrypt outside any proof and forge one.
_FORGED_LEAVES = frozenset(
    {
        Behavior.OVERSIZED_EXPONENT,
        Behavior.MULTI_COEFFICIENT,
        Behavior.LARGE_COEFFICIENT,
        Behavior.FORGED_PROOF,
    }
)


def _leaf_messages(
    zk: zksnark.Groth16System,
    pk: bgv.PublicKey,
    sender: int,
    exponents: list[int],
    rng: random.Random,
    behavior: Behavior,
    max_exponent: int,
    leaf_source=None,
) -> list[LeafMessage]:
    """Encrypt and prove one device's contributions, applying a
    Byzantine behaviour.

    Honest leaves are the outputs of their well-formedness proofs, all
    proved in one call: their randomness is drawn first, leaf by leaf,
    in the order a leaf-at-a-time device draws it.  Behaviours that
    break well-formedness, or forge regardless, encrypt each leaf
    outside any proof and forge one, drawing from ``rng`` leaf by leaf.
    ``leaf_source`` (:func:`_leaf_stream`) supplies the ephemeral values;
    without one they are drawn from ``rng``.
    """

    def draw() -> bgv.EncryptionRandomness:
        if leaf_source is not None:
            return next(leaf_source)
        return bgv.EncryptionRandomness.generate(pk.profile, rng)

    if behavior in _FORGED_LEAVES:
        return [
            _forged_leaf(pk, sender, exponent, draw(), rng, behavior, max_exponent)
            for exponent in exponents
        ]
    if behavior is Behavior.LIE_IN_RANGE:
        exponents = [(exponent + 1) % (max_exponent + 1) for exponent in exponents]
    witnesses = [
        zkcircuits.LeafWitness(
            exponent=exponent,
            randomness=draw(),
            public_key=pk,
            max_exponent=max_exponent,
        )
        for exponent in exponents
    ]
    return [
        LeafMessage(sender, ciphertext, statement, proof)
        for statement, proof, ciphertext in zk.prove(zkcircuits.LEAF_CIRCUIT, witnesses)
    ]


def _forged_leaf(
    pk: bgv.PublicKey,
    sender: int,
    exponent: int,
    randomness: bgv.EncryptionRandomness,
    rng: random.Random,
    behavior: Behavior,
    max_exponent: int,
) -> LeafMessage:
    """One leaf a forging ``behavior`` encrypts outside any proof."""
    if behavior is Behavior.OVERSIZED_EXPONENT:
        bad = min(pk.profile.n - 1, max_exponent + 5)
        forged = bgv.encrypt_monomial(pk, bad, rng, randomness=randomness)
    elif behavior is Behavior.MULTI_COEFFICIENT:
        poly = RingElement.from_coeffs(pk.profile.plaintext_ring, [1, 1, 1])
        (forged,) = bgv.encrypt(pk, [poly], rng, randomness=[randomness])
    elif behavior is Behavior.LARGE_COEFFICIENT:
        forged = bgv.encrypt_monomial(
            pk, exponent, rng, coeff=5, randomness=randomness
        )
    else:  # FORGED_PROOF: a well-formed ciphertext, a forged proof
        forged = bgv.encrypt_monomial(pk, exponent, rng, randomness=randomness)
    statement = zkcircuits.leaf_statement(forged, pk, max_exponent)
    return LeafMessage(sender, forged, statement, zksnark.forge_proof(statement, rng))


def dest_compute(
    plan: ExecutionPlan,
    pk: bgv.PublicKey,
    zk: zksnark.Groth16System,
    graph: ContactGraph,
    origin: int,
    neighbor: int,
    rng: random.Random,
    behavior: Behavior = Behavior.HONEST,
    leaf_source=None,
) -> DestResponse | None:
    """The destination's answer for one neighbor slot (§4.3, §4.5).

    Returns None for :attr:`Behavior.DROP_MESSAGE` (and for offline
    devices, which callers model the same way).  ``leaf_source`` is an
    iterator (:func:`_leaf_stream`) supplying each leaf's encryption
    randomness from a seed-stable chain; without one, randomness comes
    from ``rng``.  The slot's leaves — one per bucket — are proved in one
    batch (:func:`_leaf_messages`).
    """
    if behavior is Behavior.DROP_MESSAGE:
        return None
    contribution = semantics.neighbor_contribution(plan, graph, origin, neighbor)
    if plan.cross is None:
        exponents = [contribution.exponent]
    else:
        exponents = [
            contribution.exponent if bucket == contribution.bucket else 0
            for bucket in range(plan.cross.num_buckets)
        ]
    messages = _leaf_messages(
        zk,
        pk,
        neighbor,
        exponents,
        rng,
        behavior,
        leaf_max_exponent(plan),
        leaf_source=leaf_source,
    )
    return DestResponse(messages=tuple(messages))


# ---------------------------------------------------------------------------
# Origin side (also the body of the wf-aggregation circuit)
# ---------------------------------------------------------------------------


def origin_combine(
    witness: zkcircuits.AggregateWitness,
) -> tuple[bgv.Ciphertext, int]:
    """Deterministically combine neighbor ciphertexts per the plan; the
    result and the ciphertext products it took.

    ``witness.inputs`` maps members to their ciphertexts; members absent
    from it defaulted (offline / dropped / filtered) and are replaced
    with fresh Enc(x^0), which is neutral in the product (§4.4).
    """
    plan, pk, decisions, inputs = (
        witness.plan, witness.public_key, witness.decisions, witness.inputs
    )
    rng = random.Random(witness.seed)
    if not decisions.contributes:
        return bgv.encrypt_zero_like(pk, rng), 0
    if isinstance(decisions, MultihopDecisions):
        return _product(
            pk, [ct for member in sorted(inputs) for ct in inputs[member]], rng
        )
    _validate_decisions(plan, decisions)
    num_buckets = plan.cross.num_buckets if plan.cross is not None else 1
    for member, cts in inputs.items():
        if len(cts) != num_buckets:
            raise ProtocolError(
                f"member {member} supplied {len(cts)} ciphertexts, "
                f"expected {num_buckets}"
            )

    group_terms: dict[int, bgv.Ciphertext] = {}
    products = 0
    for group in semantics.origin_groups(plan, decisions):
        if plan.group_site is ast.ColumnGroup.EDGE:
            members = [
                n
                for n in decisions.selected_neighbors
                if decisions.group_of_neighbor.get(n) == group
            ]
        else:
            members = list(decisions.selected_neighbors)
        group_terms[group], count = _product(
            pk,
            [
                _member_term(plan, pk, decisions, inputs, member, group, rng)
                for member in members
            ],
            rng,
        )
        products += count

    if not group_terms:
        # Edge-site GROUP BY with no neighbors: no group exists for this
        # origin to report into, so it submits the additive identity
        # (matching the plaintext semantics of "no contribution").
        return bgv.encrypt_zero_like(pk, rng), 0
    total: bgv.Ciphertext | None = None
    for group in sorted(group_terms):
        shifted = bgv.shift(group_terms[group], group * plan.layout.block_size)
        total = shifted if total is None else bgv.add(total, shifted)
    return total, products


def _product(
    pk: bgv.PublicKey, factors: list[bgv.Ciphertext], rng: random.Random
) -> tuple[bgv.Ciphertext, int]:
    """The product of ``factors`` and the multiplications it took; a
    fresh Enc(x^0) when there are none."""
    if not factors:
        return bgv.encrypt_monomial(pk, 0, rng), 0
    product = factors[0]
    for factor in factors[1:]:
        product = bgv.multiply(product, factor)
    return product, len(factors) - 1


def _member_term(
    plan: ExecutionPlan,
    pk: bgv.PublicKey,
    decisions,
    inputs: dict[int, tuple[bgv.Ciphertext, ...]],
    member: int,
    group: int,
    rng: random.Random,
) -> bgv.Ciphertext:
    """One neighbor's factor in a group's product."""
    cts = inputs.get(member)
    if cts is None:
        return bgv.encrypt_monomial(pk, 0, rng)
    if plan.cross is None:
        return cts[0]
    allowed = decisions.buckets_per_group.get(group, ())
    if not allowed:
        return bgv.encrypt_monomial(pk, 0, rng)
    total = None
    for bucket in allowed:
        total = cts[bucket] if total is None else bgv.add(total, cts[bucket])
    if len(allowed) > 1:
        (constant,) = bgv.encrypt(
            pk,
            [RingElement.constant(pk.profile.plaintext_ring, len(allowed) - 1)],
            rng,
        )
        total = bgv.subtract(total, constant)
    return total


def _validate_decisions(plan: ExecutionPlan, decisions) -> None:
    """Structural constraints the aggregation circuit enforces: no
    double-counting, degree bound, in-range groups and buckets."""
    selected = decisions.selected_neighbors
    if len(set(selected)) != len(selected):
        raise ProtocolError("duplicate members in aggregation")
    if len(selected) > plan.degree_bound:
        raise ProtocolError("aggregation exceeds the degree bound")
    if not 0 <= decisions.self_group < plan.layout.num_groups:
        raise ProtocolError("group index out of range")
    for group in decisions.group_of_neighbor.values():
        if not 0 <= group < plan.layout.num_groups:
            raise ProtocolError("group index out of range")
    if plan.cross is not None:
        for group, buckets in decisions.buckets_per_group.items():
            if not 0 <= group < plan.layout.num_groups:
                raise ProtocolError("group index out of range")
            if len(set(buckets)) != len(buckets):
                raise ProtocolError("duplicate buckets in selection")
            for bucket in buckets:
                if not 0 <= bucket < plan.cross.num_buckets:
                    raise ProtocolError("bucket index out of range")


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _run_origin_task(
    context: tuple, origin: int
) -> tuple[OriginSubmission, RunStats]:
    """Fabric task: one origin's full submission, with private stats.

    Builds a throwaway executor around an RNG derived from the run's
    master seed and the origin id, so the submission is a pure function
    of ``(context, origin)`` — independent of worker count, execution
    order, and of how much randomness other origins consumed.  Leaf
    encryption randomness comes from the origin's own
    ``(master_seed, origin, "leaf-enc", index)`` chain.
    """
    plan, pk, zk, graph, behaviors, offline, master_seed = context
    worker = EncryptedExecutor(
        plan,
        pk,
        zk,
        derive_rng(master_seed, "origin", origin),
        leaf_source=_leaf_stream(pk.profile, master_seed, origin),
    )
    if plan.hops == 1:
        submission = worker._run_one_hop(graph, origin, behaviors, offline)
    else:
        submission = worker._run_multi_hop(graph, origin, behaviors, offline)
    return submission, worker.stats


class EncryptedExecutor:
    """Run a plan over a graph with per-device Byzantine behaviours."""

    def __init__(
        self,
        plan: ExecutionPlan,
        pk: bgv.PublicKey,
        zk: zksnark.Groth16System,
        rng: random.Random,
        fabric: TaskFabric | None = None,
        leaf_source=None,
    ):
        self.plan = plan
        self.pk = pk
        self.zk = zk
        self.rng = rng
        self.fabric = fabric if fabric is not None else TaskFabric()
        #: Per-origin leaf randomness stream (set on worker executors by
        #: :func:`_run_origin_task`); None means draw from ``rng``.
        self.leaf_source = leaf_source
        self.stats = RunStats()

    def _behavior(self, behaviors, device: int) -> Behavior:
        return behaviors.get(device, Behavior.HONEST)

    def _merge_stats(self, other: RunStats) -> None:
        self.stats.leaf_ciphertexts += other.leaf_ciphertexts
        self.stats.multiplications += other.multiplications
        self.stats.origin_filtered_leaves += other.origin_filtered_leaves
        self.stats.defaulted_members += other.defaulted_members
        for name, hits in other.behaviors_applied.items():
            self.stats.behaviors_applied[name] = (
                self.stats.behaviors_applied.get(name, 0) + hits
            )

    def run(
        self,
        graph: ContactGraph,
        behaviors: dict[int, Behavior] | None = None,
        offline: set[int] | None = None,
        master_seed: int | None = None,
    ) -> list[OriginSubmission]:
        """Produce every origin's submission (one per online vertex).

        Origins are independent, so they are sharded across the fabric.
        One master seed is drawn from this executor's RNG up front and
        each origin works from an RNG derived from (master seed, origin
        id): the output is bit-identical at any worker count, and the
        whole run stays a deterministic function of the executor's RNG
        state, exactly as the sequential implementation was.  Passing
        ``master_seed`` pins that draw instead.
        """
        behaviors = behaviors or {}
        offline = offline or set()
        origins = [
            origin
            for origin in range(graph.num_vertices)
            if origin not in offline
        ]
        if master_seed is None:
            master_seed = self.rng.getrandbits(64)
        context = (
            self.plan, self.pk, self.zk, graph, behaviors, offline,
            master_seed,
        )
        results = self.fabric.map(
            _run_origin_task, origins, context=context, label="engine.origins"
        )
        submissions = []
        defaulted = 0
        for submission, stats in results:
            submissions.append(submission)
            self._merge_stats(stats)
            defaulted += stats.defaulted_members
        if self.fabric.last_out_of_process and defaulted:
            # Worker processes run with telemetry inactive; account for
            # their defaulted-contribution counts here.  The in-process
            # path already counted them inside build_origin_submission.
            telemetry.count("engine.defaults.total", defaulted)
        return submissions

    def _collect_leaf(
        self,
        graph: ContactGraph,
        origin: int,
        neighbor: int,
        behaviors: dict[int, Behavior],
        offline: set[int],
    ) -> DestResponse | None:
        if neighbor in offline:
            return None
        behavior = self._behavior(behaviors, neighbor)
        if behavior is not Behavior.HONEST:
            name = behavior.value
            self.stats.behaviors_applied[name] = (
                self.stats.behaviors_applied.get(name, 0) + 1
            )
        return dest_compute(
            self.plan,
            self.pk,
            self.zk,
            graph,
            origin,
            neighbor,
            self.rng,
            behavior,
            leaf_source=self.leaf_source,
        )

    def _filter_leaves(
        self, response: DestResponse | None
    ) -> tuple[bgv.Ciphertext, ...] | None:
        """Origin-side proof check: a response with any invalid proof is
        treated as missing (replaced by the neutral element), bounding a
        Byzantine neighbor's influence (§4.6)."""
        if response is None:
            return None
        for message in response.messages:
            if not self.zk.verify(message.statement, message.proof):
                self.stats.origin_filtered_leaves += 1
                return None
        return response.ciphertexts

    def _run_one_hop(
        self,
        graph: ContactGraph,
        origin: int,
        behaviors: dict[int, Behavior],
        offline: set[int],
    ) -> OriginSubmission:
        decisions = semantics.origin_decisions(self.plan, graph, origin)
        inputs: dict[int, tuple[bgv.Ciphertext, ...]] = {}
        leaves: list[LeafMessage] = []
        for neighbor in decisions.selected_neighbors:
            response = self._collect_leaf(graph, origin, neighbor, behaviors, offline)
            cts = self._filter_leaves(response)
            if cts is None:
                continue
            inputs[neighbor] = cts
            leaves.extend(response.messages)
            self.stats.leaf_ciphertexts += len(cts)
        return self.build_origin_submission(
            graph, origin, decisions, inputs, leaves, behaviors
        )

    def _aggregate(
        self,
        decisions,
        inputs: dict[int, tuple[bgv.Ciphertext, ...]],
        behavior: Behavior = Behavior.HONEST,
    ) -> tuple[bgv.Ciphertext, zksnark.Statement, zksnark.Proof]:
        """This device's combination of ``inputs``, with its proof.

        An honest device's ciphertext is the output of its aggregation
        proof.  A forging one combines outside any proof — BAD_AGGREGATION
        then submits a ciphertext that is *not* the combination — and
        forges the proof.
        """
        witness = zkcircuits.AggregateWitness(
            plan=self.plan,
            decisions=decisions,
            seed=self.rng.getrandbits(64),
            inputs=inputs,
            public_key=self.pk,
        )
        if behavior not in (Behavior.BAD_AGGREGATION, Behavior.FORGED_PROOF):
            ((statement, proof, (output, products)),) = self.zk.prove(
                zkcircuits.AGGREGATE_CIRCUIT, [witness]
            )
        else:
            output, products = origin_combine(witness)
            if behavior is Behavior.BAD_AGGREGATION:
                output = bgv.encrypt_monomial(
                    self.pk, min(self.pk.profile.n - 1, 3), self.rng
                )
            statement = zkcircuits.aggregate_statement(
                output, inputs, self.pk, self.plan
            )
            proof = zksnark.forge_proof(statement, self.rng)
        self.stats.multiplications += products
        return output, statement, proof

    def build_origin_submission(
        self,
        graph: ContactGraph,
        origin: int,
        decisions,
        inputs: dict[int, tuple[bgv.Ciphertext, ...]],
        leaves: list[LeafMessage],
        behaviors: dict[int, Behavior] | None = None,
    ) -> OriginSubmission:
        """Combine already-collected (and proof-checked) neighbor
        ciphertexts into this origin's proved submission.

        Used both by :meth:`run` (in-process transport) and by the
        mixnet transport, where the inputs arrived as onion-routed
        mailbox payloads.
        """
        behaviors = behaviors or {}
        missing = [
            member
            for member in getattr(decisions, "selected_neighbors", ())
            if inputs.get(member) is None
        ]
        if missing:
            self.stats.defaulted_members += len(missing)
            telemetry.count("engine.defaults.total", len(missing))
        output, statement, proof = self._aggregate(
            decisions, inputs, self._behavior(behaviors, origin)
        )
        ordered_leaves = tuple(
            message
            for member in sorted(inputs)
            for message in leaves
            if message.sender == member
        )
        return OriginSubmission(
            origin=origin,
            ciphertext=output,
            aggregate_statement=statement,
            aggregate_proof=proof,
            leaves=ordered_leaves,
        )

    def _run_multi_hop(
        self,
        graph: ContactGraph,
        origin: int,
        behaviors: dict[int, Behavior],
        offline: set[int],
    ) -> OriginSubmission:
        """§4.4 flooding/aggregation over the BFS spanning tree."""
        plan = self.plan
        tree = graph.spanning_tree(origin, plan.hops)
        leaves: list[LeafMessage] = []
        intermediates: list[
            tuple[bgv.Ciphertext, zksnark.Statement, zksnark.Proof]
        ] = []
        max_exponent = leaf_max_exponent(plan)

        def node_indicator(node: int) -> bgv.Ciphertext | None:
            if node in offline and node != origin:
                return None
            behavior = self._behavior(behaviors, node)
            if behavior is Behavior.DROP_MESSAGE and node != origin:
                return None
            bindings = semantics.dest_vertex_bindings(graph, node)
            from repro.query.compiler import evaluate_all, evaluate_expression

            if evaluate_all(plan.dest_clauses, bindings):
                if plan.sum_expr is None:
                    exponent = 1
                else:
                    exponent = min(
                        max(0, evaluate_expression(plan.sum_expr, bindings)),
                        plan.layout.max_value,
                    )
            else:
                exponent = 0
            (message,) = _leaf_messages(
                self.zk,
                self.pk,
                node,
                [exponent],
                self.rng,
                behavior,
                max_exponent,
                leaf_source=self.leaf_source,
            )
            if not self.zk.verify(message.statement, message.proof):
                self.stats.origin_filtered_leaves += 1
                return None
            leaves.append(message)
            self.stats.leaf_ciphertexts += 1
            return message.ciphertext

        def subtree(node: int) -> bgv.Ciphertext | None:
            own = node_indicator(node)
            child_outputs: dict[int, tuple[bgv.Ciphertext, ...]] = {}
            for child in tree.get(node, []):
                result = subtree(child)
                if result is not None:
                    child_outputs[child] = (result,)
            if own is None and not child_outputs:
                return None
            inputs = dict(child_outputs)
            if own is not None:
                inputs[node] = (own,)
            if node != origin and own is not None and not child_outputs:
                # A pure leaf forwards its indicator unchanged; its leaf
                # proof already covers it.
                return own
            output, statement, proof = self._aggregate(
                MultihopDecisions(contributes=True), inputs
            )
            intermediates.append((output, statement, proof))
            return output

        bindings = semantics.origin_bindings(graph, origin)
        from repro.query.compiler import evaluate_all

        contributes = evaluate_all(plan.self_clauses, bindings)
        result = subtree(origin) if contributes else None
        if not contributes or result is None:
            output, statement, proof = self._aggregate(
                MultihopDecisions(contributes=False), {}
            )
            return OriginSubmission(
                origin=origin,
                ciphertext=output,
                aggregate_statement=statement,
                aggregate_proof=proof,
                leaves=(),
            )
        final_ct, final_statement, final_proof = intermediates.pop()
        return OriginSubmission(
            origin=origin,
            ciphertext=final_ct,
            aggregate_statement=final_statement,
            aggregate_proof=final_proof,
            leaves=tuple(leaves),
            intermediates=tuple(intermediates),
        )
