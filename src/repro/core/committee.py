"""Committees: threshold decryption, in-MPC noise, and VSR rotation
(§4.2, §5).

The BGV decryption key never exists in one place after genesis: each
committee holds Shamir shares of the secret ring element s (one sharing
per coefficient, over the prime field Z_q).  Because decryption of a
degree-1 ciphertext is *linear* in s —

    m = ((c0 + c1 * s) mod q centered) mod t

— each member computes a partial decryption c1 * s_i locally and any
``threshold`` of them recombine with Lagrange coefficients, which is
exactly the arithmetic the paper's SCALE-MAMBA MPC performs.  Members
add t-multiples of small smudging noise to their partials so the
recombination transcript hides s.

Laplace noise for differential privacy is sampled *inside* the MPC: each
member contributes a secret seed share, the XOR of all shares drives the
sampler, and only the noised aggregate leaves the committee.

Between queries the committee hands the key to its successor with
extended VSR (:mod:`repro.crypto.vsr`) — key generation happens once,
at genesis, no matter how many queries run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import telemetry
from repro.telemetry import clock
from repro.crypto import bgv, feldman, robust, shamir, vsr
from repro.crypto.polyring import RingElement
from repro.dp.laplace import sample_laplace
from repro.errors import (
    LivenessQuorumError,
    ProtocolError,
    SecretSharingError,
)
from repro.params import BGVProfile


@dataclass
class CommitteeMember:
    """One member's private state."""

    device_id: int
    share_index: int
    key_share: shamir.VectorShare


@dataclass
class Committee:
    """A committee epoch: members plus the verifiable sharing state."""

    profile: BGVProfile
    members: list[CommitteeMember]
    threshold: int
    commitments: list[feldman.PolynomialCommitment]
    epoch: int = 0

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def group(self) -> feldman.CommitmentGroup:
        return self.commitments[0].group

    def verify_member_shares(self, member: CommitteeMember) -> bool:
        """Feldman verification of every coefficient share."""
        for coeff_index, commitment in enumerate(self.commitments):
            share = shamir.Share(
                member.share_index, member.key_share.values[coeff_index]
            )
            if not commitment.verify_share(share):
                return False
        return True


def elect_committee(
    population: list[int], size: int, rng: random.Random
) -> list[int]:
    """Randomly elect committee devices from the population (§4.2)."""
    if size > len(population):
        raise ProtocolError("population smaller than the committee size")
    return sorted(rng.sample(population, size))


def genesis_share_key(
    secret: bgv.SecretKey,
    member_ids: list[int],
    threshold: int,
    rng: random.Random,
) -> Committee:
    """The genesis committee's one-time deal: share every coefficient of
    s to the first committee with Feldman commitments."""
    profile = secret.profile
    q = profile.q
    group = feldman.group_for_field(q)
    coefficients = list(secret.s.coeffs)
    per_member_values: list[list[int]] = [[] for _ in member_ids]
    commitments = []
    for value in coefficients:
        dealt = vsr.deal_initial(value, threshold, len(member_ids), group, rng)
        commitments.append(dealt.commitment)
        for i, share in enumerate(dealt.shares):
            per_member_values[i].append(share.value)
    members = [
        CommitteeMember(
            device_id=device,
            share_index=i + 1,
            key_share=shamir.VectorShare(i + 1, tuple(per_member_values[i])),
        )
        for i, device in enumerate(member_ids)
    ]
    return Committee(
        profile=profile,
        members=members,
        threshold=threshold,
        commitments=commitments,
    )


# ---------------------------------------------------------------------------
# Threshold decryption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialDecryption:
    """One member's lambda_i * c1 * s_i + t * e_i, a ring element.

    The Lagrange coefficient is applied by the member itself (the
    participating set, hence lambda_i, is public) so the smudging term
    t * e_i stays *small* in the combined phase — scaling the smudge by
    lambda afterwards would blow it past the noise bound.
    """

    share_index: int
    value: RingElement


def partial_decrypt(
    member: CommitteeMember,
    ciphertext: bgv.Ciphertext,
    profile: BGVProfile,
    lagrange_coefficient: int,
    rng: random.Random,
) -> PartialDecryption:
    """Local computation on a member's share — no interaction needed
    because decryption is linear in the key."""
    if ciphertext.degree != 1:
        raise ProtocolError(
            "threshold decryption needs a relinearized (degree-1) ciphertext"
        )
    ring = profile.ring
    share_poly = RingElement.from_coeffs(ring, list(member.key_share.values))
    smudge = RingElement.random_bounded(ring, profile.error_bound, rng)
    value = (ciphertext.components[1] * share_poly).scale(
        lagrange_coefficient
    ) + smudge.scale(profile.t)
    return PartialDecryption(share_index=member.share_index, value=value)


def combine_partials(
    ciphertext: bgv.Ciphertext,
    partials: list[PartialDecryption],
    profile: BGVProfile,
) -> RingElement:
    """Sum the (already lambda-scaled) partials and reduce to the
    plaintext."""
    if len(partials) < 1:
        raise SecretSharingError("no partial decryptions")
    acc = ciphertext.components[0]
    for partial in partials:
        acc = acc + partial.value
    plain = acc.lift_mod(profile.t)
    return RingElement.from_coeffs(profile.plaintext_ring, plain)


def threshold_decrypt(
    committee: Committee,
    ciphertext: bgv.Ciphertext,
    rng: random.Random,
    participating: list[int] | None = None,
) -> RingElement:
    """Full decryption flow with any ``threshold`` members online."""
    start = clock.perf_counter()
    members = committee.members
    if participating is not None:
        members = [m for m in members if m.device_id in participating]
    if len(members) < committee.threshold:
        raise LivenessQuorumError(
            f"only {len(members)} members available, need "
            f"{committee.threshold} for liveness"
        )
    chosen = members[: committee.threshold]
    lagrange = shamir.lagrange_coefficients_at_zero(
        [m.share_index for m in chosen], committee.profile.q
    )
    partials = [
        partial_decrypt(
            member,
            ciphertext,
            committee.profile,
            lagrange[member.share_index],
            rng,
        )
        for member in chosen
    ]
    plaintext = combine_partials(ciphertext, partials, committee.profile)
    telemetry.count("committee.decrypt.partials", len(partials))
    telemetry.observe(
        "committee.decrypt.seconds", clock.perf_counter() - start
    )
    return plaintext


def shared_smudge_shares(
    members: list[CommitteeMember],
    profile: BGVProfile,
    threshold: int,
    rng: random.Random,
) -> dict[int, RingElement]:
    """Shamir shares of one jointly-sampled smudging element.

    For robust decoding the partials themselves must form a Reed-Solomon
    codeword, so per-member *independent* smudging noise is out — it
    would add a random offset at every index and look like n errors.
    Instead the committee samples the smudge **inside the MPC** (the
    paper's SCALE-MAMBA committee already runs joint sampling for the
    Laplace noise, §5): one small ring element E plus ``threshold - 1``
    uniform masking elements U_d define the share polynomial
    ``E + sum_d U_d * x^d`` per ring coefficient, and member i holds its
    evaluation at ``x = share_index_i``.  The shares stay uniform below
    the threshold while the codeword property — degree < threshold with
    constant term E — is preserved.  We simulate the joint sampling with
    the coordinator's seeded rng.
    """
    ring = profile.ring
    q = profile.q
    small = RingElement.random_bounded(ring, profile.error_bound, rng)
    masks = [
        RingElement.random_uniform(ring, rng) for _ in range(threshold - 1)
    ]
    shares: dict[int, RingElement] = {}
    for member in members:
        acc = small
        x = member.share_index
        for d, mask in enumerate(masks, start=1):
            acc = acc + mask.scale(pow(x, d, q))
        shares[member.share_index] = acc
    return shares


def robust_partial_decrypt(
    member: CommitteeMember,
    ciphertext: bgv.Ciphertext,
    profile: BGVProfile,
    smudge_share: RingElement,
) -> PartialDecryption:
    """One member's *codeword* partial: ``c1 * s_i + t * e_i``.

    Unlike :func:`partial_decrypt` no Lagrange coefficient is applied —
    the robust decoder interpolates through the raw share evaluations,
    so coefficient j of the returned value is h_j(share_index) for the
    degree-(t-1) polynomial h_j with h_j(0) = (c1*s)_j + t*E_j.
    """
    if ciphertext.degree != 1:
        raise ProtocolError(
            "threshold decryption needs a relinearized (degree-1) ciphertext"
        )
    ring = profile.ring
    share_poly = RingElement.from_coeffs(ring, list(member.key_share.values))
    value = (ciphertext.components[1] * share_poly) + smudge_share.scale(
        profile.t
    )
    return PartialDecryption(share_index=member.share_index, value=value)


def robust_threshold_decrypt(
    committee: Committee,
    ciphertext: bgv.Ciphertext,
    rng: random.Random,
    corrupt_members: set[int] | None = None,
    corrupt=None,
    participating: list[int] | None = None,
) -> tuple[RingElement, set[int]]:
    """Actively-secure decryption in a single pass (§5).

    With Shamir sharing at threshold t < C/2 the secret is
    over-determined: each ring coefficient of the members' partials is a
    Reed-Solomon codeword, so Gao decoding reconstructs the plaintext
    through up to ``(n - t) // 2`` wrong partials and identifies exactly
    the lying members — no subset enumeration, no identification
    round-trip.  All ``ring.n`` coefficients are opened as one batch
    against the same share-index set, paying for a single error-locator
    computation (:func:`repro.crypto.robust.batch_robust_reconstruct`).

    ``corrupt_members`` injects a simple deterministic perturbation for
    those device ids (tests); ``corrupt`` is an injector-style callable
    ``(device_id, value) -> value`` applied to every partial — the
    :meth:`repro.faults.injector.FaultInjector.corrupt_partial` fault
    kind.  Returns ``(plaintext, flagged device ids)``; raises
    :class:`~repro.errors.RobustDecodingError` if more members lie than
    the code can correct (never a wrong plaintext).
    """
    start = clock.perf_counter()
    members = committee.members
    if participating is not None:
        members = [m for m in members if m.device_id in participating]
    if len(members) < committee.threshold + 1:
        raise ProtocolError(
            "error detection needs more members than the threshold"
        )
    profile = committee.profile
    ring = profile.ring
    with telemetry.span(
        "committee.robust_decode",
        members=len(members),
        width=ring.n,
    ):
        smudges = shared_smudge_shares(
            members, profile, committee.threshold, rng
        )
        bad = corrupt_members or set()
        partials: list[PartialDecryption] = []
        for member in members:
            partial = robust_partial_decrypt(
                member, ciphertext, profile, smudges[member.share_index]
            )
            value = partial.value
            if member.device_id in bad:
                value = value + RingElement.constant(
                    ring, member.device_id + 1
                )
            if corrupt is not None:
                value = corrupt(member.device_id, value)
            partials.append(
                PartialDecryption(member.share_index, value)
            )
        indices = [p.share_index for p in partials]
        rows = [
            [p.value.coeffs[j] for p in partials] for j in range(ring.n)
        ]
        secrets, flagged_indices, stats = robust.batch_robust_reconstruct(
            indices, rows, committee.threshold, profile.q
        )
        coeffs = [
            (c0 + s) % profile.q
            for c0, s in zip(ciphertext.components[0].coeffs, secrets)
        ]
        plain = RingElement.from_coeffs(ring, coeffs).lift_mod(profile.t)
        plaintext = RingElement.from_coeffs(profile.plaintext_ring, plain)
        device_by_index = {m.share_index: m.device_id for m in members}
        flagged = {device_by_index[i] for i in flagged_indices}
        telemetry.count("committee.decrypt.partials", len(partials))
        telemetry.count(
            "committee.robust.errors", stats.errors_corrected
        )
        telemetry.observe("committee.robust.batch_width", stats.width)
        if stats.locator_computations > 1:
            telemetry.count(
                "committee.robust.fallbacks",
                stats.locator_computations - 1,
            )
        telemetry.observe(
            "committee.robust.decode.seconds", clock.perf_counter() - start
        )
    return plaintext, flagged


def decrypt_with_liveness_retry(
    committee: Committee,
    ciphertext: bgv.Ciphertext,
    rng: random.Random,
    availability_schedule: list[list[int]],
    corrupt=None,
) -> tuple[RingElement, int, set[int]]:
    """§6.5: "If there aren't enough members for liveness, we simply
    have to wait for some amount of time before enough members are back,
    and retry the computation."

    ``availability_schedule[i]`` lists the member device ids online in
    attempt i (no churn to model = a single attempt).  ``corrupt``, the
    ``(device_id, value) -> value`` hook of a fault plan that names
    corrupt members, selects the algorithm: without it
    :func:`threshold_decrypt`, quorum ``threshold``; with it
    :func:`robust_threshold_decrypt`, quorum ``threshold + 1`` (error
    detection needs redundancy), which corrects through the liars and
    flags them — the emergency-reshare trigger's input.

    Only liveness misses are retried.  Any *other* ``ProtocolError`` —
    a malformed ciphertext, a decode failure under corruption —
    propagates immediately: retrying with the same members cannot fix a
    lie, and silently waiting would mask a Byzantine fault as churn.
    Returns ``(plaintext, attempts used, flagged device ids)``; raises
    :class:`~repro.errors.LivenessQuorumError` if the schedule ends
    without a quorum.
    """
    needed = committee.threshold + (1 if corrupt is not None else 0)
    for attempt, online in enumerate(availability_schedule, start=1):
        present = [
            m.device_id for m in committee.members if m.device_id in online
        ]
        if len(present) < needed:
            continue
        if corrupt is None:
            plaintext = threshold_decrypt(
                committee, ciphertext, rng, participating=present
            )
            return plaintext, attempt, set()
        plaintext, flagged = robust_threshold_decrypt(
            committee, ciphertext, rng, corrupt=corrupt, participating=present
        )
        return plaintext, attempt, flagged
    raise LivenessQuorumError(
        f"no attempt reached the decryption quorum of {needed} members"
    )


# ---------------------------------------------------------------------------
# In-MPC noise generation
# ---------------------------------------------------------------------------


def committee_noise(
    committee: Committee,
    num_values: int,
    scale: float,
    member_seeds: dict[int, int] | None = None,
) -> list[float]:
    """Laplace draws agreed inside the MPC.

    Each member contributes a seed share; the XOR of shares seeds the
    sampler, so no single member (or the aggregator) controls or
    predicts the noise.
    """
    seeds = member_seeds or {
        m.device_id: random.Random(m.device_id ^ committee.epoch).getrandbits(64)
        for m in committee.members
    }
    combined = 0
    for seed in seeds.values():
        combined ^= seed
    rng = random.Random(combined)
    telemetry.count("committee.noise.samples", num_values)
    return [sample_laplace(scale, rng) for _ in range(num_values)]


# ---------------------------------------------------------------------------
# VSR rotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationProposal:
    """The *deal* half of a VSR handoff, before anything commits.

    Holds every dealer's :class:`~repro.crypto.vsr.RedistributionPackage`
    for every key coefficient.  Nothing in the old committee changes when
    a proposal exists — the old sharing stays authoritative until
    :func:`commit_rotation` verifies a quorum of dealers and atomically
    swaps in the new epoch.  A coordinator that crashes mid-handoff can
    therefore simply re-deal (the deal is a pure function of the rng) and
    retry the commit.
    """

    new_member_ids: tuple[int, ...]
    new_threshold: int
    #: Device ids of the old members who actually dealt.
    dealer_ids: tuple[int, ...]
    #: ``packages[coeff][d]`` is dealer ``dealer_ids[d]``'s package for
    #: key coefficient ``coeff``.
    packages: tuple[tuple[vsr.RedistributionPackage, ...], ...]


def deal_rotation(
    committee: Committee,
    new_member_ids: list[int],
    new_threshold: int,
    rng: random.Random,
    dealer_ids: list[int] | None = None,
    corrupt_dealers: set[int] | None = None,
    crashed_dealers: dict[int, int] | None = None,
) -> RotationProposal:
    """Step 1 of the handoff: every dealer re-shares each coefficient.

    ``dealer_ids`` restricts dealing to a subset of the old committee
    (emergency resharing uses only the *live* members); default is every
    member.  ``corrupt_dealers`` deal a perturbed value (detected by the
    Feldman checks at verify time).  ``crashed_dealers`` maps a dealer
    device id to the number of new members its subshares reached before
    it died — the partial packages are published as-is and must be
    excluded by the agreement step, never half-used.
    """
    dealers = [
        m
        for m in committee.members
        if dealer_ids is None or m.device_id in dealer_ids
    ]
    if not dealers:
        raise ProtocolError("no dealers available for the handoff")
    corrupt = corrupt_dealers or set()
    crashed = crashed_dealers or {}
    new_size = len(new_member_ids)
    packages: list[tuple[vsr.RedistributionPackage, ...]] = []
    for coeff_index in range(len(committee.commitments)):
        row = []
        for member in dealers:
            share = shamir.Share(
                member.share_index, member.key_share.values[coeff_index]
            )
            package = vsr.redistribute_share(
                share, new_threshold, new_size, committee.group, rng
            )
            if member.device_id in corrupt:
                # A Byzantine dealer re-shares a *different* value.
                package = vsr.redistribute_share(
                    shamir.Share(
                        share.index, (share.value + 1) % committee.group.order
                    ),
                    new_threshold,
                    new_size,
                    committee.group,
                    rng,
                )
            if member.device_id in crashed:
                # The dealer died mid-send: only the first ``reached``
                # new members (in fixed index order) hold a subshare.
                reached = crashed[member.device_id]
                package = vsr.RedistributionPackage(
                    dealer_index=package.dealer_index,
                    commitment=package.commitment,
                    subshares={
                        j: v
                        for j, v in package.subshares.items()
                        if j <= reached
                    },
                )
            row.append(package)
        packages.append(tuple(row))
    return RotationProposal(
        new_member_ids=tuple(new_member_ids),
        new_threshold=new_threshold,
        dealer_ids=tuple(m.device_id for m in dealers),
        packages=tuple(packages),
    )


def agreed_dealer_sets(
    committee: Committee, proposal: RotationProposal
) -> list[list[vsr.RedistributionPackage]]:
    """Step 2 of the handoff: bulletin-board agreement on the dealers.

    A dealer's package counts only if **every** new member verifies it —
    subshare present, on the committed polynomial, and consistent with
    the old epoch commitment.  This is the torn-state guard: a dealer
    that crashed after sending subshares to a subset of the new
    committee is excluded for *everyone*, so all new shares lie on the
    same combined polynomial.  Raises if any coefficient is left with
    fewer than ``threshold`` agreed dealers.

    Verification is batched: the member-index set is identical for
    every dealer and every key coefficient, so one
    :class:`~repro.crypto.robust.BatchOpener` amortizes the Lagrange
    setup across the whole proposal and
    :func:`repro.crypto.vsr.batch_verify_packages` replaces the
    per-member Feldman loop with two group checks per dealer.
    """
    new_size = len(proposal.new_member_ids)
    opener = robust.BatchOpener(
        range(1, new_size + 1),
        proposal.new_threshold,
        committee.group.order,
    )
    agreed: list[list[vsr.RedistributionPackage]] = []
    for coeff_index, old_commitment in enumerate(committee.commitments):
        row = list(proposal.packages[coeff_index])
        verdicts = vsr.batch_verify_packages(
            row,
            old_commitment,
            new_size,
            proposal.new_threshold,
            committee.group,
            opener=opener,
        )
        valid = [p for p, ok in zip(row, verdicts) if ok]
        if len(valid) < committee.threshold:
            raise SecretSharingError(
                f"coefficient {coeff_index}: only {len(valid)} dealers "
                f"verified by all new members, need {committee.threshold}; "
                "old committee stays authoritative"
            )
        agreed.append(valid)
    return agreed


def commit_rotation(
    committee: Committee, proposal: RotationProposal
) -> Committee:
    """Steps 3-4 of the handoff: combine and atomically install.

    Runs the agreement check, derives every new member's share from the
    *same* agreed dealer set, and returns the new epoch.  Raises (and
    leaves the old committee untouched) unless every coefficient has at
    least ``threshold`` dealers verified by all new members — the
    handoff either fully commits or does not happen at all.
    """
    agreed = agreed_dealer_sets(committee, proposal)
    group = committee.group
    per_member_values: list[list[int]] = [
        [] for _ in proposal.new_member_ids
    ]
    new_commitments = []
    for valid in agreed:
        new_commitment = None
        for i in range(len(proposal.new_member_ids)):
            share, new_commitment = vsr.combine_packages(
                valid, i + 1, committee.threshold, group
            )
            per_member_values[i].append(share.value)
        assert new_commitment is not None
        new_commitments.append(new_commitment)
    members = [
        CommitteeMember(
            device_id=device,
            share_index=i + 1,
            key_share=shamir.VectorShare(i + 1, tuple(per_member_values[i])),
        )
        for i, device in enumerate(proposal.new_member_ids)
    ]
    telemetry.count("committee.rotations.total")
    return Committee(
        profile=committee.profile,
        members=members,
        threshold=proposal.new_threshold,
        commitments=new_commitments,
        epoch=committee.epoch + 1,
    )


def rotate_committee(
    committee: Committee,
    new_member_ids: list[int],
    new_threshold: int,
    rng: random.Random,
    corrupt_dealers: set[int] | None = None,
    dealer_ids: list[int] | None = None,
    crashed_dealers: dict[int, int] | None = None,
) -> Committee:
    """Hand the key to the next committee with extended VSR (§4.2).

    Every coefficient sharing is redistributed; cheating or crashed old
    members are detected by the bulletin-board agreement inside
    :func:`agreed_dealer_sets` and excluded for every new member alike.
    """
    start = clock.perf_counter()
    proposal = deal_rotation(
        committee,
        new_member_ids,
        new_threshold,
        rng,
        dealer_ids=dealer_ids,
        corrupt_dealers=corrupt_dealers,
        crashed_dealers=crashed_dealers,
    )
    new_committee = commit_rotation(committee, proposal)
    telemetry.observe(
        "committee.rotate.seconds", clock.perf_counter() - start
    )
    return new_committee
