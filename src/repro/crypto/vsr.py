"""Extended verifiable secret redistribution (VSR).

Mycelium generates the BGV decryption key *once* (genesis committee) and
then hands it from committee to committee without ever reconstructing it
(§4.2), using the extended VSR protocol of Gupta and Gopinath.  Members of
different committees cannot combine shares across epochs to recover the
key, because each epoch's shares lie on an independent random polynomial.

Redistribution of a (t_old, n_old) sharing to a (t_new, n_new) sharing:

1. each old member i re-shares its share s_i to the new committee with a
   fresh polynomial f_i of degree t_new - 1, publishing Feldman
   commitments to f_i;
2. each new member j verifies (a) its subshare lies on f_i and (b) f_i(0)
   really is s_i, by checking g^{f_i(0)} against the *old* polynomial
   commitment;
3. the new committee agrees on a set I of t_old verified dealers and each
   new member computes s'_j = sum_{i in I} lambda_i * f_i(j), a share of
   the original secret on the combined polynomial sum lambda_i f_i;
4. the combined commitment prod C_i^{lambda_i} lets the *next*
   redistribution verify this epoch's shares, closing the loop.

Cheating dealers are detected in step 2 and excluded; as long as t_old
honest old members participate, redistribution succeeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.feldman import CommitmentGroup, PolynomialCommitment
from repro.crypto.hashes import hash_to_int
from repro.crypto.robust import BatchOpener
from repro.crypto.shamir import (
    Share,
    lagrange_coefficients_at_zero,
    share_secret,
)
from repro.errors import SecretSharingError


@dataclass(frozen=True)
class DealtSecret:
    """An initial verifiable sharing produced by the genesis committee."""

    shares: list[Share]
    commitment: PolynomialCommitment
    threshold: int


def deal_initial(
    secret: int,
    threshold: int,
    num_shares: int,
    group: CommitmentGroup,
    rng: random.Random,
) -> DealtSecret:
    """Create the epoch-0 verifiable sharing of a secret."""
    shares, poly = share_secret(
        secret, threshold, num_shares, group.order, rng, return_polynomial=True
    )
    commitment = PolynomialCommitment.commit_polynomial(group, poly)
    return DealtSecret(shares=shares, commitment=commitment, threshold=threshold)


@dataclass(frozen=True)
class RedistributionPackage:
    """What one old-committee member publishes/sends during VSR.

    ``subshares`` maps each new member index to f_i(index); in deployment
    these travel on private channels while the commitment is public.
    """

    dealer_index: int
    commitment: PolynomialCommitment
    subshares: dict[int, int]


def redistribute_share(
    dealer_share: Share,
    new_threshold: int,
    new_size: int,
    group: CommitmentGroup,
    rng: random.Random,
) -> RedistributionPackage:
    """Step 1: an old member re-shares its share to the new committee."""
    shares, poly = share_secret(
        dealer_share.value,
        new_threshold,
        new_size,
        group.order,
        rng,
        return_polynomial=True,
    )
    commitment = PolynomialCommitment.commit_polynomial(group, poly)
    return RedistributionPackage(
        dealer_index=dealer_share.index,
        commitment=commitment,
        subshares={s.index: s.value for s in shares},
    )


def verify_package(
    package: RedistributionPackage,
    old_commitment: PolynomialCommitment,
    new_index: int,
) -> bool:
    """Step 2: a new member validates one dealer's package.

    Checks both the subshare-vs-polynomial consistency and that the
    dealer's polynomial hides its *true* old share (not a fabricated one).
    """
    subshare = package.subshares.get(new_index)
    if subshare is None:
        return False
    if not package.commitment.verify_share(Share(new_index, subshare)):
        return False
    expected = old_commitment.expected_share_commitment(package.dealer_index)
    return package.commitment.secret_commitment == expected


def _batch_challenge(
    packages: list[RedistributionPackage],
    old_commitment: PolynomialCommitment,
    new_size: int,
    order: int,
) -> int:
    """Fiat-Shamir evaluation point for batch verification.

    Derived from the full public transcript (old commitment plus every
    dealer's commitment), so no dealer can choose its polynomial after
    seeing the point.  Re-drawn until it avoids 0 and the member
    indices, where the check would degenerate into one the dealer
    already had to pass.
    """
    parts = [b"vsr-batch-verify", new_size.to_bytes(4, "big")]
    for c in old_commitment.commitments:
        parts.append(c.to_bytes((c.bit_length() + 7) // 8 or 1, "big"))
    for package in packages:
        parts.append(package.dealer_index.to_bytes(8, "big"))
        for c in package.commitment.commitments:
            parts.append(c.to_bytes((c.bit_length() + 7) // 8 or 1, "big"))
    counter = 0
    while True:
        r = hash_to_int(*parts, counter.to_bytes(4, "big")) % order
        if r != 0 and r > new_size:
            return r
        counter += 1


def batch_verify_packages(
    packages: list[RedistributionPackage],
    old_commitment: PolynomialCommitment,
    new_size: int,
    new_threshold: int,
    group: CommitmentGroup,
    opener: BatchOpener | None = None,
) -> list[bool]:
    """Step 2, amortized: verify every dealer's package in one batch.

    Per-member verification costs ``new_size`` Feldman checks per
    dealer, each a (degree+1)-term multi-exponentiation.  Batch opening
    replaces them: the subshares of an honest dealer are evaluations of
    a degree < ``new_threshold`` polynomial — a Reed-Solomon codeword
    over the member indices — so one shared
    :class:`~repro.crypto.robust.BatchOpener` (reused across dealers
    *and* key coefficients, since the index set never changes) checks

    1. completeness: every new member got a subshare (a dealer that
       crashed mid-send is excluded for everyone — the torn-key guard);
    2. degree: every extra subshare matches the base interpolation
       (field arithmetic only, no group operations);
    3. binding: ``g^{f(0)}`` equals the *old* commitment's expected
       share for this dealer (the dealer re-shared its true share);
    4. consistency: ``g^{f(r)}`` equals the dealer's published
       commitment evaluated at a Fiat-Shamir point ``r`` — so the
       commitment the next epoch inherits matches the subshares
       everywhere, not just where we looked.

    Accepts and rejects exactly the packages :func:`verify_package`
    would (honest, corrupt, crashed, and tampered dealers alike, up to
    the negligible soundness error of the random-point check).  Returns
    one verdict per package, same order.
    """
    if opener is None:
        opener = BatchOpener(
            range(1, new_size + 1), new_threshold, group.order
        )
    q = group.order
    r = _batch_challenge(packages, old_commitment, new_size, q)
    verdicts = []
    for package in packages:
        if any(
            j not in package.subshares for j in range(1, new_size + 1)
        ):
            verdicts.append(False)
            continue
        base_values = [package.subshares[x] % q for x in opener.base]
        if any(
            opener.eval_at(base_values, x) != package.subshares[x] % q
            for x in opener.extras
        ):
            verdicts.append(False)
            continue
        expected = old_commitment.expected_share_commitment(
            package.dealer_index
        )
        if group.commit(opener.open(base_values)) != expected:
            verdicts.append(False)
            continue
        verdicts.append(
            group.commit(opener.eval_at(base_values, r))
            == package.commitment.expected_share_commitment(r)
        )
    return verdicts


def combine_packages(
    packages: list[RedistributionPackage],
    new_indices: list[int],
    old_threshold: int,
    group: CommitmentGroup,
) -> tuple[list[Share], PolynomialCommitment]:
    """Steps 3-4: derive every new member's share and, once, the epoch
    commitment.

    ``packages`` must already be verified and must all come from distinct
    dealers; exactly ``old_threshold`` of them are used (every new member
    must use the same dealer set, which the caller coordinates via the
    bulletin board).
    """
    if len(packages) < old_threshold:
        raise SecretSharingError(
            f"need {old_threshold} verified dealers, have {len(packages)}"
        )
    chosen = sorted(packages, key=lambda p: p.dealer_index)[:old_threshold]
    q = group.order
    indices = [p.dealer_index for p in chosen]
    lagrange = lagrange_coefficients_at_zero(indices, q)
    shares = []
    for new_index in new_indices:
        value = 0
        for package in chosen:
            subshare = package.subshares.get(new_index)
            if subshare is None:
                raise SecretSharingError(
                    f"dealer {package.dealer_index} sent no subshare to {new_index}"
                )
            value = (value + lagrange[package.dealer_index] * subshare) % q
        shares.append(Share(new_index, value))
    degree = max(p.commitment.degree for p in chosen)
    combined = []
    for k in range(degree + 1):
        acc = 1
        for package in chosen:
            if k <= package.commitment.degree:
                term = pow(
                    package.commitment.commitments[k],
                    lagrange[package.dealer_index],
                    group.modulus,
                )
                acc = (acc * term) % group.modulus
        combined.append(acc)
    return shares, PolynomialCommitment(group, tuple(combined))


def redistribute(
    old_shares: list[Share],
    old_commitment: PolynomialCommitment,
    old_threshold: int,
    new_threshold: int,
    new_size: int,
    group: CommitmentGroup,
    rng: random.Random,
    corrupt_dealers: set[int] | None = None,
) -> tuple[list[Share], PolynomialCommitment]:
    """Run a full redistribution round between two committees.

    ``corrupt_dealers`` simulates old members who deal garbage; their
    packages fail verification and are excluded.  Raises if fewer than
    ``old_threshold`` honest dealers remain.
    """
    corrupt = corrupt_dealers or set()
    packages = []
    for share in old_shares:
        package = redistribute_share(share, new_threshold, new_size, group, rng)
        if share.index in corrupt:
            # A Byzantine dealer re-shares a *different* value.
            package = redistribute_share(
                Share(share.index, (share.value + 1) % group.order),
                new_threshold,
                new_size,
                group,
                rng,
            )
        packages.append(package)

    # Bulletin-board agreement: a dealer counts only if *every* new
    # member verifies its package.  Deciding validity per member would
    # let a dealer whose subshares reached only part of the committee be
    # used by some members and not others, leaving the new shares on
    # different combined polynomials (a torn key that can never decrypt).
    agreed = [
        p
        for p in packages
        if all(
            verify_package(p, old_commitment, new_index)
            for new_index in range(1, new_size + 1)
        )
    ]
    if len(agreed) < old_threshold:
        raise SecretSharingError(
            f"only {len(agreed)} dealers verified by all new members, "
            f"need {old_threshold}"
        )
    return combine_packages(
        agreed, list(range(1, new_size + 1)), old_threshold, group
    )
