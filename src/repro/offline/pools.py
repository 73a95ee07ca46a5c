"""Query-independent crypto pools and their derivation chains.

The online hot path spends most of its time on work that does not
depend on the query: sampling encryption randomness and multiplying it
by the public key.  That is a pure function of a seed and a stable
label path (:func:`repro.runtime.seeding.derive_rng`), so the offline
phase can materialize it ahead of time and the online phase merely
*indexes* into it.

The bit-identity contract: entry ``i`` of a pool is exactly what the
inline path derives for index ``i``.  A run that consumes from a pool
and a run that derives lazily therefore produce the same ciphertexts —
and a pool that runs dry extends itself along the *same* derivation
chain (block-and-refill) instead of falling back to a
differently-seeded RNG, so exhaustion mid-batch cannot change a single
output bit.
"""

from __future__ import annotations

from repro.crypto import bgv
from repro.params import BGVProfile
from repro.runtime.seeding import derive_rng

# ---------------------------------------------------------------------------
# Leaf-encryption randomness
# ---------------------------------------------------------------------------


def leaf_randomness(
    profile: BGVProfile, master_seed: int, origin: int, index: int
) -> bgv.EncryptionRandomness:
    """Entry ``index`` of one origin's leaf-randomness stream.

    Stateless: derived from ``(master_seed, origin, index)`` alone, so
    the inline path, the precomputed pool, and a pool refill after
    exhaustion all land on the same values.
    """
    rng = derive_rng(master_seed, "origin", origin, "leaf-enc", index)
    return bgv.EncryptionRandomness.generate(profile, rng)


def prepared_leaf_randomness(
    pk: bgv.PublicKey, master_seed: int, origin: int, index: int
) -> bgv.PreparedRandomness:
    """:func:`leaf_randomness` with its public-key masks precomputed."""
    return bgv.PreparedRandomness.prepare(
        pk, leaf_randomness(pk.profile, master_seed, origin, index)
    )


class EncryptionPool:
    """Precomputed :class:`~repro.crypto.bgv.PreparedRandomness` entries
    for one ``(submission seed, origin)`` stream.

    Indexing past the materialized prefix *refills* the pool by deriving
    (and mask-preparing) further entries of the same chain; the refill
    count is exposed so exhaustion is observable, but the returned
    entries are indistinguishable from precomputed ones.
    """

    def __init__(
        self,
        public_key: bgv.PublicKey,
        master_seed: int,
        origin: int,
        entries: tuple[bgv.PreparedRandomness, ...] = (),
    ):
        self.public_key = public_key
        self.master_seed = master_seed
        self.origin = origin
        self.entries: list[bgv.PreparedRandomness] = list(entries)
        self.refills = 0

    @classmethod
    def fill(
        cls,
        public_key: bgv.PublicKey,
        master_seed: int,
        origin: int,
        count: int,
    ) -> "EncryptionPool":
        pool = cls(public_key, master_seed, origin)
        pool.extend_to(count)
        pool.refills = 0  # initial fill is not a refill
        return pool

    @property
    def level(self) -> int:
        return len(self.entries)

    def extend_to(self, count: int) -> None:
        """Materialize entries up to ``count`` along the chain."""
        while len(self.entries) < count:
            self.entries.append(
                prepared_leaf_randomness(
                    self.public_key,
                    self.master_seed,
                    self.origin,
                    len(self.entries),
                )
            )
            self.refills += 1

    def entry(self, index: int) -> bgv.PreparedRandomness:
        if index >= len(self.entries):
            self.extend_to(index + 1)
        return self.entries[index]


class LeafRandomnessSource:
    """The per-origin stream the encrypted engine consumes.

    With a pool, entries come back mask-prepared (the cheap encryption
    path); without one, they are derived lazily from the same chain.
    Consumption statistics accumulate on the source — fabric workers run
    with telemetry inactive, so the executor lifts them into its
    :class:`~repro.engine.encrypted.RunStats` instead.
    """

    def __init__(
        self,
        profile: BGVProfile,
        master_seed: int,
        origin: int,
        pool: EncryptionPool | None = None,
    ):
        self.profile = profile
        self.master_seed = master_seed
        self.origin = origin
        self.pool = pool
        self.index = 0
        self.hits = 0
        self.misses = 0
        self.refills = 0

    def next(self) -> bgv.EncryptionRandomness:
        index = self.index
        self.index += 1
        if self.pool is not None:
            before = self.pool.refills
            entry = self.pool.entry(index)
            self.refills += self.pool.refills - before
            self.hits += 1
            return entry
        self.misses += 1
        return leaf_randomness(
            self.profile, self.master_seed, self.origin, index
        )
