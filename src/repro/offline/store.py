"""The in-memory handle that carries precomputed artifacts into a run.

An :class:`OfflineStore` is what the online phase consumes: per-origin
:class:`~repro.offline.pools.EncryptionPool` instances keyed by the
submission seed they were derived for.  A store is optional everywhere
it is accepted — ``None`` means the inline path, and by the pool
derivation contract the two paths produce bit-identical results.
"""

from __future__ import annotations

from repro import telemetry
from repro.crypto import bgv
from repro.offline.pools import EncryptionPool
from repro.runtime.seeding import derive_rng

#: Pools at or below this many unconsumed entries count as "low" when a
#: refill pass inspects the store (``offline.pool.low``).
POOL_LOW_WATER = 2


def campaign_public_key(
    master_seed: int, profile=None
) -> bgv.PublicKey:
    """The BGV public key a campaign seeded with ``master_seed`` builds.

    ``MyceliumSystem.setup`` draws ``bgv.keygen`` *first* from the setup
    RNG (``derive_rng(master_seed, "setup")`` in the campaign runner),
    so the key is predictable without building the rest of the system —
    which is what lets the service scheduler mask-prepare pools for a
    round before that round's campaign exists.  Pinned by
    ``tests/offline/test_offline.py``.
    """
    if profile is None:
        from repro.params import TEST

        profile = TEST
    _, public = bgv.keygen(profile, derive_rng(master_seed, "setup"))
    return public


def campaign_keys(
    master_seed: int, max_relin_power: int, profile=None
) -> tuple[bgv.PublicKey, bgv.RelinKeySet]:
    """Public key *and* relinearization keys a campaign will build.

    ``MyceliumSystem.setup`` draws ``bgv.keygen`` then
    ``bgv.make_relin_keys`` back-to-back from the setup RNG, so both are
    predictable from the campaign master seed.  Relin keys are generated
    in increasing power order, which makes each power's key pieces
    *prefix-stable*: the key for power ``p`` is bit-identical for any
    ``max_relin_power >= p``.
    """
    if profile is None:
        from repro.params import TEST

        profile = TEST
    rng = derive_rng(master_seed, "setup")
    secret, public = bgv.keygen(profile, rng)
    relin = bgv.make_relin_keys(secret, max_relin_power, rng)
    return public, relin


def submission_seed(master_seed: int, query_index: int) -> int:
    """The leaf-encryption master seed a campaign query will draw.

    ``CampaignRunner._phase_submit`` derives the submit-phase RNG as
    ``derive_rng(master_seed, "query", query_index, "submit")`` and the
    encrypted executor's first draw from it becomes the per-run master
    seed for origin derivation chains.  Mirroring both draws here lets
    the offline phase pool randomness for a query *before* the online
    phase runs it.  Pinned by ``tests/offline/test_offline.py``.
    """
    return derive_rng(
        master_seed, "query", query_index, "submit"
    ).getrandbits(64)


class OfflineStore:
    """Precomputed artifacts for one or more upcoming runs."""

    def __init__(self, public_key: bgv.PublicKey | None = None):
        self.public_key = public_key
        self._encryption: dict[tuple[int, int], EncryptionPool] = {}

    # -- leaf-encryption pools ----------------------------------------------

    def add_encryption_pool(self, pool: EncryptionPool) -> None:
        self._encryption[(pool.master_seed, pool.origin)] = pool

    def encryption_pool(
        self, master_seed: int, origin: int
    ) -> EncryptionPool | None:
        return self._encryption.get((master_seed, origin))

    def encryption_pools(self) -> list[EncryptionPool]:
        return list(self._encryption.values())

    def ensure_encryption_pools(
        self,
        public_key: bgv.PublicKey,
        master_seed: int,
        origins,
        entries: int,
    ) -> int:
        """Fill (or top up) one pool per origin for ``master_seed``.

        Returns the number of entries derived — zero when every pool is
        already at ``entries``, so a between-round refill pass is cheap
        when nothing drained.
        """
        derived = 0
        for origin in origins:
            pool = self._encryption.get((master_seed, origin))
            if pool is None:
                pool = EncryptionPool(public_key, master_seed, origin)
                self._encryption[(master_seed, origin)] = pool
            before = pool.level
            pool.extend_to(entries)
            derived += pool.level - before
        return derived

    def retire(self, master_seed: int) -> None:
        """Drop pools keyed to a submission seed that has been consumed.

        Runs consume pool copies inside fabric workers, so the parent
        store never sees draws; a seed is single-use (one run), so the
        owner retires its pools once that run completes.
        """
        for key in [k for k in self._encryption if k[0] == master_seed]:
            del self._encryption[key]

    # -- observability -------------------------------------------------------

    def observe_levels(self) -> int:
        """Record materialized pool levels; returns how many are low.

        Meant to run *before* a refill pass: pools at or below the low
        water mark count toward ``offline.pool.low`` and the caller is
        expected to block on :meth:`ensure_encryption_pools` before
        consuming them.
        """
        low = 0
        for pool in self._encryption.values():
            telemetry.observe("offline.pool.level", float(pool.level))
            if pool.level <= POOL_LOW_WATER:
                low += 1
                telemetry.count("offline.pool.low")
        return low
