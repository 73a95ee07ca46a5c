"""Offline/online phase split: precomputed query-independent crypto.

The online hot path consumes artifacts this package materializes ahead
of time — per-origin encryption-randomness pools and warmed NTT
context tables — all derived from seeds along stable label chains so
the pooled path is bit-identical to the inline path.  (Relinearization
keys carry their own evaluation forms; the offline phase only builds
them early.)

Import layering: :mod:`repro.offline.pools` and
:mod:`repro.offline.store` sit *below* the engine (the engine imports
them), while :mod:`repro.offline.precompute` sits above the durability
layer; import precompute directly to avoid cycles.
"""

from repro.offline.pools import (
    EncryptionPool,
    LeafRandomnessSource,
    leaf_randomness,
    prepared_leaf_randomness,
)
from repro.offline.store import (
    POOL_LOW_WATER,
    OfflineStore,
    campaign_keys,
    campaign_public_key,
    submission_seed,
)

__all__ = [
    "EncryptionPool",
    "LeafRandomnessSource",
    "OfflineStore",
    "POOL_LOW_WATER",
    "campaign_keys",
    "campaign_public_key",
    "leaf_randomness",
    "prepared_leaf_randomness",
    "submission_seed",
]
