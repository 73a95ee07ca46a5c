"""Streaming live simulation: 10^4 → 10^6 devices, memory ∝ shard size.

The scaling bottleneck in the unsharded live path is residency, not
arithmetic: holding every device's state (pseudonyms, mixnet links, a
fresh ~12 KB ciphertext each) makes peak RSS linear in the total device
count.  This module makes the device population *generator-fed*:

* Device state is a pure function of ``(master_seed, global device id)``
  — :func:`shard_devices` materializes **one shard's** devices at a
  time, so resident device state is bounded by the largest shard.
* Per-device ciphertexts are built lazily from a small
  :class:`ContributionBank` (pre-encrypted value monomials plus
  encrypt-zero blinds; one homomorphic addition per device instead of a
  ~2.7 ms fresh encryption) and consumed immediately by the shard fold.
* The shard fold is a :class:`~repro.sharding.reduce.PairwiseAccumulator`
  over SUM_CHUNK chunk sums — the flat aggregator's exact tree shape,
  held in O(SUM_CHUNK + log shard_size) ciphertexts.

Because each device's histogram value depends only on its *global* id,
the decrypted histogram is identical at any shard count K — the same
layout-invariance contract the query path's sharded aggregation obeys
(docs/SHARDING.md).  ``benchmarks/bench_shard_scale.py`` drives this
module across a devices × shards sweep and records peak RSS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import telemetry
from repro.core.aggregator import SUM_CHUNK, _pairwise_sum, tree_reduce
from repro.crypto import bgv
from repro.errors import ParameterError
from repro.params import BGVProfile
from repro.runtime.seeding import derive_rng
from repro.sharding.planner import Shard, ShardPlan, plan_shards
from repro.sharding.reduce import PairwiseAccumulator

#: TEST-sized ring with a plaintext modulus wide enough that a histogram
#: bin can count every one of 10^6 (and with margin, 2 * 10^6) devices
#: without wrapping mod t; q_bits matches TEST so noise headroom is the
#: same ~490 bits against a tree fold's ~log2(devices) bits of growth.
LIVESIM_PROFILE = BGVProfile(
    name="livesim", n=64, t=2**21, q_bits=512, error_bound=2
)


@dataclass(frozen=True)
class DeviceState:
    """One simulated device: identity, registered pseudonyms, value.

    ``value`` (the histogram bin this device contributes x^value to) is
    derived from the global id alone, never from the shard layout.
    """

    global_id: int
    value: int
    pseudonyms: tuple[bytes, ...]


@dataclass
class ContributionBank:
    """Pre-encrypted contribution pool shared by every simulated device.

    ``monomials[v]`` is Enc(x^v); ``blinds`` are encryptions of zero.  A
    device's leaf is ``monomials[value] + blinds[id % len(blinds)]`` —
    one ~40 µs homomorphic addition yielding an owned ciphertext, versus
    a ~2.7 ms fresh encryption per device, which is what makes a 10^6
    device sweep minutes instead of hours.  The blind keeps leaves
    distinct objects with distinct components; it does not model the
    per-device encryption randomness a real deployment has (the query
    path, which verifies real per-origin encryptions, does).
    """

    monomials: tuple[bgv.Ciphertext, ...]
    blinds: tuple[bgv.Ciphertext, ...]

    @classmethod
    def build(
        cls,
        public_key: bgv.PublicKey,
        domain: int,
        num_blinds: int,
        rng: random.Random,
    ) -> ContributionBank:
        if domain < 1 or domain > public_key.profile.n:
            raise ParameterError(
                f"value domain {domain} outside [1, {public_key.profile.n}]"
            )
        if num_blinds < 1:
            raise ParameterError("need at least one blind")
        return cls(
            monomials=tuple(
                bgv.encrypt_monomial(public_key, v, rng)
                for v in range(domain)
            ),
            blinds=tuple(
                bgv.encrypt_zero_like(public_key, rng)
                for _ in range(num_blinds)
            ),
        )

    @property
    def domain(self) -> int:
        return len(self.monomials)

    def leaf(self, device: DeviceState) -> bgv.Ciphertext:
        blind = self.blinds[device.global_id % len(self.blinds)]
        return bgv.add(self.monomials[device.value], blind)


def shard_devices(
    shard: Shard,
    master_seed: int,
    domain: int,
    pseudonyms_per_device: int = 4,
) -> list[DeviceState]:
    """Materialize one shard's device states (and only that shard's).

    Every field is derived from ``(master_seed, global id)``, so the
    same device is bit-identical in every layout and on every resume.
    """
    devices = []
    for global_id in range(shard.start, shard.stop):
        rng = derive_rng(master_seed, "livesim", global_id)
        devices.append(
            DeviceState(
                global_id=global_id,
                value=rng.randrange(domain),
                pseudonyms=tuple(
                    rng.getrandbits(256).to_bytes(32, "big")
                    for _ in range(pseudonyms_per_device)
                ),
            )
        )
    return devices


def fold_shard(
    devices: list[DeviceState], bank: ContributionBank
) -> bgv.Ciphertext | None:
    """Fold one shard's contributions through the SUM_CHUNK tree shape,
    streaming: at most SUM_CHUNK leaves plus O(log n) subtree roots are
    ever resident."""
    accumulator = PairwiseAccumulator()
    chunk: list[bgv.Ciphertext] = []
    for device in devices:
        chunk.append(bank.leaf(device))
        if len(chunk) == SUM_CHUNK:
            accumulator.push(_pairwise_sum(chunk))
            chunk = []
    if chunk:
        accumulator.push(_pairwise_sum(chunk))
    return accumulator.result()


@dataclass(frozen=True)
class LiveSimReport:
    """Outcome of one live run: the decrypted histogram plus the
    plaintext oracle computed from the same device stream."""

    num_devices: int
    num_shards: int
    domain: int
    histogram: tuple[int, ...]
    expected: tuple[int, ...]
    max_shard_size: int

    @property
    def correct(self) -> bool:
        return self.histogram == self.expected


def run_live_simulation(
    num_devices: int,
    num_shards: int = 1,
    master_seed: int = 0,
    domain: int = 8,
    num_blinds: int = 16,
    profile: BGVProfile = LIVESIM_PROFILE,
    plan: ShardPlan | None = None,
) -> LiveSimReport:
    """Run a sharded live aggregation end to end and decrypt the result.

    Shards are processed one at a time: materialize the shard's devices,
    fold their contributions, keep only the partial sum.  Peak residency
    is one shard's device states plus O(num_shards) partial ciphertexts.
    """
    if num_devices < 1:
        raise ParameterError("need at least one device")
    key_rng = derive_rng(master_seed, "livesim", "keys")
    secret, public = bgv.keygen(profile, key_rng)
    bank = ContributionBank.build(public, domain, num_blinds, key_rng)
    if plan is None:
        plan = plan_shards(num_devices, num_shards, master_seed)
    telemetry.count("sharding.shards.planned", plan.num_shards)
    expected = [0] * domain
    partials: list[bgv.Ciphertext] = []
    max_shard_size = 0
    for shard in plan.shards:
        devices = shard_devices(shard, master_seed, domain)
        max_shard_size = max(max_shard_size, len(devices))
        for device in devices:
            expected[device.value] += 1
        partial = fold_shard(devices, bank)
        if partial is not None:
            partials.append(partial)
    total = tree_reduce(partials)
    plaintext = bgv.decrypt(secret, total)
    return LiveSimReport(
        num_devices=num_devices,
        num_shards=plan.num_shards,
        domain=domain,
        histogram=tuple(plaintext.coeffs[v] for v in range(domain)),
        expected=tuple(expected),
        max_shard_size=max_shard_size,
    )
