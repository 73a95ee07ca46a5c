"""The journaled offline phase: materialize query-independent artifacts.

A precompute run walks a deterministic list of *units* — NTT context
tables, relinearization key pieces, per-``(query, origin)`` encryption
pools — writing each artifact to disk and journaling its digest
through :class:`repro.durability.journal.Journal`.
A killed run resumes bit-identically: completed units reload from their
artifacts (verified against the journaled digest) or re-derive and
verify, and only the remaining units run.  The same runner doubles as
the service scheduler's between-round refill, because re-running over an
already-complete journal is a cheap verify pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.crypto import bgv, ntt
from repro.crypto.polyring import RingElement
from repro.durability.journal import Journal, load_records
from repro.errors import CoordinatorCrash, DurabilityError
from repro.offline.pools import EncryptionPool
from repro.offline.store import OfflineStore, submission_seed
from repro.params import PROFILES

START_RECORD = "precompute-start"
UNIT_RECORD = "precompute-unit"
COMPLETE_RECORD = "precompute-complete"


@dataclass(frozen=True)
class OfflineConfig:
    """What one offline phase is asked to materialize.

    ``master_seed`` is the *campaign* master seed: per-query submission
    seeds derive from it exactly as the online phase will derive them
    (:func:`repro.offline.store.submission_seed`).
    """

    master_seed: int
    num_queries: int
    origins: tuple[int, ...]
    entries: int
    profile: str = "test"
    relin_powers: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "num_queries": self.num_queries,
            "origins": list(self.origins),
            "entries": self.entries,
            "profile": self.profile,
            "relin_powers": list(self.relin_powers),
        }

    @classmethod
    def from_json(cls, data: dict) -> "OfflineConfig":
        if data.get("dummy_seed") is not None and data.get("dummy_devices"):
            # Journals written before the dummy-stream units were removed
            # list artifacts this runner can neither verify nor rebuild.
            raise DurabilityError(
                "journal records 'dummy-*' precompute units for devices "
                f"{list(data['dummy_devices'])}; that unit kind was removed "
                "(forwarding hops draw their own dummies) — start a fresh "
                "precompute directory"
            )
        return cls(
            master_seed=data["master_seed"],
            num_queries=data["num_queries"],
            origins=tuple(data["origins"]),
            entries=data["entries"],
            profile=data.get("profile", "test"),
            relin_powers=tuple(data.get("relin_powers", ())),
        )


# ---------------------------------------------------------------------------
# Binary artifact codec
# ---------------------------------------------------------------------------


def _ring_width(profile) -> int:
    return (profile.q.bit_length() + 7) // 8


def _ring_bytes(element: RingElement, width: int) -> bytes:
    return b"".join(c.to_bytes(width, "big") for c in element.coeffs)


def _ring_from_bytes(params, raw: bytes, width: int) -> RingElement:
    coeffs = [
        int.from_bytes(raw[i * width : (i + 1) * width], "big")
        for i in range(params.n)
    ]
    return RingElement.from_coeffs(params, coeffs)


def encode_pool(pool: EncryptionPool) -> bytes:
    """Serialize a pool's entries: per entry the five ring elements
    (u, e0, e1, mask0, mask1), fixed-width big-endian coefficients."""
    profile = pool.public_key.profile
    width = _ring_width(profile)
    out = bytearray()
    for entry in pool.entries:
        for element in (entry.u, entry.e0, entry.e1, entry.mask0, entry.mask1):
            out += _ring_bytes(element, width)
    return bytes(out)


def decode_pool(
    public_key: bgv.PublicKey, master_seed: int, origin: int, raw: bytes
) -> EncryptionPool:
    profile = public_key.profile
    width = _ring_width(profile)
    ring = profile.ring
    entry_bytes = 5 * profile.n * width
    if len(raw) % entry_bytes:
        raise DurabilityError("truncated encryption-pool artifact")
    entries = []
    for base in range(0, len(raw), entry_bytes):
        elements = [
            _ring_from_bytes(
                ring,
                raw[base + k * profile.n * width : base + (k + 1) * profile.n * width],
                width,
            )
            for k in range(5)
        ]
        entries.append(
            bgv.PreparedRandomness(
                u=elements[0],
                e0=elements[1],
                e1=elements[2],
                mask0=elements[3],
                mask1=elements[4],
            )
        )
    return EncryptionPool(public_key, master_seed, origin, tuple(entries))


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class _Unit:
    """One journaled step: a label, a derivation, and its artifact file."""

    label: str
    filename: str | None  # None: no artifact, digest-only


class PrecomputeRunner:
    """Runs (or resumes) one offline phase against a journal directory."""

    def __init__(
        self,
        config: OfflineConfig,
        directory,
        journal: Journal,
        completed: dict[str, dict],
        *,
        public_key: bgv.PublicKey,
        relin_keys: bgv.RelinKeySet | None = None,
        kill: str | None = None,
    ):
        self.config = config
        self.directory = Path(directory)
        self.journal = journal
        self.completed = completed
        self.public_key = public_key
        self.relin_keys = relin_keys
        self.kill = kill
        self.store = OfflineStore(public_key)

    # -- construction --------------------------------------------------------

    @classmethod
    def start(
        cls,
        config: OfflineConfig,
        directory,
        *,
        public_key: bgv.PublicKey,
        relin_keys: bgv.RelinKeySet | None = None,
        kill: str | None = None,
        fsync: bool = True,
    ) -> "PrecomputeRunner":
        journal = Journal.create(directory, fsync=fsync)
        journal.append(START_RECORD, {"version": 1, "config": config.to_json()})
        return cls(
            config,
            directory,
            journal,
            {},
            public_key=public_key,
            relin_keys=relin_keys,
            kill=kill,
        )

    @classmethod
    def resume(
        cls,
        directory,
        *,
        public_key: bgv.PublicKey,
        relin_keys: bgv.RelinKeySet | None = None,
        kill: str | None = None,
    ) -> "PrecomputeRunner":
        journal, records = Journal.resume(directory)
        if not records or records[0].type != START_RECORD:
            raise DurabilityError(
                "journal does not begin with a precompute-start record"
            )
        config = OfflineConfig.from_json(records[0].data["config"])
        completed = {
            r.data["unit"]: r.data for r in records if r.type == UNIT_RECORD
        }
        return cls(
            config,
            directory,
            journal,
            completed,
            public_key=public_key,
            relin_keys=relin_keys,
            kill=kill,
        )

    # -- kill points ---------------------------------------------------------

    def _maybe_crash(self, point: str, label: str) -> None:
        if self.kill == f"{point}:{label}":
            raise CoordinatorCrash(f"precompute {point} {label}")

    # -- unit enumeration ----------------------------------------------------

    def _units(self) -> list[_Unit]:
        cfg = self.config
        units = [_Unit("ntt", None)]
        units += [_Unit(f"relin-{p}", None) for p in cfg.relin_powers]
        for qi in range(cfg.num_queries):
            for origin in cfg.origins:
                units.append(
                    _Unit(f"enc-{qi}-{origin}", f"enc-{qi}-{origin}.bin")
                )
        return units

    # -- derivations ---------------------------------------------------------

    def _derive(self, unit: _Unit) -> bytes:
        """Materialize one unit into the store; returns its digest input."""
        cfg = self.config
        profile = PROFILES[cfg.profile]
        kind, _, rest = unit.label.partition("-")
        if kind == "ntt":
            # Warm the twiddle/context tables and digest a probe
            # transform so a resumed run proves the tables are
            # bit-identical, not merely present.
            context = ntt.get_context(profile.n, profile.q)
            probe = [(i * i + 1) % profile.q for i in range(profile.n)]
            width = _ring_width(profile)
            return b"".join(
                v.to_bytes(width, "big") for v in context.forward(probe)
            )
        if kind == "relin":
            if self.relin_keys is None:
                raise DurabilityError(
                    "config lists relin powers but no relin keys were given"
                )
            power = int(rest)
            self.relin_keys.prepare(power)
            width = _ring_width(profile)
            return b"".join(
                _ring_bytes(b, width) + _ring_bytes(a, width)
                for b, a in self.relin_keys.keys[power].pieces
            )
        if kind == "enc":
            qi_str, _, origin_str = rest.partition("-")
            qi, origin = int(qi_str), int(origin_str)
            seed = submission_seed(cfg.master_seed, qi)
            pool = self.store.encryption_pool(seed, origin)
            if pool is None:
                pool = EncryptionPool.fill(
                    self.public_key, seed, origin, cfg.entries
                )
                self.store.add_encryption_pool(pool)
            return encode_pool(pool)
        raise DurabilityError(f"unknown precompute unit {unit.label!r}")

    def _load_artifact(self, unit: _Unit, expected_digest: str) -> bool:
        """Try restoring a completed unit from its on-disk artifact.

        Returns True when the artifact existed, matched the journaled
        digest, and was installed into the store.
        """
        if unit.filename is None:
            return False
        path = self.directory / unit.filename
        if not path.exists():
            return False
        raw = path.read_bytes()
        if hashlib.sha256(raw).hexdigest() != expected_digest:
            return False
        # Only ``enc-<query>-<origin>`` units carry an artifact file.
        _, qi_str, origin_str = unit.label.split("-")
        seed = submission_seed(self.config.master_seed, int(qi_str))
        self.store.add_encryption_pool(
            decode_pool(self.public_key, seed, int(origin_str), raw)
        )
        return True

    # -- driver --------------------------------------------------------------

    def run(self) -> OfflineStore:
        with telemetry.span("offline.precompute") as span:
            units = self._units()
            for unit in units:
                if unit.label in self.completed:
                    expected = self.completed[unit.label]["digest"]
                    if not self._load_artifact(unit, expected):
                        # Digest-only units, or a lost/corrupt artifact:
                        # re-derive and insist on the journaled digest.
                        payload = self._derive(unit)
                        actual = hashlib.sha256(payload).hexdigest()
                        if actual != expected:
                            raise DurabilityError(
                                f"resumed unit {unit.label!r} derived "
                                f"digest {actual[:16]}, journal has "
                                f"{expected[:16]} — offline state is stale"
                            )
                        if unit.filename is not None:
                            (self.directory / unit.filename).write_bytes(
                                payload
                            )
                    telemetry.count("offline.precompute.resumed")
                    continue
                self._maybe_crash("before", unit.label)
                payload = self._derive(unit)
                digest = hashlib.sha256(payload).hexdigest()
                if unit.filename is not None:
                    (self.directory / unit.filename).write_bytes(payload)
                self.journal.append(
                    UNIT_RECORD,
                    {"unit": unit.label, "digest": digest, "bytes": len(payload)},
                )
                self.completed[unit.label] = {
                    "unit": unit.label,
                    "digest": digest,
                }
                telemetry.count("offline.precompute.units")
                self._maybe_crash("after", unit.label)
            span.set_attribute("units", len(units))
            self._mark_complete(len(units))
        return self.store

    def _mark_complete(self, total_units: int) -> None:
        # Idempotent: a resumed run over an already-complete journal
        # must not append a second completion marker.
        for record in load_records(self.directory, drop_torn_tail=True):
            if record.type == COMPLETE_RECORD:
                return
        self.journal.append(COMPLETE_RECORD, {"units": total_units})


def run_precompute(
    config: OfflineConfig,
    directory,
    *,
    public_key: bgv.PublicKey,
    relin_keys: bgv.RelinKeySet | None = None,
    kill: str | None = None,
    fsync: bool = True,
) -> OfflineStore:
    return PrecomputeRunner.start(
        config,
        directory,
        public_key=public_key,
        relin_keys=relin_keys,
        kill=kill,
        fsync=fsync,
    ).run()
