"""Per-query recovery bookkeeping.

A :class:`RecoveryReport` is attached to ``QueryResult.metadata`` by
:meth:`repro.core.system.MyceliumSystem.run_query` whenever the query
ran over a :class:`repro.mixnet.network.MixnetWorld`.  It records what
the recovery machinery actually did — retransmissions, replica
failovers, ``Enc(x^0)`` defaults, the committee's quorum wait — in
enough detail that the released answer can be *explained*: the chaos
property tests recompute the plaintext oracle with exactly the report's
skipped origins and defaulted pairs excluded and require equality.

This module is deliberately free of mixnet imports so result types can
depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RecoveryReport:
    """What it took to finish one query under injected faults."""

    #: FaultKind value -> number of fault events the injector applied.
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: Payload re-sends after an unconfirmed delivery (any replica).
    retransmissions: int = 0
    #: Re-sends that switched to a redundant pre-established replica path.
    failovers: int = 0
    #: Payloads still unconfirmed after bounded retransmission.
    undelivered: int = 0
    #: Origins that were offline at collection time and submitted nothing.
    skipped_origins: tuple[int, ...] = ()
    #: origin -> neighbors whose contribution defaulted to Enc(x^0).
    defaulted_by_origin: dict[int, tuple[int, ...]] = field(
        default_factory=dict
    )
    #: C-rounds the committee waited for enough live members to open
    #: (§6.5; 0 = a quorum was live at once).
    quorum_wait_rounds: int = 0
    #: Members excluded by robust decryption for bad partials.
    flagged_members: tuple[int, ...] = ()
    #: Bulletin-board complaint payloads observed after the query.
    complaints: tuple[str, ...] = ()
    #: C-rounds consumed by the query's communication phases.
    crounds: int = 0

    @property
    def defaulted_devices(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for neighbors in self.defaulted_by_origin.values():
            seen.update(neighbors)
        return tuple(sorted(seen))

    @property
    def defaulted_pairs(self) -> int:
        return sum(len(v) for v in self.defaulted_by_origin.values())

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def summary(self) -> str:
        """Human-readable multi-line digest (the ``repro chaos`` CLI)."""
        lines = ["RecoveryReport"]
        if self.faults_injected:
            injected = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.faults_injected.items())
            )
        else:
            injected = "none"
        lines.append(f"  faults injected:     {injected}")
        lines.append(f"  retransmissions:     {self.retransmissions}")
        lines.append(f"  replica failovers:   {self.failovers}")
        lines.append(f"  undelivered sends:   {self.undelivered}")
        lines.append(
            f"  defaulted pairs:     {self.defaulted_pairs} "
            f"(devices {list(self.defaulted_devices)})"
        )
        lines.append(
            f"  skipped origins:     {list(self.skipped_origins)}"
        )
        lines.append(f"  quorum wait rounds:  {self.quorum_wait_rounds}")
        if self.flagged_members:
            lines.append(
                f"  flagged members:     {list(self.flagged_members)}"
            )
        lines.append(f"  complaints:          {len(self.complaints)}")
        lines.append(f"  C-rounds consumed:   {self.crounds}")
        return "\n".join(lines)
