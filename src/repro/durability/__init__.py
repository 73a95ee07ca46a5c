"""Durable campaign runtime: write-ahead journal + crash/resume.

Mycelium's deployment story (§4.2, §6.2) is a long-lived service: one
genesis keygen, then an open-ended stream of queries with the
decryption key handed from committee to committee via VSR.  This
package makes that lifecycle survive coordinator crashes:

* :mod:`repro.durability.journal` — an append-only JSONL write-ahead
  journal with per-record checksums and monotonic sequence numbers;
* :mod:`repro.durability.serialize` — canonical JSON forms and digests
  for the values that cross phase boundaries (ciphertexts, results,
  committee commitments);
* :mod:`repro.durability.campaign` — the campaign runner: a seeded
  multi-query workload across committee epochs, killable at any phase
  boundary and resumable bit-identically
  (``python -m repro campaign --resume <dir>``).

Recovery model (docs/RESILIENCE.md has the full state machine): every
phase is *compute → append+fsync → continue*.  Secrets (the BGV key,
committee shares) are never journaled — they are re-derived on resume
by replaying the seeded ceremonies (``runtime/seeding.py`` domain
separation) and digest-checked against the journal.  The journal is the
only state on disk besides the released ``results.json``: a resume is
journal replay, with no snapshot to fast-forward from.
"""

from repro.durability.campaign import (
    PHASES,
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    KillSpec,
)
from repro.durability.journal import Journal, JournalRecord

__all__ = [
    "PHASES",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "Journal",
    "JournalRecord",
    "KillSpec",
]
