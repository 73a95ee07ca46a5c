"""Canonical JSON forms and digests for journaled values.

Two classes of phase output cross the journal:

* **restorable** values are stored inline (aggregate ciphertexts at the
  TEST/SMALL rings are a few KB of coefficients; decrypted coefficient
  vectors, noise draws, and released results are tiny).  Python's
  ``json`` round-trips ``int`` exactly at arbitrary precision and
  ``float`` exactly via ``repr``, so restore is bit-identical.
* **replayable** values (per-origin submissions with their proofs, key
  material) would be large or secret; only a digest is journaled, and
  resume re-derives the value from the seeded ceremony, then checks the
  digest.  Secrets in particular are *never* written to disk.
"""

from __future__ import annotations

import hashlib

from repro.core import committee as committee_mod
from repro.core.results import (
    HistogramResult,
    QueryMetadata,
    QueryResult,
)
from repro.crypto import bgv
from repro.crypto.polyring import RingElement
from repro.durability.journal import canonical_json
from repro.engine.encrypted import OriginSubmission
from repro.params import BGVProfile


def digest_json(obj: object) -> str:
    """sha256 over the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- ciphertexts ------------------------------------------------------------


def ciphertext_to_json(ct: bgv.Ciphertext) -> dict:
    return {
        "components": [list(c.coeffs) for c in ct.components],
        "noise_bits": ct.noise_bits,
        "fresh_factors": ct.fresh_factors,
    }


def ciphertext_from_json(profile: BGVProfile, data: dict) -> bgv.Ciphertext:
    return bgv.Ciphertext(
        profile=profile,
        components=tuple(
            RingElement.from_coeffs(profile.ring, coeffs)
            for coeffs in data["components"]
        ),
        noise_bits=data["noise_bits"],
        fresh_factors=data["fresh_factors"],
    )


# -- submissions (digest only: proofs are heavy, replay is cheap) -----------


def submissions_digest(submissions: list[OriginSubmission]) -> str:
    """Order-sensitive digest over (origin, ciphertext bytes)."""
    h = hashlib.sha256()
    for sub in submissions:
        h.update(sub.origin.to_bytes(8, "big", signed=False))
        h.update(sub.ciphertext.serialize())
    return h.hexdigest()


# -- committees (public commitments only — never shares) --------------------


def committee_digest(committee: committee_mod.Committee) -> str:
    """Binds the epoch: member ids, threshold, and every coefficient's
    Feldman commitment (which commits the sharing polynomials without
    revealing a single share)."""
    payload = {
        "epoch": committee.epoch,
        "threshold": committee.threshold,
        "members": [m.device_id for m in committee.members],
        "commitments": [
            list(c.commitments) for c in committee.commitments
        ],
    }
    return digest_json(payload)


# -- released results -------------------------------------------------------


def metadata_to_json(md: QueryMetadata) -> dict:
    return {
        "query_text": md.query_text,
        "epsilon": md.epsilon,
        "sensitivity": md.sensitivity,
        "noise_scale": md.noise_scale,
        "contributing_origins": md.contributing_origins,
        "rejected_origins": md.rejected_origins,
        "committee_epoch": md.committee_epoch,
        "verification_seconds": md.verification_seconds,
        "complaints": md.complaints,
        "quarantined_origins": list(md.quarantined_origins),
        "byzantine_origins": list(md.byzantine_origins),
    }


def metadata_from_json(data: dict) -> QueryMetadata:
    return QueryMetadata(
        query_text=data["query_text"],
        epsilon=data["epsilon"],
        sensitivity=data["sensitivity"],
        noise_scale=data["noise_scale"],
        contributing_origins=data["contributing_origins"],
        rejected_origins=data["rejected_origins"],
        committee_epoch=data["committee_epoch"],
        verification_seconds=data["verification_seconds"],
        complaints=data["complaints"],
        # Absent in journals written before the quarantine layer.
        quarantined_origins=tuple(data.get("quarantined_origins", ())),
        byzantine_origins=tuple(data.get("byzantine_origins", ())),
    )


def result_to_json(result: QueryResult) -> dict:
    if isinstance(result, HistogramResult):
        return {
            "kind": "histo",
            "groups": [
                {
                    "group": g.group,
                    "counts": list(g.counts),
                    "bin_edges": (
                        None if g.bin_edges is None else list(g.bin_edges)
                    ),
                }
                for g in result.groups
            ],
            "metadata": metadata_to_json(result.metadata),
        }
    return {
        "kind": "gsum",
        "values": list(result.values),
        "metadata": metadata_to_json(result.metadata),
    }
