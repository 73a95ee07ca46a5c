"""Satellite: shutdown() racing an in-flight *real* round journals
cleanly, and resuming the journal afterwards never double-charges
epsilon.

This is the service-layer face of the crash-recovery guarantee: the
scheduler's rounds are ordinary write-ahead-journaled campaigns, so a
drained round's directory replays bit-identically through
``resume_campaign`` — same results, same internal ledger — no matter
that the service was shutting down while it ran.
"""

from __future__ import annotations

import asyncio
import math

from repro.durability.campaign import resume_campaign
from repro.service import QueryService, ServiceConfig


def test_shutdown_midround_journal_resumes_without_double_charge(tmp_path):
    async def scenario():
        service = QueryService(
            ServiceConfig(
                master_seed=7,
                people=6,
                degree=2,
                total_epsilon=5.0,
                max_batch=4,
                directory=str(tmp_path),
                fsync=False,
            )
        )
        await service.start()
        tasks = [
            asyncio.ensure_future(
                service.submit("Q2", 0.25, label=f"q{i}")
            )
            for i in range(2)
        ]
        # Wait for the round to launch (its batch is logged as the
        # campaign goes to the executor), not a fixed time: a warm
        # TEST-ring round can finish inside 50 ms.
        for _ in range(10_000):  # at most ~10 s
            if service.scheduler.batch_log:
                break
            await asyncio.sleep(0.001)
        assert service.scheduler.batch_log
        assert not any(task.done() for task in tasks)  # in flight
        await service.shutdown()  # drains the round before returning
        outcomes = [task.result() for task in tasks]
        return service, outcomes

    service, outcomes = asyncio.run(scenario())

    # Both riders resolved in the drained round with real payloads.
    assert [o["round"] for o in outcomes] == [0, 0]
    for outcome in outcomes:
        assert outcome["result"]["kind"]

    # The service ledger charged each submission exactly once.
    assert service.admission.spent == math.fsum([0.25, 0.25])
    assert [label for label, _ in service.admission.ledger()] == ["q0", "q1"]
    assert service.admission.conserved()

    # The round's journal is complete and replayable: resuming it is a
    # pure replay producing the very payloads the clients received...
    round_dir = tmp_path / "round-0000"
    assert round_dir.is_dir()
    resumed = resume_campaign(round_dir)
    assert resumed.results == [o["result"] for o in outcomes]

    # ...and replaying is idempotent — the campaign's internal ledger
    # holds each charge once, identically on a second resume (a
    # double-apply would show up as ledger growth or a digest shift).
    again = resume_campaign(round_dir)
    assert resumed.ledger == again.ledger
    assert resumed.digest == again.digest
    assert math.fsum(eps for _, eps in resumed.ledger) == math.fsum(
        [0.25, 0.25]
    )
