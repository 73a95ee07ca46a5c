"""``repro demo`` is ``MyceliumSystem.setup`` + ``run_query(world=...)``
compared with ``plaintext_answer`` — the same pipeline every other entry
point drives, over the real mixnet."""

from __future__ import annotations

from repro import cli


def test_demo_exits_zero_and_prints_its_four_lines(capsys):
    assert cli.main(["demo", "--people", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    crounds, proofs, oracle, histogram = lines
    assert crounds.startswith("C-rounds: ")
    assert int(crounds.split(": ")[1]) > 0
    assert proofs.startswith("proofs verified: ")
    assert int(proofs.split(": ")[1]) > 0
    assert oracle == "decrypted == plaintext oracle: True"
    assert histogram.startswith("histogram: [")
