"""``repro chaos`` runs one faulted query over the real mixnet, with one
more committee dropout than the committee can spare, and compares the
released histogram with the degraded plaintext oracle."""

from __future__ import annotations

from repro import cli


def test_chaos_exits_zero_and_matches_the_degraded_oracle(capsys):
    argv = ["chaos", "--people", "8", "--failure", "0.1", "--seed", "7"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("chaos: people=8 failure=0.1 seed=7 ")
    assert "result matches the degraded plaintext oracle: True" in out
