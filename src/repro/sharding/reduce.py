"""Streaming form of the aggregator's pairwise fold.

:class:`PairwiseAccumulator` is an O(log n)-memory evaluator of the
in-order pairwise halving (:func:`repro.core.aggregator._pairwise_sum`).
It is *bit-identical* to the list-based fold — same association, same
noise-bit metadata — which is what lets a live-simulation shard fold an
unbounded device stream without ever materializing it.  The fixed-shape
summation tree and the claim-checked root
(:class:`repro.core.aggregator.ReductionTree`) live with the aggregator.
"""

from __future__ import annotations

from repro.crypto import bgv


class PairwiseAccumulator:
    """Streaming in-order pairwise halving with O(log n) memory.

    Maintains the classic binary-counter stack of subtree roots: pushing
    a leaf merges equal-height subtrees bottom-up, and :meth:`result`
    folds the surviving roots smallest-first.  For every length this
    reproduces the exact association of ``_pairwise_sum`` (an odd tail
    element carries up a level unchanged), so components *and* noise-bit
    metadata match the list-based fold — verified exhaustively by
    ``tests/sharding/test_reduce.py``.
    """

    def __init__(self) -> None:
        #: (height, subtree root) with strictly decreasing heights.
        self._stack: list[tuple[int, bgv.Ciphertext]] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, ct: bgv.Ciphertext) -> None:
        height = 0
        while self._stack and self._stack[-1][0] == height:
            prior_height, prior = self._stack.pop()
            ct = bgv.add(prior, ct)
            height = prior_height + 1
        self._stack.append((height, ct))
        self._count += 1

    def result(self) -> bgv.Ciphertext | None:
        """Fold the remaining subtree roots, smallest (newest) first."""
        if not self._stack:
            return None
        total: bgv.Ciphertext | None = None
        for _, root in reversed(self._stack):
            total = root if total is None else bgv.add(root, total)
        return total
