"""Reorder-buffer tests: the hand trace, in-order pass-through, duplicate
rejection, and ordered release under random arrival permutations."""

import numpy as np
import pytest

from bandsplit.errors import DuplicateSeq
from bandsplit.reorder import ReorderBuffer


class Pkt:
    def __init__(self, seq, received_at=0.0):
        self.seq = seq
        self.received_at = received_at


def test_hand_trace_release_and_reseq_delay():
    buf = ReorderBuffer()
    p1, p2, p3 = Pkt(0, 0.0), Pkt(1, 2.0), Pkt(2, 1.0)
    out0 = buf.release(p1, 0.0)
    assert [p.seq for p in out0] == [0]
    out1 = buf.release(p3, 1.0)
    assert out1 == []
    out2 = buf.release(p2, 2.0)
    assert [p.seq for p in out2] == [1, 2]
    # Everything one call returns is released at that call's now.
    assert [2.0 - p.received_at for p in out2] == pytest.approx([0.0, 1.0])


def test_in_order_arrivals_zero_reseq():
    buf = ReorderBuffer()
    for seq in range(50):
        p = Pkt(seq, received_at=float(seq))
        out = buf.release(p, p.received_at)
        assert out == [p]


def test_duplicate_seq_rejected():
    buf = ReorderBuffer()
    buf.release(Pkt(0), 0.0)
    with pytest.raises(DuplicateSeq):
        buf.release(Pkt(0), 1.0)
    buf.release(Pkt(2), 1.0)  # pending
    with pytest.raises(DuplicateSeq):
        buf.release(Pkt(2), 2.0)


def test_random_permutations_release_sorted_exactly_once():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        order = rng.permutation(n)
        buf = ReorderBuffer()
        released = []
        for i, seq in enumerate(order):
            t = float(i)
            out = buf.release(Pkt(int(seq), received_at=t), t)
            for p in out:
                assert t - p.received_at >= 0.0
            released.extend(p.seq for p in out)
        assert released == list(range(n))
        assert len(buf) == 0
