"""Receiver-side resequencing buffer.

Packets of one flow arrive over several bands and must be handed upward
in sequence order.  A packet's resequencing delay is the time it sits
here waiting for every lower-sequence packet to show up.
"""

from __future__ import annotations

from .errors import DuplicateSeq


class ReorderBuffer:
    """In-order release of a single flow's packets.

    Sequence numbers start at 0.  Packets are any objects carrying
    ``seq``.  Everything one release() call returns is released at that
    call's ``now``.
    """

    __slots__ = ("next_seq", "pending")

    def __init__(self):
        self.next_seq = 0
        self.pending: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.pending)

    def release(self, pkt, now: float) -> list:
        """Accept one packet; return the longest in-order run now available.

        Raises DuplicateSeq if this sequence number was already released
        or is already waiting.
        """
        seq = pkt.seq
        if seq < self.next_seq or seq in self.pending:
            raise DuplicateSeq(f"seq {seq} already delivered")
        if seq != self.next_seq:
            self.pending[seq] = pkt
            return []
        released = [pkt]
        self.next_seq = seq + 1
        while self.next_seq in self.pending:
            released.append(self.pending.pop(self.next_seq))
            self.next_seq += 1
        return released
