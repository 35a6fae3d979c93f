"""The column model: a connection's packets as parallel integer columns.

Ingest turns each captured segment into one flat row, a plain tuple in
the :data:`ROW_FIELDS` layout.  :meth:`~repro.analysis.profile.
Connection.finalize` transposes a connection's rows once into the
columns below: it resolves each side's ISN, scales the advertised
windows and derives relative sequence and ACK numbers, so no analysis
layer re-derives a per-packet quantity (the tcptrace-style
pre-processing of paper section III-B).

Three column sets describe one connection:

* :class:`PacketColumns` — every packet, in capture order;
* :class:`DataColumns` — the data direction's payload-bearing segments;
* :class:`AckColumns` — the opposite direction's ACKs, plus the
  ``shifted`` time column the ACK-shift step rewrites per analysis.
"""

from __future__ import annotations

from collections.abc import Sequence

#: The row layout ingest emits, one plain tuple per packet: capture
#: index, timestamp, source address as an integer, raw sequence and
#: ACK numbers, flags, raw window, payload length, wire length, IPv4
#: ID, BGP-keepalive bit, and the MSS and window-scale options
#: (``None`` when absent).
ROW_FIELDS = (
    "index", "time", "src", "seq", "ack", "flags", "window", "length",
    "wire", "ip_id", "keepalive", "mss", "wscale",
)
#: positions of the row fields ingest reads before finalization.
ROW_SRC = ROW_FIELDS.index("src")
ROW_FLAGS = ROW_FIELDS.index("flags")
ROW_LENGTH = ROW_FIELDS.index("length")


class _Columns:
    """Parallel, equally long columns; ``len()`` is the packet count."""

    __slots__: tuple[str, ...] = ()

    def __init__(self, *columns: Sequence[int]) -> None:
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.time)  # type: ignore[attr-defined]


class PacketColumns(_Columns):
    """Every packet of one connection, in capture order.

    ``side`` is ``False`` for packets from the flow key's first address
    and ``True`` for the other's.  ``seq`` is relative to the sending
    side's ISN and ``ack`` to the opposite side's (both wrap-safe, 0 ==
    first data byte); ``window`` is the advertised window after RFC
    7323 scaling.
    """

    __slots__ = (
        "index", "time", "side", "seq", "ack", "flags", "window",
        "length", "wire", "ip_id", "keepalive",
    )


class DataColumns(_Columns):
    """The sender's payload-bearing segments, in capture order.

    ``end`` is ``seq + length``, the relative sequence just past the
    segment.
    """

    __slots__ = (
        "index", "time", "seq", "end", "length", "wire", "ip_id",
        "keepalive",
    )


class AckColumns(_Columns):
    """The receiver's ACK-bearing segments, in capture order.

    ``value`` is the relative ACK number.  ``shifted`` holds the ACK
    times the series layer reads: the raw times until
    :func:`~repro.analysis.ackshift.shift_acks` rewrites the whole
    column, and again after
    :func:`~repro.analysis.ackshift.unshift_acks`.
    """

    __slots__ = ("index", "time", "value", "window", "shifted")


class FirstAbove:
    """First position at or after ``start`` whose value exceeds a bound.

    A max segment tree over ``values``, built on first use: each query
    climbs from ``start`` to the first right sibling whose maximum
    exceeds the bound, then descends to its leftmost such leaf, so it
    costs O(log n) whatever the values' order — a stuck window that
    holds the bound still no longer rescans the same run per query.
    """

    __slots__ = ("_values", "_size", "_tree")

    def __init__(self, values: Sequence[int]) -> None:
        self._values = values
        self._size = 0
        self._tree: list[int] = []

    def find(self, start: int, bound: int) -> int | None:
        """Least ``i >= start`` with ``values[i] > bound``, else ``None``."""
        values = self._values
        n = len(values)
        if start >= n:
            return None
        if values[start] > bound:
            return start
        tree = self._tree
        size = self._size
        if not tree:
            size = 1
            while size < n:
                size *= 2
            floor = min(values) - 1
            tree = [floor] * size
            tree.extend(values)
            tree.extend([floor] * (size - n))
            for i in range(size - 1, 0, -1):
                left = tree[2 * i]
                right = tree[2 * i + 1]
                tree[i] = left if left > right else right
            self._tree, self._size = tree, size
        i = start + size
        while i > 1:
            if not i & 1 and tree[i + 1] > bound:
                i += 1
                while i < size:
                    i *= 2
                    if tree[i] <= bound:
                        i += 1
                return i - size
            i >>= 1
        return None
