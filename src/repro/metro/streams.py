"""Windowed packet streams: one cell visit's slice of a device workload.

A metro UE owns a single full-horizon workload (a pure function of its
global index and the metro seed); a *visit* to a cell sees only the
packets whose timestamps fall inside the visit window ``[start, stop)``.
:func:`windowed_stream` produces that slice without materialising the
whole workload, and — crucially for kernel throughput — preserves the
``packet_blocks()`` block protocol when the underlying stream offers it,
so windowed chunked workloads still take the engine's inline arrival
fast path.

Every visit slices the UE's one full-horizon stream (rather than
generating a per-visit stream): the packet sequence a UE emits must not
depend on its mobility timeline, so the same device under different
metros — or under none — produces the same traffic.  A window does not
*replay* that stream from t = 0, though: it *seeks*.  Sources with a
``seek(start)`` method (chunked application streams and merged user-day
streams) never generate a chunk that ends before the window opens.
That is exact because chunks are independent — chunk *k* is a pure
function of its hashed seed, offset and length — so the kept chunks
are the same packets a full replay would have built (see
:meth:`~repro.traces.streaming.ChunkedPacketStream.seek` and
``docs/DESIGN.md`` §3.2).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from ..traces.packet import Packet

__all__ = ["windowed_stream"]


def windowed_stream(source: Iterable[Packet], start: float,
                    stop: float = math.inf) -> Iterable[Packet]:
    """Restrict ``source`` to packets with ``start <= timestamp < stop``.

    Returns a block-capable stream (with ``packet_blocks()``) when
    ``source`` has one, else a plain filtering iterator.  ``source``
    must be time-ordered, which every generator in :mod:`repro.traces`
    guarantees, and unread; a source with ``seek(start)`` is told to
    skip the chunks that end before the window.
    """
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    if stop <= start:
        raise ValueError(f"window stop ({stop}) must be > start ({start})")
    seek = getattr(source, "seek", None)
    if seek is not None:
        seek(start)
    if getattr(source, "packet_blocks", None) is not None:
        return _WindowedBlockStream(source, start, stop)
    return _windowed_iter(source, start, stop)


def _windowed_iter(source: Iterable[Packet], start: float,
                   stop: float) -> Iterator[Packet]:
    for packet in source:
        ts = packet.timestamp
        if ts < start:
            continue
        if ts >= stop:
            break
        yield packet


class _WindowedBlockStream:
    """Block-protocol window over a block-capable source stream."""

    __slots__ = ("_source", "_start", "_stop", "_buffer", "_index", "_cursor")

    def __init__(self, source, start: float, stop: float) -> None:
        self._source = source
        self._start = start
        self._stop = stop
        self._buffer: Sequence[Packet] = ()
        self._index = 0
        self._cursor: Iterator[Sequence[Packet]] | None = None

    def packet_blocks(self) -> Iterator[Sequence[Packet]]:
        start, stop = self._start, self._stop
        for block in self._source.packet_blocks():
            if not block:
                continue
            if block[-1].timestamp < start:
                continue
            lo = 0
            if block[0].timestamp < start:
                lo = bisect_left(block, start, key=_timestamp)
            hi = len(block)
            past_stop = block[-1].timestamp >= stop
            if past_stop:
                hi = bisect_left(block, stop, lo, key=_timestamp)
            if lo < hi:
                yield block if lo == 0 and hi == len(block) else block[lo:hi]
            if past_stop:
                # Blocks are time-ordered: everything after is >= stop.
                return

    def __iter__(self) -> "_WindowedBlockStream":
        return self

    def __next__(self) -> Packet:
        if self._cursor is None:
            self._cursor = self.packet_blocks()
        while self._index >= len(self._buffer):
            self._buffer = next(self._cursor)  # StopIteration ends us too
            self._index = 0
        packet = self._buffer[self._index]
        self._index += 1
        return packet


def _timestamp(packet: Packet) -> float:
    return packet.timestamp
