"""Lazy, bounded-memory packet sources for cell-scale simulation.

The simulation kernel (:mod:`repro.sim.engine`) consumes packet
*iterators*: it holds one pending packet per UE, so a cell's memory is
bounded by the number of attached devices — provided the workloads
themselves are generated lazily.  This module supplies those lazy sources.

A streamed workload is produced **chunk by chunk**: each chunk of
``chunk_s`` seconds is synthesised with the existing (deterministic)
generators, yielded packet by packet, and discarded before the next chunk
is built.  Peak memory is therefore one chunk per *currently generating*
device rather than one full trace per device, and a 10k-device cell over
hours of traffic streams in a few megabytes.

Chunked generation is deterministic given ``(name, duration, seed,
chunk_s)`` but is a *different* sample of the application's traffic model
than the equivalent single-shot :func:`generate_application_trace` call —
bursts do not straddle chunk boundaries.  The statistics that matter to
the energy model (inter-arrival mix, burst shapes) are unchanged; see
``docs/DESIGN.md`` ("substitution rule") for why statistically equivalent
regeneration is the contract throughout this library.

Block protocol (the kernel fast path)
-------------------------------------

Application streams additionally expose :meth:`ChunkedPacketStream.packet_blocks`:
an iterator of **chunk-local packet lists** (each chunk's packets, already
shifted to absolute stream time, as one plain list).  The kernel walks
these arrays with list indexing instead of resuming a Python generator
frame per packet — the same packets in the same order, delivered without
the per-``next()`` interpreter overhead (see ``docs/DESIGN.md`` "hot
path").  Sources that don't implement the protocol (plain generators,
merged streams) keep working through the per-packet iterator path.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Callable, Iterable, Iterator, Sequence

from .packet import Packet
from .synthetic import generate_application_packets

#: A traffic-rate envelope: absolute stream time (seconds) -> positive
#: session-rate multiplier.  Scenario diurnal shapes
#: (:class:`repro.scenarios.shapes.DiurnalShape`) are one implementation.
RateEnvelope = Callable[[float], float]

__all__ = [
    "ChunkedPacketStream",
    "RateEnvelope",
    "UserDayStream",
    "merge_packet_streams",
    "stream_application_packets",
    "stream_user_day_packets",
]


def _chunk_seed(seed: int, index: int) -> int:
    """Derive chunk ``index``'s generator seed from the stream seed.

    Hashed rather than strided: cell populations hand out *consecutive*
    per-device seeds, so any linear ``seed + K * index`` rule would make
    device ``i``'s chunk ``k`` collide with device ``i + K*k``'s chunk 0,
    replaying identical traffic across devices at scale.
    """
    return zlib.crc32(f"{seed}/{index}".encode("ascii"))


def _app_stream_seed(seed: int, index: int) -> int:
    """Derive the per-application stream seed of a user-day workload.

    Hashed for the same reason as :func:`_chunk_seed` — a linear
    ``seed + 13 * index`` rule made device ``i``'s application at index
    ``k`` replay device ``i + 13k``'s index-0 application traffic under
    the consecutive per-device seeds cell populations hand out.  The
    ``app/`` prefix keeps this derivation chain disjoint from the chunk
    chain, so an application stream never shares a generator seed with
    some other stream's chunk.
    """
    return zlib.crc32(f"app/{seed}/{index}".encode("ascii"))


class ChunkedPacketStream:
    """One application's packets, lazily generated ``chunk_s`` at a time.

    Behaves as a plain packet iterator (``next()`` / ``for`` — drop-in
    for the generator this used to be) *and* exposes
    :meth:`packet_blocks` for consumers that can walk chunk-local arrays
    directly.  Both views share one cursor over the same underlying chunk
    sequence, so mixing them never duplicates or drops packets.
    """

    __slots__ = ("_spec", "_chunks", "_buf", "_idx")

    def __init__(
        self,
        name: str,
        duration: float,
        seed: int,
        chunk_s: float,
        envelope: RateEnvelope | None,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if chunk_s <= 0:
            raise ValueError(f"chunk_s must be positive, got {chunk_s}")
        # The chunk generator is created on first read, so seek() can
        # still choose where it starts; until then only its arguments are
        # held.
        self._spec: tuple | None = (name, duration, seed, chunk_s, envelope,
                                    0.0)
        self._chunks: Iterator[list[Packet]] | None = None
        self._buf: Sequence[Packet] = ()
        self._idx = 0

    def seek(self, start: float) -> None:
        """Never generate a chunk that ends strictly before ``start``.

        For consumers that discard every packet before ``start`` (visit
        windows): a chunk whose end ``offset + length`` lies before
        ``start`` is skipped ungenerated.  The chunk containing ``start``
        is still delivered whole, so packets before ``start`` may still
        arrive and the consumer keeps filtering.  Every packet at or after
        ``start`` is delivered exactly as without the seek.  Must be
        called before the stream is first read.
        """
        if self._spec is None:
            raise RuntimeError("seek() must precede the first read")
        self._spec = self._spec[:-1] + (start,)

    def _chunk_iter(self) -> Iterator[list[Packet]]:
        if self._chunks is None:
            self._chunks = self._generate_chunks(*self._spec)
            self._spec = None
        return self._chunks

    @staticmethod
    def _generate_chunks(
        name: str,
        duration: float,
        seed: int,
        chunk_s: float,
        envelope: RateEnvelope | None,
        start: float,
    ) -> Iterator[list[Packet]]:
        """Yield one absolute-time packet list per generated chunk.

        Chunk *k* is a pure function of its hashed seed, its offset and
        its length (plus the envelope), so chunks are independent: a
        chunk that ends strictly before ``start`` (``offset + length <
        start``) is skipped without being generated, while ``offset`` and
        ``index`` still advance by the same additions.  The comparison is
        strict because rounding is monotonic but not strictly so: a
        packet at local time just under ``length`` can land exactly on
        ``offset + length``, so a chunk ending *at* ``start`` may hold a
        packet at ``start``.  Each packet is built once, at ``local +
        offset`` (see :func:`generate_application_packets`).
        """
        offset = 0.0
        index = 0
        while offset < duration:
            length = min(chunk_s, duration - offset)
            if offset + length >= start:
                rate = None
                if envelope is not None:
                    def rate(local: float, _offset: float = offset) -> float:
                        return envelope(_offset + local)
                yield generate_application_packets(
                    name, duration=length, seed=_chunk_seed(seed, index),
                    rate=rate, offset=offset,
                )
            offset += length
            index += 1

    def __iter__(self) -> "ChunkedPacketStream":
        return self

    def __next__(self) -> Packet:
        idx = self._idx
        if idx < len(self._buf):
            self._idx = idx + 1
            return self._buf[idx]
        for chunk in self._chunk_iter():
            if chunk:
                self._buf = chunk
                self._idx = 1
                return chunk[0]
        raise StopIteration

    def packet_blocks(self) -> Iterator[Sequence[Packet]]:
        """Iterate the remaining packets as chunk-local lists.

        Starts from the current cursor position (packets already consumed
        via ``next()`` are not repeated) and leaves the per-packet view
        exhausted as blocks are taken.
        """
        if self._idx < len(self._buf):
            rest = self._buf[self._idx:]
            self._buf = ()
            self._idx = 0
            yield rest
        yield from self._chunk_iter()


def stream_application_packets(
    name: str,
    duration: float = 3600.0,
    seed: int = 0,
    chunk_s: float = 600.0,
    envelope: RateEnvelope | None = None,
) -> ChunkedPacketStream:
    """One application's packets as a lazy, chunked stream.

    Equivalent in distribution to
    :func:`~repro.traces.synthetic.generate_application_trace` but with
    peak memory of one chunk instead of the whole trace.  Packets are
    yielded in non-decreasing timestamp order, as the kernel requires;
    the returned :class:`ChunkedPacketStream` also exposes the
    block-walking fast path (see the module docstring).

    ``envelope`` applies diurnal traffic shaping: a callable from
    *absolute* stream time to a positive session-rate multiplier, handed
    to the per-chunk generator shifted by the chunk's offset so a chunk
    generated for the 9am-10am window sees the 9am-10am rates.  ``None``
    is the unshaped stream, byte-identical to earlier releases.
    """
    return ChunkedPacketStream(name, duration, seed, chunk_s, envelope)


def stream_user_day_packets(
    apps: Iterable[str],
    duration: float = 3600.0,
    seed: int = 0,
    chunk_s: float = 600.0,
    envelope: RateEnvelope | None = None,
) -> UserDayStream:
    """A multi-application device workload, merged lazily.

    One stream per application (flow ids remapped so applications never
    collide), merged in time order — the streaming analogue of building a
    user trace with :func:`~repro.traces.packet.merge_traces`.  The
    optional ``envelope`` shapes every constituent application stream
    with the same time-of-day rate multipliers (see
    :func:`stream_application_packets`).
    """
    return UserDayStream([
        stream_application_packets(
            app, duration=duration, seed=_app_stream_seed(seed, index),
            chunk_s=chunk_s, envelope=envelope,
        )
        for index, app in enumerate(apps)
    ])


class UserDayStream:
    """A user-day workload: application streams merged in time order.

    Application ``i``'s flow ids are offset by ``i * 1_000_000``.  A
    packet iterator like the ``heapq.merge`` it wraps (iterating it walks
    that merge directly), plus :meth:`seek`, which forwards to every
    application stream before the merge starts.
    """

    __slots__ = ("_streams", "_merged")

    def __init__(self, streams: Sequence[ChunkedPacketStream]) -> None:
        self._streams = streams
        self._merged: Iterator[Packet] | None = None

    def seek(self, start: float) -> None:
        """:meth:`ChunkedPacketStream.seek` on every application stream."""
        for stream in self._streams:
            stream.seek(start)

    def _merge(self) -> Iterator[Packet]:
        if self._merged is None:
            self._merged = merge_packet_streams(*(
                _remap_flows(stream, index * 1_000_000) if index else stream
                for index, stream in enumerate(self._streams)
            ))
        return self._merged

    def __iter__(self) -> Iterator[Packet]:
        return self._merge()

    def __next__(self) -> Packet:
        return next(self._merge())


def _remap_flows(stream: Iterator[Packet], offset: int) -> Iterator[Packet]:
    for packet in stream:
        yield packet.with_flow(packet.flow_id + offset)


def merge_packet_streams(*streams: Iterable[Packet]) -> Iterator[Packet]:
    """Merge time-ordered packet streams into one, lazily.

    Holds one pending packet per input stream (``heapq.merge``), so merging
    many lazy sources stays bounded-memory.  Inputs must each be in
    non-decreasing timestamp order.
    """
    return heapq.merge(*streams, key=lambda p: p.timestamp)
