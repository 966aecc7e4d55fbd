"""Windowed-stream tests: visit slices of a full-horizon workload."""

from __future__ import annotations

import math

import pytest

from repro.metro import windowed_stream
from repro.scenarios import get_scenario
from repro.traces import streaming
from repro.traces.packet import Direction, Packet
from repro.traces.streaming import stream_application_packets


def _packets(*stamps: float) -> list[Packet]:
    return [Packet(t, 100, Direction.DOWNLINK, 0, "t") for t in stamps]


class _Blocks:
    """A minimal block-protocol source."""

    def __init__(self, *blocks):
        self._blocks = list(blocks)

    def packet_blocks(self):
        yield from self._blocks

    def __iter__(self):
        for block in self._blocks:
            yield from block


class TestGeneratorWindow:
    def test_half_open_window(self):
        source = iter(_packets(0.0, 1.0, 2.0, 3.0, 4.0))
        out = list(windowed_stream(source, 1.0, 3.0))
        assert [p.timestamp for p in out] == [1.0, 2.0]

    def test_unbounded_stop(self):
        source = iter(_packets(0.0, 5.0, 10.0))
        out = list(windowed_stream(source, 5.0))
        assert [p.timestamp for p in out] == [5.0, 10.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="start"):
            windowed_stream(iter(()), -1.0)
        with pytest.raises(ValueError, match="stop"):
            windowed_stream(iter(()), 5.0, 5.0)


class TestBlockWindow:
    def test_preserves_block_protocol(self):
        source = _Blocks(_packets(0.0, 1.0), _packets(2.0, 3.0))
        window = windowed_stream(source, 1.0, 3.0)
        assert hasattr(window, "packet_blocks")
        flat = [p.timestamp for block in window.packet_blocks() for p in block]
        assert flat == [1.0, 2.0]

    def test_whole_blocks_pass_through_unsliced(self):
        inner = _packets(2.0, 3.0)
        source = _Blocks(_packets(0.0, 1.0), inner, _packets(4.0, 5.0))
        blocks = list(windowed_stream(source, 2.0, 4.0).packet_blocks())
        assert len(blocks) == 1
        assert blocks[0] is inner  # no copy when fully inside the window

    def test_stops_scanning_after_window(self):
        class Exploding(_Blocks):
            def packet_blocks(self):
                yield _packets(0.0, 1.0)
                yield _packets(10.0, 11.0)
                raise AssertionError("scanned past the window")

        out = [
            p.timestamp
            for block in windowed_stream(Exploding(), 0.0, 5.0).packet_blocks()
            for p in block
        ]
        assert out == [0.0, 1.0]

    def test_iteration_matches_blocks(self):
        source1 = _Blocks(_packets(0.0, 1.0, 2.0), _packets(3.0, 4.0))
        source2 = _Blocks(_packets(0.0, 1.0, 2.0), _packets(3.0, 4.0))
        via_iter = [p.timestamp for p in windowed_stream(source1, 1.0, 4.0)]
        via_blocks = [
            p.timestamp
            for block in windowed_stream(source2, 1.0, 4.0).packet_blocks()
            for p in block
        ]
        assert via_iter == via_blocks == [1.0, 2.0, 3.0]

    def test_empty_and_pre_window_blocks_skipped(self):
        source = _Blocks([], _packets(0.0), [], _packets(5.0, 6.0))
        out = [
            p.timestamp
            for block in windowed_stream(source, 4.0, math.inf).packet_blocks()
            for p in block
        ]
        assert out == [5.0, 6.0]


class TestAgainstRealStreams:
    def test_window_equals_filter_of_full_stream(self):
        """Slicing a chunked app stream == filtering its full materialisation."""
        def full():
            return stream_application_packets(
                "im", duration=1200.0, seed=42, chunk_s=100.0
            )

        reference = [
            p for p in full() if 300.0 <= p.timestamp < 900.0
        ]
        window = list(windowed_stream(full(), 300.0, 900.0))
        assert window == reference

    def test_windows_tile_the_stream(self):
        """Consecutive visit windows partition the full packet sequence."""
        def full():
            return stream_application_packets(
                "email", duration=1000.0, seed=7, chunk_s=250.0
            )

        cuts = [0.0, 313.0, 313.5, 700.0, math.inf]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.extend(windowed_stream(full(), lo, hi))
        assert pieces == list(full())


def _fields(packets):
    return [(p.timestamp, p.size, p.direction, p.flow_id, p.app)
            for p in packets]


def _chunk_offsets(duration: float, chunk_s: float) -> list[float]:
    """Chunk offsets by the stream's own float additions."""
    offsets = []
    offset = 0.0
    while offset < duration:
        offsets.append(offset)
        offset += min(chunk_s, duration - offset)
    return offsets


class TestSeekingWindows:
    """Windows seek their source; the packets kept must not change."""

    DURATION = 1500.0
    CHUNK_S = 73.3  # offsets are inexact float sums

    def _full(self):
        return stream_application_packets(
            "social", duration=self.DURATION, seed=11, chunk_s=self.CHUNK_S
        )

    @pytest.mark.parametrize("k", [1, 7, 13, 20])
    @pytest.mark.parametrize("nudge", [None, -math.inf, math.inf])
    def test_window_edges_at_chunk_offsets(self, k, nudge):
        start = _chunk_offsets(self.DURATION, self.CHUNK_S)[k]
        if nudge is not None:
            start = math.nextafter(start, nudge)
        stop = start + 200.0
        reference = _fields(p for p in self._full()
                            if start <= p.timestamp < stop)
        assert reference
        assert _fields(windowed_stream(self._full(), start, stop)) == reference
        blocks = windowed_stream(self._full(), start, stop).packet_blocks()
        assert _fields(p for block in blocks for p in block) == reference

    def test_seeked_window_never_generates_an_earlier_chunk(self, monkeypatch):
        ends = []
        real = streaming.generate_application_packets

        def counting(name, duration, seed, rate=None, offset=0.0):
            ends.append(offset + duration)
            return real(name, duration=duration, seed=seed, rate=rate,
                        offset=offset)

        monkeypatch.setattr(streaming, "generate_application_packets",
                            counting)
        start = _chunk_offsets(self.DURATION, self.CHUNK_S)[9]
        list(windowed_stream(self._full(), start, start + 300.0))
        assert ends and min(ends) >= start

    def test_chunk_ending_exactly_at_start_is_still_generated(
            self, monkeypatch):
        # A packet at local time just under the chunk length can round to
        # the chunk's end, i.e. exactly the next chunk's offset.  A window
        # starting there must keep it: only chunks ending *strictly*
        # before the window are skipped.
        def last_instant(name, duration, seed, rate=None, offset=0.0):
            local = math.nextafter(duration, 0.0)
            return [Packet(local + offset, 1, Direction.DOWNLINK, 0, name)]

        monkeypatch.setattr(streaming, "generate_application_packets",
                            last_instant)
        start = 1100.0  # chunk 10 spans [1000, 1100)
        assert math.nextafter(100.0, 0.0) + 1000.0 == start

        def full():
            return stream_application_packets("im", duration=1500.0, seed=0,
                                              chunk_s=100.0)

        reference = [p.timestamp for p in full() if p.timestamp >= start]
        assert reference[0] == start
        assert [p.timestamp for p in windowed_stream(full(), start)] == \
            reference


class TestCohortWindows:
    def test_windowed_cohort_stream_equals_filter_of_full(self):
        scenario = get_scenario("office_day")
        devices = 40

        def full(index):
            cohort = scenario.cohort_at(index, devices)
            return scenario.cohort_stream(cohort, index, 5400.0, 3, 600.0)

        for index in (0, 17, 39):
            for start, stop in ((0.0, 700.0), (1800.0, 3000.0),
                                (4200.0, math.inf)):
                reference = _fields(p for p in full(index)
                                    if start <= p.timestamp < stop)
                window = _fields(windowed_stream(full(index), start, stop))
                assert window == reference
