"""Tests for the lazy packet-stream generators."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.shapes import OFFICE_HOURS
from repro.traces import (
    APPLICATION_NAMES,
    Packet,
    PacketTrace,
    generate_application_packets,
    merge_packet_streams,
    stream_application_packets,
    stream_user_day_packets,
)
from repro.traces import streaming
from repro.traces.streaming import ChunkedPacketStream, _chunk_seed


def _fields(packets):
    """Every field of every packet (``Packet ==`` compares only two)."""
    return [(p.timestamp, p.size, p.direction, p.flow_id, p.app)
            for p in packets]


def _shifted_copy_chunks(name, duration, seed, chunk_s, envelope):
    """The chunk construction streams used before packets were built at
    their absolute time: generate at local time, then copy every packet
    of a chunk at a nonzero offset to ``timestamp + offset``."""
    chunks = []
    offset = 0.0
    index = 0
    while offset < duration:
        length = min(chunk_s, duration - offset)
        rate = None
        if envelope is not None:
            def rate(local, _offset=offset):
                return envelope(_offset + local)
        chunk = generate_application_packets(
            name, duration=length, seed=_chunk_seed(seed, index), rate=rate)
        if offset:
            chunk = [Packet(p.timestamp + offset, p.size, p.direction,
                            p.flow_id, p.app) for p in chunk]
        chunks.append(chunk)
        offset += length
        index += 1
    return chunks


class TestBuiltOnce:
    """Packets built at ``local + offset`` equal the old shifted copies."""

    @settings(max_examples=40, deadline=None)
    @given(app=st.sampled_from(APPLICATION_NAMES),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           chunk_s=st.sampled_from((7.3, 60.0, 100.0, 333.3, 600.0)),
           envelope=st.sampled_from((None, OFFICE_HOURS)))
    def test_chunks_equal_shifted_copies(self, app, seed, chunk_s, envelope):
        duration = 1200.0
        stream = ChunkedPacketStream(app, duration, seed, chunk_s, envelope)
        chunks = list(stream.packet_blocks())
        reference = _shifted_copy_chunks(app, duration, seed, chunk_s,
                                         envelope)
        assert [_fields(c) for c in chunks] == \
            [_fields(c) for c in reference]

    @settings(max_examples=40, deadline=None)
    @given(app=st.sampled_from(("social", "news", "microblog")),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           offset=st.one_of(st.floats(min_value=0.0, max_value=1e6),
                            st.sampled_from((2.0**48, 2.0**50, 2.0**52))))
    def test_offset_equals_shift_of_local_list(self, app, seed, offset):
        # Offsets of 2**48 and up make distinct local times of
        # overlapping bursts round to one absolute time: only a sort
        # keyed on local time keeps the local order.
        local = generate_application_packets(app, duration=900.0, seed=seed)
        built = generate_application_packets(app, duration=900.0, seed=seed,
                                             offset=offset)
        assert _fields(built) == _fields(
            Packet(p.timestamp + offset, p.size, p.direction, p.flow_id,
                   p.app) for p in local)

    # Seeds whose bursts overlap *and* collide at offset 2**50: a stable
    # sort on absolute times orders these differently from local times.
    @pytest.mark.parametrize("app,seed", [("social", 22), ("social", 167),
                                          ("news", 24)])
    def test_overlapping_bursts_keep_local_order(self, app, seed):
        offset = 2.0**50
        local = generate_application_packets(app, duration=900.0, seed=seed)
        built = generate_application_packets(app, duration=900.0, seed=seed,
                                             offset=offset)

        def by_time(packets):
            return sorted(packets, key=lambda p: p.timestamp)

        assert _fields(local) == _fields(by_time(local))
        assert _fields(built) == _fields(by_time(built))
        assert _fields(built) == _fields(
            Packet(p.timestamp + offset, p.size, p.direction, p.flow_id,
                   p.app) for p in local)


class TestSeek:
    def test_seek_skips_chunks_before_start(self, monkeypatch):
        spans = []
        real = streaming.generate_application_packets

        def counting(name, duration, seed, rate=None, offset=0.0):
            spans.append((offset, offset + duration))
            return real(name, duration=duration, seed=seed, rate=rate,
                        offset=offset)

        monkeypatch.setattr(streaming, "generate_application_packets",
                            counting)
        start = 1234.5
        stream = stream_application_packets("im", duration=3000.0, seed=9,
                                            chunk_s=100.0)
        stream.seek(start)
        kept = [p for p in stream if p.timestamp >= start]
        assert spans and all(end >= start for _, end in spans)
        # Only chunks 12..29 are generated: 12 ends at 1300 >= start.
        assert [lo for lo, _ in spans] == [100.0 * k for k in range(12, 30)]
        monkeypatch.undo()
        full = stream_application_packets("im", duration=3000.0, seed=9,
                                          chunk_s=100.0)
        assert _fields(kept) == _fields(p for p in full
                                        if p.timestamp >= start)

    def test_seek_after_read_raises(self):
        stream = stream_application_packets("im", duration=600.0, seed=0)
        next(stream)
        with pytest.raises(RuntimeError, match="seek"):
            stream.seek(300.0)

    def test_user_day_seek_forwards_to_every_app(self, monkeypatch):
        spans = []
        real = streaming.generate_application_packets

        def counting(name, duration, seed, rate=None, offset=0.0):
            spans.append((name, offset + duration))
            return real(name, duration=duration, seed=seed, rate=rate,
                        offset=offset)

        monkeypatch.setattr(streaming, "generate_application_packets",
                            counting)
        start = 950.0
        day = stream_user_day_packets(("im", "email"), duration=2000.0,
                                      seed=3, chunk_s=200.0)
        day.seek(start)
        kept = [p for p in day if p.timestamp >= start]
        assert {name for name, _ in spans} == {"im", "email"}
        assert all(end >= start for _, end in spans)
        monkeypatch.undo()
        full = stream_user_day_packets(("im", "email"), duration=2000.0,
                                       seed=3, chunk_s=200.0)
        assert _fields(kept) == _fields(p for p in full
                                        if p.timestamp >= start)

    def test_seek_to_zero_changes_nothing(self):
        plain = stream_application_packets("social", duration=900.0, seed=5,
                                           chunk_s=250.0)
        seeked = stream_application_packets("social", duration=900.0, seed=5,
                                            chunk_s=250.0)
        seeked.seek(0.0)
        assert _fields(seeked) == _fields(plain)

    def test_seek_past_the_end_yields_nothing(self):
        stream = stream_application_packets("im", duration=600.0, seed=1,
                                            chunk_s=100.0)
        stream.seek(math.inf)
        assert list(stream) == []


class TestStreamApplicationPackets:
    def test_yields_time_ordered_packets(self):
        times = [p.timestamp for p in
                 stream_application_packets("im", duration=600.0, seed=1,
                                            chunk_s=120.0)]
        assert times
        assert times == sorted(times)
        assert times[-1] <= 600.0

    def test_deterministic_given_seed(self):
        def collect():
            return list(stream_application_packets("email", duration=400.0,
                                                   seed=3, chunk_s=100.0))

        first, second = collect(), collect()
        assert [(p.timestamp, p.size, p.flow_id) for p in first] == \
            [(p.timestamp, p.size, p.flow_id) for p in second]

    def test_different_seeds_differ(self):
        a = list(stream_application_packets("im", duration=300.0, seed=0))
        b = list(stream_application_packets("im", duration=300.0, seed=1))
        assert [p.timestamp for p in a] != [p.timestamp for p in b]

    def test_is_lazy(self):
        stream = stream_application_packets("im", duration=10_000.0, seed=0,
                                            chunk_s=50.0)
        # Pulling a handful of packets must not generate the whole workload.
        head = list(itertools.islice(stream, 5))
        assert len(head) == 5
        assert head[-1].timestamp < 10_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            next(stream_application_packets("im", duration=0.0))
        with pytest.raises(ValueError):
            next(stream_application_packets("im", duration=10.0, chunk_s=0.0))

    def test_materialises_to_a_valid_trace(self):
        trace = PacketTrace(
            stream_application_packets("finance", duration=300.0, seed=2),
            name="streamed",
        )
        assert len(trace) > 0
        assert trace.duration <= 300.0


class TestMergeAndUserStreams:
    def test_merge_preserves_global_order(self):
        a = stream_application_packets("im", duration=200.0, seed=0)
        b = stream_application_packets("email", duration=200.0, seed=1)
        merged = list(merge_packet_streams(a, b))
        times = [p.timestamp for p in merged]
        assert times == sorted(times)

    def test_user_day_remaps_flows_per_app(self):
        packets = list(stream_user_day_packets(("im", "finance"),
                                               duration=200.0, seed=0))
        assert packets
        flows = {p.flow_id for p in packets}
        # The second app's flows live in a distinct high range.
        assert any(f >= 1_000_000 for f in flows)
        assert any(f < 1_000_000 for f in flows)

    def test_user_day_equals_merge_of_remapped_app_streams(self):
        packets = stream_user_day_packets(("im", "finance", "email"),
                                          duration=300.0, seed=2)
        apps = [
            stream_application_packets(
                app, duration=300.0, seed=streaming._app_stream_seed(2, i))
            for i, app in enumerate(("im", "finance", "email"))
        ]
        remapped = [
            [p.with_flow(p.flow_id + i * 1_000_000) for p in stream]
            for i, stream in enumerate(apps)
        ]
        assert _fields(packets) == _fields(merge_packet_streams(*remapped))

    def test_user_day_is_an_iterator(self):
        day = stream_user_day_packets(("im", "email"), duration=300.0, seed=1)
        first = next(day)
        rest = list(day)
        full = list(stream_user_day_packets(("im", "email"), duration=300.0,
                                            seed=1))
        assert _fields([first] + rest) == _fields(full)


class TestAppStreamSeedDerivation:
    """Regression: per-app stream seeds must not collide across devices.

    The old derivation was ``seed + 13 * index``; with the consecutive
    per-device seeds cell populations hand out, device ``i``'s app at
    index ``k`` replayed device ``i + 13k``'s index-0 app traffic —
    silently de-diversifying large cells.
    """

    @staticmethod
    def _shape(packets):
        return [(p.timestamp, p.size, p.direction) for p in packets]

    def test_cross_device_app_streams_do_not_replay(self):
        # Same app name at (seed=S, index=1) vs (seed=S+13, index=0): the
        # strided rule gave both generator seed S+13 — identical traffic.
        victim = list(stream_user_day_packets(("email", "im"),
                                              duration=400.0, seed=7))
        attacker = list(stream_user_day_packets(("im", "email"),
                                                duration=400.0, seed=7 + 13))
        victim_im = [p for p in victim if p.flow_id >= 1_000_000]
        attacker_im = [p for p in attacker if p.flow_id < 1_000_000]
        assert victim_im and attacker_im
        assert self._shape(victim_im) != self._shape(attacker_im)

    def test_single_app_user_day_differs_from_bare_app_stream_shifted(self):
        # index-0 seeds are hashed too, so consecutive device seeds no
        # longer walk the same derivation chain 13 apart.
        day_a = list(stream_user_day_packets(("im",), duration=300.0, seed=0))
        day_b = list(stream_user_day_packets(("im",), duration=300.0, seed=13))
        assert self._shape(day_a) != self._shape(day_b)

    def test_user_day_still_deterministic(self):
        first = list(stream_user_day_packets(("im", "email"),
                                             duration=300.0, seed=4))
        second = list(stream_user_day_packets(("im", "email"),
                                              duration=300.0, seed=4))
        assert self._shape(first) == self._shape(second)
        assert [p.flow_id for p in first] == [p.flow_id for p in second]


class TestRateEnvelopes:
    def test_no_envelope_is_byte_identical_to_before(self):
        # envelope=None must take the exact unshaped path (golden safety).
        plain = list(stream_application_packets("im", duration=400.0, seed=3,
                                                chunk_s=100.0))
        explicit = list(stream_application_packets("im", duration=400.0, seed=3,
                                                   chunk_s=100.0, envelope=None))
        assert plain == explicit

    def test_unit_envelope_matches_unshaped(self):
        # A constant 1.0 envelope divides every gap by exactly 1.0.
        plain = list(stream_application_packets("im", duration=400.0, seed=3,
                                                chunk_s=100.0))
        unit = list(stream_application_packets("im", duration=400.0, seed=3,
                                               chunk_s=100.0,
                                               envelope=lambda t: 1.0))
        assert plain == unit

    def test_higher_rate_yields_more_sessions(self):
        low = sum(1 for _ in stream_application_packets(
            "email", duration=3600.0, seed=5, chunk_s=600.0,
            envelope=lambda t: 0.25))
        high = sum(1 for _ in stream_application_packets(
            "email", duration=3600.0, seed=5, chunk_s=600.0,
            envelope=lambda t: 4.0))
        assert low < high

    def test_envelope_sees_absolute_time_across_chunks(self):
        # A rate step at t=600 must land on the second chunk's clock, not
        # restart at zero: the quiet half yields fewer packets than the
        # busy half even though each chunk is generated locally.
        step = lambda t: 0.1 if t < 600.0 else 4.0
        packets = list(stream_application_packets(
            "email", duration=1200.0, seed=5, chunk_s=300.0, envelope=step))
        quiet = sum(1 for p in packets if p.timestamp < 600.0)
        busy = sum(1 for p in packets if p.timestamp >= 600.0)
        assert quiet < busy

    def test_shaped_stream_is_still_time_ordered(self):
        stamps = [p.timestamp for p in stream_application_packets(
            "news", duration=900.0, seed=1, chunk_s=200.0,
            envelope=lambda t: 0.5 + (t // 300.0))]
        assert stamps == sorted(stamps)

    def test_non_positive_rate_raises(self):
        with pytest.raises(ValueError, match="must be positive"):
            list(stream_application_packets("im", duration=100.0, seed=0,
                                            envelope=lambda t: 0.0))

    def test_user_day_envelope_applies_to_every_app(self):
        low = sum(1 for _ in stream_user_day_packets(
            ("im", "email"), duration=1200.0, seed=2, chunk_s=400.0,
            envelope=lambda t: 0.2))
        high = sum(1 for _ in stream_user_day_packets(
            ("im", "email"), duration=1200.0, seed=2, chunk_s=400.0,
            envelope=lambda t: 3.0))
        assert low < high
