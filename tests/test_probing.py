"""Tests for the probing primitives (specs, measurements, actions)."""

import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import (
    Idle,
    PacketRecord,
    SendStream,
    StreamMeasurement,
    StreamSpec,
    stream_spec_for_rate,
)


class TestStreamSpec:
    def test_period_and_duration(self):
        spec = StreamSpec(rate_bps=8e6, packet_size=1000, n_packets=100)
        assert spec.period == pytest.approx(0.001)
        assert spec.duration == pytest.approx(0.099)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_bps": 0, "packet_size": 100, "n_packets": 10},
            {"rate_bps": 1e6, "packet_size": 0, "n_packets": 10},
            {"rate_bps": 1e6, "packet_size": 100, "n_packets": 1},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StreamSpec(**kwargs)

    @given(rate=st.floats(1e3, 119e6))
    @settings(max_examples=100)
    def test_spec_for_rate_invariants(self, rate):
        """For any feasible rate: size within [min,mtu], period >= T_min,
        and the rate is realized exactly."""
        spec = stream_spec_for_rate(rate)
        assert 200 <= spec.packet_size <= 1500
        if spec.packet_size > 200:  # not pinned at the minimum size
            assert spec.period >= 100e-6 - 1e-12
        assert spec.packet_size * 8 / spec.period == pytest.approx(rate)


class TestMeasurementEdgeCases:
    def spec(self):
        return StreamSpec(rate_bps=1e6, packet_size=200, n_packets=10)

    def test_total_loss(self):
        m = StreamMeasurement(spec=self.spec(), records=[], n_sent=10)
        assert m.loss_rate == 1.0
        assert m.n_received == 0
        assert len(m.relative_owds()) == 0

    def test_dispersion_needs_two_packets(self):
        m = StreamMeasurement(
            spec=self.spec(),
            records=[PacketRecord(seq=0, sender_stamp=0.0, recv_stamp=0.1)],
            n_sent=10,
        )
        with pytest.raises(ValueError, match="two received"):
            m.dispersion_rate_bps()

    def test_simultaneous_arrivals_rejected_in_dispersion(self):
        records = [
            PacketRecord(seq=0, sender_stamp=0.0, recv_stamp=0.1),
            PacketRecord(seq=1, sender_stamp=0.01, recv_stamp=0.1),
        ]
        m = StreamMeasurement(spec=self.spec(), records=records, n_sent=2)
        with pytest.raises(ValueError, match="span"):
            m.dispersion_rate_bps()

    def test_zero_sent_loss_rate(self):
        m = StreamMeasurement(spec=self.spec(), records=[], n_sent=0)
        assert m.loss_rate == 0.0

    def test_single_record_sender_gaps_empty(self):
        m = StreamMeasurement(
            spec=self.spec(),
            records=[PacketRecord(seq=0, sender_stamp=0.0, recv_stamp=0.1)],
            n_sent=10,
        )
        assert len(m.sender_gaps()) == 0

    def test_relative_owd_property(self):
        r = PacketRecord(seq=3, sender_stamp=1.5, recv_stamp=1.62)
        assert r.relative_owd == pytest.approx(0.12)


class TestActions:
    def test_idle_rejects_negative(self):
        with pytest.raises(ValueError):
            Idle(-0.1)

    def test_idle_zero_allowed(self):
        assert Idle(0.0).duration == 0.0

    def test_send_stream_carries_spec(self):
        spec = StreamSpec(rate_bps=1e6, packet_size=200, n_packets=10)
        assert SendStream(spec).spec is spec


# ----------------------------------------------------------------------
# Columnar measurements against the record-based formulas
# ----------------------------------------------------------------------
def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _record_formulas(records, n_sent, packet_size):
    """Every statistic computed record by record from PacketRecord
    objects sorted by seq: the reference the arrays must match bit for
    bit."""
    recs = sorted(records, key=operator.attrgetter("seq"))
    owds = np.array([r.recv_stamp - r.sender_stamp for r in recs], dtype=np.float64)
    arrivals = np.array([r.recv_stamp for r in recs], dtype=np.float64)
    if len(recs) < 2:
        gaps = np.empty(0, dtype=np.float64)
    else:
        stamps = np.array([r.sender_stamp for r in recs])
        seqs = np.array([r.seq for r in recs], dtype=np.float64)
        gaps = np.diff(stamps) / np.diff(seqs)
    dispersion = None
    if len(recs) >= 2:
        span = recs[-1].recv_stamp - recs[0].recv_stamp
        if span > 0:
            dispersion = (len(recs) - 1) * packet_size * 8.0 / span
    loss = 0.0 if n_sent == 0 else 1.0 - len(recs) / n_sent
    return recs, owds, arrivals, gaps, dispersion, loss


_STAMPS = st.floats(
    min_value=-1e7, max_value=1e7, allow_nan=False, allow_infinity=False
)


@st.composite
def _received(draw):
    """(K, records): a random received subset of K packets, in a random
    arrival order, with finite random stamps."""
    k = draw(st.integers(2, 200))
    order = draw(st.permutations(range(k)))
    m = draw(st.integers(0, k))
    stamps = draw(st.lists(st.tuples(_STAMPS, _STAMPS), min_size=m, max_size=m))
    records = [
        PacketRecord(seq=seq, sender_stamp=s, recv_stamp=r)
        for seq, (s, r) in zip(order[:m], stamps)
    ]
    return k, records


class TestColumnarMeasurement:
    @given(_received())
    @settings(max_examples=150, deadline=None)
    def test_arrays_match_record_formulas(self, received):
        k, records = received
        spec = StreamSpec(rate_bps=1e6, packet_size=200, n_packets=k)
        from_records = StreamMeasurement(spec, records=records, n_sent=k)
        from_arrays = StreamMeasurement(
            spec,
            n_sent=k,
            seq=np.array([r.seq for r in records], dtype=np.int64),
            sender_stamp=np.array([r.sender_stamp for r in records]),
            recv_stamp=np.array([r.recv_stamp for r in records]),
        )
        assert (from_records == from_arrays) is True
        recs, owds, arrivals, gaps, dispersion, loss = _record_formulas(
            records, k, spec.packet_size
        )
        for m in (from_records, from_arrays):
            assert m.records == recs
            assert all(
                type(r.seq) is int
                and type(r.sender_stamp) is float
                and type(r.recv_stamp) is float
                for r in m.records
            )
            assert _hex(m.relative_owds()) == _hex(owds)
            assert _hex(m.arrival_times()) == _hex(arrivals)
            assert _hex(m.sender_gaps()) == _hex(gaps)
            if dispersion is None:
                with pytest.raises(ValueError):
                    m.dispersion_rate_bps()
            else:
                rate = m.dispersion_rate_bps()
                assert type(rate) is float
                assert rate.hex() == dispersion.hex()
            assert m.n_received == len(recs)
            assert m.loss_rate.hex() == loss.hex()

            data = pickle.dumps(m)
            assert b"PacketRecord" not in data  # the cached view stays out
            back = pickle.loads(data)
            assert (back == m) is True
            assert back.records == recs

    def test_arrival_times_is_a_copy(self):
        spec = StreamSpec(rate_bps=1e6, packet_size=200, n_packets=3)
        m = StreamMeasurement(
            spec, n_sent=3, seq=[0, 1, 2], sender_stamp=[0.0, 1.0, 2.0],
            recv_stamp=[0.5, 1.5, 2.5],
        )
        m.arrival_times()[0] = 99.0
        assert m.recv_stamp[0] == 0.5

    def test_equality_is_a_plain_bool(self):
        spec = StreamSpec(rate_bps=1e6, packet_size=200, n_packets=3)

        def one(recv):
            return StreamMeasurement(
                spec, n_sent=3, seq=[0], sender_stamp=[0.0], recv_stamp=[recv]
            )

        assert (one(0.5) == one(0.6)) is False
        assert (one(0.5) == one(0.5)) is True

    def test_records_and_arrays_are_exclusive(self):
        spec = StreamSpec(rate_bps=1e6, packet_size=200, n_packets=3)
        record = PacketRecord(seq=0, sender_stamp=0.0, recv_stamp=0.1)
        with pytest.raises(TypeError, match="either"):
            StreamMeasurement(spec, records=[record], n_sent=3, seq=[0])
        with pytest.raises(ValueError, match="lengths"):
            StreamMeasurement(
                spec, n_sent=3, seq=[0, 1], sender_stamp=[0.0], recv_stamp=[0.1]
            )
