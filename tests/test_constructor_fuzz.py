"""Generated fuzz of the public constructors.

Every numeric argument of ``Link``, ``CrossTrafficSource`` (with its
``PacketMix``), ``PathloadConfig``, ``Scale``, ``TCPConfig``, ``Pinger``,
``ProbeChannel``, ``StreamSpec`` and ``SendJitter`` is drawn from NaN,
±inf, a negative value, zero and ordinary values.  Each example must
either raise ``ValueError`` or construct an object that works: a link or
a source then carries traffic and ``sim.run(until=0.5)`` must reach its
end, a configuration holds only finite numbers, a TCP configuration
carries a transfer to the end of its run with the same sender and
receiver state on the planned and the per-packet path, and a pinger or a
probe stream runs to t = 5 s with a finite clock and its answers back.
A wall-clock alarm turns a hang (a NaN start time never comes due) into
a failure instead of a stalled suite.

Where a constructor has several fuzzed fields, each example first draws
its kind (:func:`_kinds`): hypothesis's generator favours odd and
boundary values, so with every field drawn at even odds almost no
example would construct.
"""

import dataclasses
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import PathloadConfig
from repro.core.probing import StreamSpec
from repro.experiments.base import Scale
from repro.netsim import LinkSpec, PacketMix, Simulator, build_path
from repro.netsim.crosstraffic import CrossTrafficSource
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.transport.ping import Pinger
from repro.transport.probe import ProbeChannel, SendJitter
from repro.transport.tcp import TCPConfig, open_connection

from .test_flowtransit import flow_state

#: Wall-clock budget of one example; a legitimate one takes milliseconds.
_ALARM_S = 3

_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


#: NaN, +inf, -inf, a negative value and zero.
_ODD = [math.nan, math.inf, -math.inf, -1.0, 0.0]


def _numbers(ordinary):
    """One of :data:`_ODD`, or an ``ordinary`` draw."""
    return st.one_of(st.sampled_from(_ODD), ordinary)


@st.composite
def _kinds(draw, ordinary, odd):
    """Keyword arguments of one of two kinds: an ``ordinary`` draw (a
    strategy of keyword arguments that construct), or that draw with
    exactly one field of ``odd`` (field -> odd values) set to one of its
    odd values.  The kind is ordinary two times in three on paper; at
    even odds fewer than half of the examples of ``test_link`` would
    construct."""
    kwargs = draw(ordinary)
    if draw(st.sampled_from(["ordinary", "ordinary", "one-odd"])) == "one-odd":
        name = draw(st.sampled_from(sorted(odd)))
        kwargs[name] = draw(st.sampled_from(odd[name]))
    return kwargs


class _Hang(Exception):
    pass


@contextmanager
def _deadline(seconds=_ALARM_S):
    def on_alarm(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    except _Hang:
        # Re-raised without its context: an interrupted frame can lack a
        # line number, and pytest fails while rendering such a traceback.
        raise TimeoutError(
            f"example still running after {seconds} s of wall time"
        ) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _constructs(factory):
    """``factory()``, or ``None`` when it raises ``ValueError``."""
    try:
        return factory()
    except ValueError:
        return None


_LINK_ORDINARY = {
    "capacity_bps": st.floats(1e5, 1e8),
    "prop_delay": st.floats(0.0, 0.1),
    "buffer_bytes": st.one_of(st.none(), st.integers(1, 20_000)),
}


@given(
    kwargs=_kinds(
        st.fixed_dictionaries(_LINK_ORDINARY),
        {name: _ODD for name in _LINK_ORDINARY},
    ),
    size=st.integers(40, 1500),
)
@_FUZZ
def test_link(kwargs, size):
    sim = Simulator()
    delivered = []
    link = _constructs(lambda: Link(sim, deliver=delivered.append, **kwargs))
    if link is None:
        return
    n_sent = 50
    for k in range(n_sent):
        sim.schedule_at(k * 0.005, lambda: link.send(Packet(size)))
    with _deadline():
        sim.run(until=0.5)
    stats = link.stats
    assert stats.packets_forwarded + stats.packets_dropped == n_sent
    assert len(delivered) <= stats.packets_forwarded


_MIX_SIZES = st.sampled_from([40, 550, 1500])


@st.composite
def _mixes(draw):
    """None (the paper's mix) or a two-size mix whose first weight is
    fuzzed and whose second is its complement (so NaN, infinite and
    negative weights can still sum to 1).  The first size is a mix size,
    an integer, or odd: one of :data:`_ODD` or a fractional size."""
    if draw(st.booleans()):
        return None
    p = draw(_numbers(st.floats(0.0, 1.0)))
    size = draw(
        st.one_of(
            _MIX_SIZES, st.sampled_from(_ODD + [550.5]), st.integers(1, 9000)
        )
    )
    return ((size, p), (draw(_MIX_SIZES), 1.0 - p))


@given(
    rate_bps=_numbers(st.floats(1e3, 5e6)),
    model=st.sampled_from(["poisson", "pareto", "cbr"]),
    alpha=_numbers(st.floats(1.05, 3.0)),
    mix=_mixes(),
    start=_numbers(st.floats(0.0, 0.4)),
    stop=st.one_of(st.none(), _numbers(st.floats(0.0, 0.6))),
    modulation=st.one_of(
        st.none(),
        st.tuples(_numbers(st.floats(0.05, 1.0)), _numbers(st.floats(0.0, 1.0))),
    ),
    bulk=st.sampled_from([None, False]),
    now=st.sampled_from([0.0, 0.1]),
)
@_FUZZ
def test_cross_traffic_source(
    rate_bps, model, alpha, mix, start, stop, modulation, bulk, now
):
    sim = Simulator()
    net = build_path(sim, [LinkSpec(10e6, buffer_bytes=30_000)])
    sim.run(until=now)

    def build():
        return CrossTrafficSource(
            sim, net, net.forward_links[0], rate_bps, np.random.default_rng(0),
            model=model, alpha=alpha, mix=None if mix is None else PacketMix(mix),
            start=start, stop=stop, modulation=modulation, bulk=bulk,
        )

    src = _constructs(build)
    if mix is not None and not (isinstance(mix[0][0], int) and mix[0][0] >= 1):
        assert src is None, f"packet size {mix[0][0]!r} accepted"
    if src is None:
        return
    with _deadline():
        sim.run(until=0.5)
        sent = src.packets_sent
    stats = net.forward_links[0].stats
    assert 0 <= sent <= stats.packets_forwarded + stats.packets_dropped
    if stop is not None and stop <= start:
        assert sent == 0


_CONFIG_FIELDS = [
    f.name
    for f in dataclasses.fields(PathloadConfig)
    if isinstance(f.default, (int, float)) and not isinstance(f.default, bool)
]


def _config_value(name):
    default = getattr(PathloadConfig, name)
    if isinstance(default, int):
        return _numbers(st.integers(0, 2 * default + 2))
    return _numbers(st.floats(0.0, 2.0 * default))


@given(
    overrides=st.fixed_dictionaries(
        {},
        optional={name: _config_value(name) for name in _CONFIG_FIELDS}
        | {"initial_rate_bps": st.one_of(st.none(), _numbers(st.floats(1e5, 1e8)))},
    )
)
@_FUZZ
def test_pathload_config(overrides):
    cfg = _constructs(lambda: PathloadConfig(**overrides))
    if cfg is None:
        return
    for name in _CONFIG_FIELDS + ["initial_rate_bps"]:
        value = getattr(cfg, name)
        assert value is None or math.isfinite(value), f"{name}={value} accepted"


@given(
    runs=st.one_of(_numbers(st.integers(1, 10)), st.just(2.5)),
    interval=_numbers(st.floats(1.0, 600.0)),
    full=st.booleans(),
)
@_FUZZ
def test_scale(runs, interval, full):
    scale = _constructs(lambda: Scale(runs=runs, interval=interval, full=full))
    if scale is None:
        return
    assert isinstance(scale.runs, int) and scale.runs >= 1
    assert 0 < scale.interval < math.inf


def _tcp_transfer(cfg, fast):
    """Sender and receiver state after a 200 kB transfer over a 10 Mb/s
    hop with a 30 kB buffer, run to t = 5 s."""
    sim = Simulator()
    net = build_path(sim, [LinkSpec(10e6, prop_delay=5e-3, buffer_bytes=30_000)])
    snd, rcv = open_connection(
        sim, net, config=cfg, total_bytes=200_000, start=0.0, fast=fast
    )
    sim.run(until=5.0)
    return flow_state(snd, rcv)


#: Ordinary TCPConfig overrides (each optional), all valid together.
_TCP_ORDINARY = {
    "mss": st.integers(500, 1460),
    "header_bytes": st.integers(1, 60),
    "initial_cwnd_segments": st.integers(1, 4),
    "initial_ssthresh_bytes": st.one_of(st.none(), st.integers(1, 60_000)),
    "advertised_window_bytes": st.integers(1460, 100_000),
    "dupack_threshold": st.integers(1, 5),
    "initial_rto": st.floats(0.01, 3.0),
    "delayed_ack": st.booleans(),
    "delack_timeout": st.floats(0.0, 0.5),
    "min_rto": st.floats(0.05, 1.0),
    "max_rto": st.floats(1.0, 60.0),
    "congestion_control": st.sampled_from(["reno", "vegas"]),
    "vegas_alpha": st.floats(0.5, 2.0),
    "vegas_beta": st.floats(2.0, 6.0),
    "vegas_gamma": st.floats(0.0, 3.0),
}

#: Odd values per field; 0 and 499 are windows below any ordinary mss.
_TCP_ODD = {
    "mss": _ODD + [1460.5],
    "header_bytes": _ODD + [-40, 40.5],
    "initial_cwnd_segments": _ODD + [1.5],
    "initial_ssthresh_bytes": _ODD + [3000.5],
    "advertised_window_bytes": _ODD + [0, 499, 30_000.5],
    "dupack_threshold": _ODD + [2.5],
    "initial_rto": _ODD,
    "delack_timeout": _ODD + [-0.1],
    "min_rto": _ODD,
    "max_rto": _ODD,
    "congestion_control": _ODD + ["cubic", "Reno"],
    "vegas_alpha": _ODD,
    "vegas_beta": _ODD,
    "vegas_gamma": _ODD + [-0.5],
}


@given(overrides=_kinds(st.fixed_dictionaries({}, optional=_TCP_ORDINARY), _TCP_ODD))
@_FUZZ
def test_tcp_config(overrides):
    cfg = _constructs(lambda: TCPConfig(**overrides))
    if cfg is None:
        return
    with _deadline():
        planned = _tcp_transfer(cfg, True)
        per_packet = _tcp_transfer(cfg, False)
    assert planned == per_packet
    assert planned[0] > 0, "the transfer never had a byte acknowledged"


def _idle_hop(now=0.0):
    """An idle 10 Mb/s hop with 1 ms of propagation delay, run to ``now``."""
    sim = Simulator()
    net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
    sim.run(until=now)
    return sim, net


def _run_stream(sim, chan, spec):
    """Send ``spec`` on ``chan`` at t = 0.1 s and run to t = 5 s under the
    alarm; return the measurements reported by then."""
    reported = []
    sim.schedule_at(
        0.1, lambda: chan.send_stream(spec).add_callback(reported.append)
    )
    with _deadline():
        sim.run(until=5.0)
    assert math.isfinite(sim.now)
    return reported


#: A stream that reports well before t = 5 s on an idle 10 Mb/s hop.
_SPEC = StreamSpec(rate_bps=2e6, packet_size=200, n_packets=20)

_PING_ORDINARY = {
    "interval": st.floats(0.01, 1.0),
    "timeout": st.floats(0.01, 3.0),
    "start": st.floats(0.0, 0.4),
    "stop": st.one_of(st.none(), st.floats(0.0, 6.0)),
}


@given(
    kwargs=_kinds(
        st.fixed_dictionaries(_PING_ORDINARY),
        {name: _ODD for name in _PING_ORDINARY},
    ),
    now=st.sampled_from([0.0, 0.1]),
)
@example(kwargs={"interval": math.nan}, now=0.0)
@example(kwargs={"start": math.nan}, now=0.0)
@example(kwargs={"timeout": math.nan}, now=0.0)
@_FUZZ
def test_pinger(kwargs, now):
    sim, net = _idle_hop(now)
    ping = _constructs(lambda: Pinger(sim, net, **kwargs))
    if ping is None:
        return
    with _deadline():
        sim.run(until=5.0)
    assert math.isfinite(sim.now)
    # The idle path answers each probe in about 2 ms, well within any
    # timeout the pinger accepts.
    assert ping.lost == 0
    assert all(0 < rtt < ping.timeout for _t, rtt in ping.rtts)
    stop = kwargs.get("stop")
    if stop is not None:
        assert all(t < stop for t, _rtt in ping.rtts)


@given(
    kwargs=_kinds(
        st.fixed_dictionaries(
            {"control_delay": st.one_of(st.none(), st.floats(0.0, 0.5))}
        ),
        {"control_delay": _ODD},
    ),
    fast=st.booleans(),
)
@example(kwargs={"control_delay": math.nan}, fast=True)
@example(kwargs={"control_delay": -1.0}, fast=True)
@example(kwargs={"control_delay": math.inf}, fast=True)
@_FUZZ
def test_probe_channel(kwargs, fast):
    sim, net = _idle_hop()
    chan = _constructs(lambda: ProbeChannel(sim, net, fast=fast, **kwargs))
    if chan is None:
        return
    assert len(_run_stream(sim, chan, _SPEC)) == 1


_STREAM_ORDINARY = {
    "rate_bps": st.floats(1e6, 2e7),
    "packet_size": st.integers(40, 1500),
    "n_packets": st.integers(2, 100),
}


@given(
    kwargs=_kinds(
        st.fixed_dictionaries(_STREAM_ORDINARY),
        {
            "rate_bps": _ODD,
            "packet_size": _ODD + [-1, 0, 300.5],
            "n_packets": _ODD + [0, 1, 2.5],
        },
    ),
    fast=st.booleans(),
)
@example(kwargs={"rate_bps": math.nan, "packet_size": 200, "n_packets": 20}, fast=True)
@example(kwargs={"rate_bps": math.nan, "packet_size": 200, "n_packets": 20}, fast=False)
@example(kwargs={"rate_bps": math.inf, "packet_size": 200, "n_packets": 20}, fast=True)
@example(kwargs={"rate_bps": 2e6, "packet_size": 200, "n_packets": 2.5}, fast=True)
@_FUZZ
def test_stream_spec(kwargs, fast):
    spec = _constructs(lambda: StreamSpec(**kwargs))
    if spec is None:
        return
    assert 0 < spec.period < math.inf
    sim, net = _idle_hop()
    assert len(_run_stream(sim, ProbeChannel(sim, net, fast=fast), spec)) == 1


@given(
    kwargs=_kinds(
        st.fixed_dictionaries(
            {"prob": st.floats(0.0, 1.0), "max_delay": st.floats(0.0, 0.01)}
        ),
        {"prob": _ODD + [1.5], "max_delay": _ODD},
    ),
    fast=st.booleans(),
)
@example(kwargs={"prob": 0.5, "max_delay": math.nan}, fast=True)
@example(kwargs={"prob": 0.5, "max_delay": math.inf}, fast=True)
@_FUZZ
def test_send_jitter(kwargs, fast):
    jitter = _constructs(lambda: SendJitter(np.random.default_rng(0), **kwargs))
    if jitter is None:
        return
    assert 0 <= jitter.max_delay < math.inf
    sim, net = _idle_hop()
    chan = ProbeChannel(sim, net, jitter=jitter, fast=fast)
    assert len(_run_stream(sim, chan, _SPEC)) == 1


def test_alarm_fails_a_hang():
    """The wall-clock guard turns a hang into an error."""
    with pytest.raises(TimeoutError):
        with _deadline(1):
            while True:
                pass
