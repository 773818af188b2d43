"""Generated fuzz of the public constructors.

Every numeric argument of ``Link``, ``CrossTrafficSource`` (with its
``PacketMix``), ``PathloadConfig``, ``Scale``, ``TCPConfig`` and
``Link.set_capacity_segments`` is drawn from NaN, ±inf, a negative value,
zero and ordinary values.  Each example must either raise ``ValueError``
or construct an object that works: a link or a source then carries
traffic and ``sim.run(until=0.5)`` must reach its end, a configuration
holds only finite numbers, a TCP configuration carries a transfer to the
end of its run with the same sender and receiver state on the planned
and the per-packet path, and a capacity schedule carries bulk cross
traffic to the same link state as per-packet cross traffic.  A
wall-clock alarm turns a hang (a NaN start time never comes due) into a
failure instead of a stalled suite.
"""

import dataclasses
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PathloadConfig
from repro.experiments.base import Scale
from repro.netsim import LinkSpec, PacketMix, Simulator, build_path
from repro.netsim.crosstraffic import CrossTrafficSource
from repro.netsim.link import Link
from repro.netsim.packet import Packet
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


@given(
    capacity_bps=_numbers(st.floats(1e5, 1e8)),
    prop_delay=_numbers(st.floats(0.0, 0.1)),
    buffer_bytes=st.one_of(st.none(), _numbers(st.integers(1, 20_000))),
    size=st.integers(40, 1500),
)
@_FUZZ
def test_link(capacity_bps, prop_delay, buffer_bytes, size):
    sim = Simulator()
    delivered = []
    link = _constructs(
        lambda: Link(
            sim, capacity_bps, prop_delay=prop_delay, buffer_bytes=buffer_bytes,
            deliver=delivered.append,
        )
    )
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
    negative weights can still sum to 1)."""
    if draw(st.booleans()):
        return None
    p = draw(_numbers(st.floats(0.0, 1.0)))
    size = draw(st.one_of(_MIX_SIZES, _numbers(st.integers(1, 9000))))
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


def _mostly(ordinary, *odd):
    """An ``ordinary`` draw three times in four, else NaN, ±inf, -1, 0 or
    one of ``odd``: a config has nine fuzzed fields, and at even odds
    almost every example would fail on one of them."""
    return st.one_of(ordinary, ordinary, ordinary, st.sampled_from(_ODD + list(odd)))


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


@given(
    overrides=st.fixed_dictionaries(
        {},
        optional={
            "mss": _mostly(st.integers(500, 1460), 1460.5),
            "header_bytes": _mostly(st.integers(1, 60), -40, 40.5),
            "initial_cwnd_segments": _mostly(st.integers(1, 4), 1.5),
            "initial_ssthresh_bytes": st.one_of(
                st.none(), _mostly(st.integers(1, 60_000), 3000.5)
            ),
            "advertised_window_bytes": _mostly(st.integers(0, 100_000), 30_000.5),
            "dupack_threshold": _mostly(st.integers(1, 5), 2.5),
            "initial_rto": _mostly(st.floats(0.01, 3.0)),
            "delayed_ack": st.booleans(),
            "delack_timeout": _mostly(st.floats(0.0, 0.5), -0.1),
        },
    )
)
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


#: When a fuzzed capacity schedule is installed.
_INSTALL_AT = 0.1


@st.composite
def _capacity_segments(draw):
    """1-4 ``(time, capacity)`` pairs of one of five kinds: "odd" draws
    every value from :func:`_numbers`, in drawn order; the others draw
    ordinary values with increasing times, then leave them ("valid"),
    move the first to or before the install instant ("past"), repeat it
    last ("repeat") or reverse the order ("fall").  With odd values at
    even odds, a schedule of several segments would almost never be
    valid."""
    n = draw(st.integers(1, 4))
    times = st.floats(0.0, 0.6)
    caps = st.floats(1e5, 2e7)
    kind = draw(st.sampled_from(["valid", "odd", "past", "repeat", "fall"]))
    if kind == "odd":
        times = [draw(_numbers(times)) for _ in range(n)]
        return [(t, draw(_numbers(caps))) for t in times]
    future = st.floats(_INSTALL_AT, 0.6, exclude_min=True)
    times = sorted(draw(st.lists(future, min_size=n, max_size=n, unique=True)))
    if kind == "past":
        times[0] = draw(st.floats(0.0, _INSTALL_AT))
    elif kind == "repeat":
        times[-1] = times[0]
    elif kind == "fall":
        times.reverse()
    return [(t, draw(caps)) for t in times]


def _scheduled_hop(bulk):
    """A 10 Mb/s hop with a 30 kB buffer, loaded with 4 Mb/s of Poisson
    cross traffic and run to the install instant."""
    sim = Simulator()
    net = build_path(sim, [LinkSpec(10e6, buffer_bytes=30_000)])
    link = net.forward_links[0]
    CrossTrafficSource(
        sim, net, link, 4e6, np.random.default_rng(0), model="poisson", bulk=bulk
    )
    sim.run(until=_INSTALL_AT)
    return sim, net, link


def _carry(sim, net, link):
    """50 foreground packets across the hop, then the hop's state."""
    delivered = []

    def send():
        net.send_forward(Packet(1000), lambda _p: delivered.append(sim.now))

    for k in range(50):
        sim.schedule_at(_INSTALL_AT + 0.008 * k, send)
    sim.run(until=0.6)
    return link.stats.snapshot(), link.backlog_bytes(), delivered


@given(segments=_capacity_segments())
@_FUZZ
def test_capacity_segments(segments):
    sim, net, link = _scheduled_hop(bulk=True)
    try:
        link.set_capacity_segments(segments)
    except ValueError:
        return
    for t, c in segments:
        assert link.capacity_at(t) == c
    with _deadline():
        bulk = _carry(sim, net, link)
        sim, net, link = _scheduled_hop(bulk=False)
        link.set_capacity_segments(segments)
        per_packet = _carry(sim, net, link)
    assert bulk == per_packet


def test_alarm_fails_a_hang():
    """The wall-clock guard turns a hang into an error."""
    with pytest.raises(TimeoutError):
        with _deadline(1):
            while True:
                pass
