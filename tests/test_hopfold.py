"""Property test of the shared hop recursion (``repro.netsim.hopfold``).

``fold`` and ``admit`` must give ``==`` completion times, drop verdicts,
counters and end state to a real :class:`Link` fed the same arrivals one
``send()`` at a time, the per-packet reference every planner is held to.
``admit`` works on a second real link, started from the reference's
state after the prefix, so its ``LinkStats`` are compared too, and
``fold_link`` folds that link's trailing cross arrivals.  The link
folds, the stream planner and the flow-transit walk all call these
functions, so this one generated test stands in for per-site loop
proofs.
"""

import math
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.bulkarrivals import CrossAggregator
from repro.netsim.engine import Simulator
from repro.netsim.hopfold import admit, fold, fold_link
from repro.netsim.link import Link
from repro.netsim.packet import Packet

#: Arrival times: a small pool (exact ties within and between the cross
#: and foreground sequences, adjacent doubles) mixed with arbitrary
#: positive floats.
_TIMES = st.one_of(
    st.sampled_from([0.001, 0.002, 0.0025, 0.004, 0.01, 0.01 + 2.0**-58]),
    st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
)
_SIZES = st.integers(40, 1500)


@st.composite
def _scenario(draw):
    """A hop, a cross slice after a prefix that sets the starting state,
    and a foreground sequence up to ``until``."""
    cross_t = sorted(draw(st.lists(_TIMES, max_size=30)))
    cross_s = draw(st.lists(_SIZES, min_size=len(cross_t), max_size=len(cross_t)))
    prefix = draw(st.integers(0, len(cross_t)))
    t_snap = cross_t[prefix - 1] if prefix else 0.0
    fg = draw(
        st.lists(st.one_of(st.sampled_from(cross_t or [0.002]), _TIMES), max_size=12)
    )
    until = draw(
        st.sampled_from(sorted({t for t in cross_t + fg if t >= t_snap} | {t_snap}))
    )
    fg = sorted(t for t in fg if t_snap <= t <= until)
    return SimpleNamespace(
        cap=draw(st.sampled_from([1e6, 4e6, 10e6])),
        buffer_bytes=draw(st.sampled_from([None, 1500, 3000])),
        cross_t=cross_t,
        cross_s=cross_s,
        prefix=prefix,
        fg=fg,
        fg_size=draw(_SIZES),
        fg_sizes=draw(st.lists(_SIZES, min_size=len(fg), max_size=len(fg))),
        until=until,
        scheduled=draw(st.booleans()),
        rates=draw(st.lists(st.sampled_from([0.5e6, 2e6, 20e6]), min_size=1, max_size=2)),
        pick=draw(st.integers(0, 10_000)),
    )


def _reference(sc, fg_sizes, schedule=None):
    """Per-packet reference: a real Link fed every arrival by ``send()``.

    Returns the link, its state and stats right after the prefix, and one
    ``(is_fg, accepted, done, start)`` entry per arrival after it.
    """
    sim = Simulator()
    link = Link(sim, sc.cap, buffer_bytes=sc.buffer_bytes, deliver=lambda pkt: None)
    if schedule:
        link.set_capacity_segments(schedule)
    snap = {}
    log = []

    def arrive(size, is_fg, logged=True):
        before = link._free_at
        ok = link.send(Packet(size))
        if logged:
            log.append((is_fg, ok, link._free_at if ok else 0.0, max(sim.now, before)))

    def snapshot():
        snap["state"] = (link._free_at, link._backlog_bytes, deque(link._in_flight))
        snap["stats"] = link._stats.snapshot()

    p = sc.prefix
    for t, size in zip(sc.cross_t[:p], sc.cross_s[:p]):
        sim.schedule_at(t, arrive, size, False, False)
    sim.schedule_at(sc.cross_t[p - 1] if p else 0.0, snapshot)
    # Cross arrivals win exact-time ties, as Link.send() folds them first.
    merged = sorted(
        [(t, 0, size) for t, size in zip(sc.cross_t[p:], sc.cross_s[p:]) if t <= sc.until]
        + [(t, 1, size) for t, size in zip(sc.fg, fg_sizes)],
        key=lambda entry: entry[:2],
    )
    for t, is_fg, size in merged:
        sim.schedule_at(t, arrive, size, bool(is_fg))
    sim.run(until=sc.until)
    link._purge(sc.until)
    return link, snap, log


def _schedule(sc, fg_sizes):
    """No schedule, or one whose first boundary falls exactly on the
    start of a transmission after the prefix."""
    if not sc.scheduled:
        return None
    _, _, log = _reference(sc, fg_sizes)
    starts = sorted({start for _fg, ok, _done, start in log if ok})
    if not starts:
        return None
    boundary = starts[sc.pick % len(starts)]
    return [(boundary + 0.003 * k, rate) for k, rate in enumerate(sc.rates)]


@given(_scenario())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_fold_and_admit_match_per_packet_send(sc):
    n_cross = sum(1 for t in sc.cross_t if t <= sc.until)

    # fold: one call for the whole slice, fixed foreground size.
    sizes = [sc.fg_size] * len(sc.fg)
    link, snap, log = _reference(sc, sizes, _schedule(sc, sizes))
    free_at, backlog, in_flight = snap["state"]
    ci, free_at, backlog, fb, fp, db, dp, dones, accepts = fold(
        sc.cross_t, sc.cross_s, sc.prefix, sc.until, free_at, backlog, in_flight,
        link.capacity_bps, link._cap_sched, sc.buffer_bytes, sc.fg, sc.fg_size,
    )
    stats, before = link._stats.snapshot(), snap["stats"]
    fg_log = [entry for entry in log if entry[0]]
    assert ci == n_cross
    assert (free_at, backlog, list(in_flight)) == (
        link._free_at, link._backlog_bytes, list(link._in_flight)
    )
    assert (fb, fp, db, dp) == tuple(
        stats[key] - before[key]
        for key in ("bytes_forwarded", "packets_forwarded", "bytes_dropped", "packets_dropped")
    )
    assert dones == [done for _fg, _ok, done, _start in fg_log]
    if sc.buffer_bytes is None:
        assert accepts is None and all(ok for _fg, ok, _done, _start in fg_log)
    else:
        assert accepts == [ok for _fg, ok, _done, _start in fg_log]

    # admit: one call per foreground arrival, per-entry sizes, into a
    # real link that starts from the reference's state after the prefix
    # and holds the cross arrivals in an aggregator; then the trailing
    # cross arrivals folded to ``until`` by ``fold_link``, the entry
    # ``Link.sync`` folds through (``sync`` itself folds only to now).
    link, snap, log = _reference(sc, sc.fg_sizes, _schedule(sc, sc.fg_sizes))
    free_at, backlog, in_flight = snap["state"]
    live = Link(Simulator(), sc.cap, buffer_bytes=sc.buffer_bytes)
    live._cap_sched = link._cap_sched
    live._free_at, live._backlog_bytes, live._in_flight = free_at, backlog, in_flight
    for key, value in snap["stats"].items():
        setattr(live._stats, key, value)
    agg = CrossAggregator(live.sim, live)
    agg.times, agg.sizes, agg.idx = list(sc.cross_t), list(sc.cross_s), sc.prefix
    agg._horizon = math.inf
    live._agg = agg
    got = [admit(live, t, size) for t, size in zip(sc.fg, sc.fg_sizes)]
    fold_link(live, sc.until)
    live._purge(sc.until)
    assert got == [done if ok else None for is_fg, ok, done, _start in log if is_fg]
    assert agg.idx == n_cross
    assert (live._free_at, live._backlog_bytes, list(live._in_flight)) == (
        link._free_at, link._backlog_bytes, list(link._in_flight)
    )
    assert live._stats.snapshot() == link._stats.snapshot()
