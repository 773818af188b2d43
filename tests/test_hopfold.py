"""Property test of the shared hop recursion (``repro.netsim.hopfold``).

``fold`` and ``admit`` must give ``==`` completion times, drop verdicts,
counters and end state to a real :class:`Link` fed the same arrivals one
``send()`` at a time, the per-packet reference every planner is held to.
``admit`` works on a second real link, started from the reference's
state after the prefix, so its ``LinkStats`` are compared too, and
``fold_link`` folds that link's trailing cross arrivals.  The link
folds, the stream planner and the flow-transit walk all call these
functions, so this one generated test stands in for per-site loop
proofs.  On infinite-buffer hops both also run with the idle marks of
``repro.netsim.kernels.idle_marks``, which let the fold skip cross
arrivals; the marks themselves are checked against the cross-only float
recursion they bound.
"""

import math
from collections import deque
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim import kernels
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

#: Length of an idle gap inserted into a scenario: longer than any busy
#: period it can hold (45 arrivals of at most 1500 B at 1 Mb/s), so the
#: arrival after it finds the hop idle and can be marked.
_IDLE_GAP = 1.0


@st.composite
def _scenario(draw):
    """A hop, a cross slice after a prefix that sets the starting state,
    and a foreground sequence up to ``until``.

    The time axis is then remapped by a non-decreasing map, which keeps
    the order and the ties of all arrivals: it inserts up to four idle
    gaps and may move the origin to 1e6 s, where the float recursion
    rounds coarsely.  ``cuts`` splits the cross arrivals into the 1-3
    merges their idle marks are computed in.  ``preload`` foreground
    packets arrive just after the prefix, so the real hop can start
    busier than the cross-only hop the marks describe.
    """
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
    gaps = draw(st.lists(_TIMES, max_size=4))
    origin = draw(st.sampled_from([0.0, 1e6]))

    def remap(t):
        return origin + t + _IDLE_GAP * sum(1 for g in gaps if g <= t)

    return SimpleNamespace(
        cap=draw(st.sampled_from([1e6, 4e6, 10e6])),
        buffer_bytes=draw(st.sampled_from([None, 1500, 3000])),
        cross_t=[remap(t) for t in cross_t],
        cross_s=cross_s,
        prefix=prefix,
        fg=[remap(t) for t in fg],
        fg_size=draw(_SIZES),
        fg_sizes=draw(st.lists(_SIZES, min_size=len(fg), max_size=len(fg))),
        until=remap(until),
        cuts=sorted(draw(st.lists(st.integers(0, len(cross_t)), max_size=2))),
        preload=draw(st.integers(0, 3)),
    )


def _arrays(times, sizes):
    """The aggregator's layout: float64 times and int64 sizes."""
    return np.array(times, dtype=np.float64), np.array(sizes, dtype=np.int64)


def _marks(times, sizes, cap, cuts):
    """Idle marks of ``times``/``sizes``, merged in the parts between
    ``cuts`` with the bound carried from part to part, as the
    aggregator's merges compute them."""
    marks = bytearray()
    bound = -math.inf
    edges = [0, *cuts, len(times)]
    for a, b in zip(edges, edges[1:]):
        if a < b:
            part, bound = kernels.idle_marks(
                np.array(times[a:b], dtype=np.float64),
                np.array(sizes[a:b], dtype=np.int64),
                cap,
                bound,
            )
            marks += part
    return marks, bound


def _assert_sound(times, sizes, cap, marks, margin=None):
    """Every marked arrival finds the cross-only float recursion idle.

    With ``margin``, every arrival that finds it idle with ``margin``
    seconds to spare is marked too, so the marks are not vacuous.
    Returns the recursion's end state.
    """
    free_at = -math.inf
    for i, (t, size, mark) in enumerate(zip(times, sizes, marks)):
        if mark:
            assert free_at <= t, f"arrival {i} at {t!r} marked, hop free at {free_at!r}"
        elif margin is not None:
            assert free_at > t - margin, f"arrival {i} idle by {t - free_at!r}, unmarked"
        start = free_at if free_at > t else t
        free_at = start + size * 8.0 / cap
    return free_at


def _reference(sc, fg_sizes):
    """Per-packet reference: a real Link fed every arrival by ``send()``.

    Returns the link, its state and stats right after the prefix, and one
    ``(is_fg, accepted, done)`` entry per arrival after it.
    """
    sim = Simulator()
    link = Link(sim, sc.cap, buffer_bytes=sc.buffer_bytes, deliver=lambda pkt: None)
    snap = {}
    log = []

    def arrive(size, is_fg, logged=True):
        ok = link.send(Packet(size))
        if logged:
            log.append((is_fg, ok, link._free_at if ok else 0.0))

    def snapshot():
        snap["state"] = (link._free_at, link._backlog_bytes, deque(link._in_flight))
        snap["stats"] = link._stats.snapshot()

    p = sc.prefix
    t_snap = sc.cross_t[p - 1] if p else 0.0
    for t, size in zip(sc.cross_t[:p], sc.cross_s[:p]):
        sim.schedule_at(t, arrive, size, False, False)
    for _ in range(sc.preload):
        sim.schedule_at(t_snap, arrive, 1500, True, False)
    sim.schedule_at(t_snap, snapshot)
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


@given(_scenario())
# Preloaded foreground work keeps the real hop busy through two marked
# cross arrivals: the fold must walk them, not jump to the last one.
@example(
    SimpleNamespace(
        cap=1e6, buffer_bytes=None, cross_t=[0.001, 0.01, 0.02],
        cross_s=[100, 100, 100], prefix=1, fg=[], fg_size=40, fg_sizes=[],
        until=0.02, cuts=[], preload=3,
    )
)
@settings(max_examples=250, deadline=None, derandomize=True)
def test_fold_and_admit_match_per_packet_send(sc):
    n_cross = sum(1 for t in sc.cross_t if t <= sc.until)

    # fold: one call for the whole slice, fixed foreground size; on an
    # infinite-buffer hop once without idle marks and once with them.
    link, snap, log = _reference(sc, [sc.fg_size] * len(sc.fg))
    runs = [None]
    if sc.buffer_bytes is None:
        marks, bound = _marks(sc.cross_t, sc.cross_s, sc.cap, sc.cuts)
        end = _assert_sound(sc.cross_t, sc.cross_s, sc.cap, marks)
        assert end <= bound
        runs.append(marks)
    results = []
    for marks in runs:
        free_at, backlog, in_flight = snap["state"]
        in_flight = deque(in_flight)
        ci, free_at, backlog, fb, fp, db, dp, dones, accepts = out = fold(
            *_arrays(sc.cross_t, sc.cross_s), sc.prefix, sc.until, free_at, backlog,
            in_flight, link.capacity_bps, sc.buffer_bytes, sc.fg, sc.fg_size, marks,
        )
        results.append((out, list(in_flight)))
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
        assert dones == [done for _fg, _ok, done in fg_log]
        if sc.buffer_bytes is None:
            assert accepts is None and all(ok for _fg, ok, _done in fg_log)
        else:
            assert accepts == [ok for _fg, ok, _done in fg_log]
    assert results[-1] == results[0]

    # admit: one call per foreground arrival, per-entry sizes, into a
    # real link that starts from the reference's state after the prefix
    # and holds the cross arrivals (and their idle marks, where the hop
    # has them) in an aggregator; then the trailing cross arrivals folded
    # to ``until`` by ``fold_link``, the entry ``Link.sync`` folds
    # through (``sync`` itself folds only to now).
    link, snap, log = _reference(sc, sc.fg_sizes)
    free_at, backlog, in_flight = snap["state"]
    live = Link(Simulator(), sc.cap, buffer_bytes=sc.buffer_bytes)
    live._free_at, live._backlog_bytes, live._in_flight = free_at, backlog, in_flight
    for key, value in snap["stats"].items():
        setattr(live._stats, key, value)
    agg = CrossAggregator(live.sim, live)
    agg.times, agg.sizes = _arrays(sc.cross_t, sc.cross_s)
    agg.idx = sc.prefix
    if sc.buffer_bytes is None:
        agg.marks = _marks(sc.cross_t, sc.cross_s, sc.cap, sc.cuts)[0]
    agg._horizon = math.inf
    live._agg = agg
    got = [admit(live, t, size) for t, size in zip(sc.fg, sc.fg_sizes)]
    fold_link(live, sc.until)
    live._purge(sc.until)
    assert got == [done if ok else None for is_fg, ok, done in log if is_fg]
    assert agg.idx == n_cross
    assert (live._free_at, live._backlog_bytes, list(live._in_flight)) == (
        link._free_at, link._backlog_bytes, list(link._in_flight)
    )
    assert live._stats.snapshot() == link._stats.snapshot()


@given(
    seed=st.integers(0, 2**32 - 1),
    origin=st.sampled_from([0.0, 1e3, 1e6]),
    lengths=st.lists(st.integers(1, 5000), min_size=1, max_size=3),
    load=st.sampled_from([0.3, 0.8, 0.95, 1.2]),
    cap=st.sampled_from([1e6, 12.4e6, 155e6]),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_idle_marks_bound_the_cross_only_recursion(seed, origin, lengths, load, cap):
    """Soundness at scale: merges of up to 5,000 Poisson arrivals at
    times up to 1e6 s, some of them exact ties, with the bound carried
    across 1-3 merges.  Every marked arrival finds the cross-only float
    recursion idle, every arrival idle with 1 ms to spare is marked, and
    the carried bound is at or above the recursion's end state."""
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    sizes = rng.integers(40, 1501, n)
    gaps = rng.exponential(float(sizes.mean()) * 8.0 / cap / load, n)
    gaps[rng.random(n) < 0.05] = 0.0
    times = (origin + np.cumsum(gaps)).tolist()
    sizes = sizes.tolist()
    cuts = np.cumsum(lengths)[:-1].tolist()
    marks, bound = _marks(times, sizes, cap, cuts)
    assert len(marks) == n
    assert _assert_sound(times, sizes, cap, marks, margin=1e-3) <= bound


def test_idle_marks_keep_the_rounding_slack():
    """At t = 1e6 s, in a 2,000-arrival busy period, the sequential float
    recursion runs 979 ulps ahead of the slack-free vector bound.  An
    arrival between the two finds the hop busy: it must stay unmarked,
    and the fold with the marks must equal the fold without them."""
    cap, size, n, t0 = 10e6, 1500, 2000, 1e6
    free_at = t0
    for _ in range(n):
        free_at += size * 8.0 / cap
    slack_free = float(t0 + np.cumsum(np.full(n, size * 8.0 / cap))[-1])
    assert slack_free < free_at
    late = math.nextafter(free_at, 0.0)
    assert slack_free < late < free_at
    times = [t0] * n + [late]
    sizes = [size] * (n + 1)
    marks, _ = _marks(times, sizes, cap, [])
    assert marks[0] == 1 and marks[n] == 0
    _assert_sound(times, sizes, cap, marks)
    outs = []
    for m in (None, marks):
        in_flight = deque()
        out = fold(
            *_arrays(times, sizes), 0, late, 0.0, 0, in_flight, cap, None, (), 0, m
        )
        outs.append((out, list(in_flight)))
    assert outs[1] == outs[0]
    assert outs[0][0][1] == free_at + size * 8.0 / cap  # the late arrival waited


def test_skipped_bytes_sum_exactly_past_int64():
    """1,500 arrivals of 2**53 bytes, each finding the hop idle: the fold
    jumps over the first 1,499, and their forwarded-byte sum (about
    2**63.55, which an int64 sum wraps) equals Python's ``sum``."""
    cap, n = float(2**56), 1500  # one 2**53-byte packet takes 1 s
    times = [2.0 * i for i in range(n)]
    sizes = [2**53] * n
    marks, _ = _marks(times, sizes, cap, [])
    assert marks.rfind(1) == n - 1 > 1024
    t, s = _arrays(times, sizes)
    assert int(s.sum()) != sum(sizes)
    outs = []
    for m in (None, marks):
        in_flight = deque()
        out = fold(t, s, 0, times[-1], 0.0, 0, in_flight, cap, None, (), 0, m)
        outs.append((out, list(in_flight)))
        ci, free_at, backlog, fwd_bytes, fwd_pkts = out[:5]
        assert (ci, fwd_pkts, fwd_bytes) == (n, n, sum(sizes))
        assert type(fwd_bytes) is int and type(free_at) is float
    assert outs[1] == outs[0]
    assert outs[0][1] == [(times[-1] + 1.0, 2**53)]
