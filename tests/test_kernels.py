"""Bit-equality and opt-out tests for the NumPy merge kernel.

``repro.netsim.kernels.merge_parts`` has a NumPy path and a stable-sort
Python twin (selected by ``REPRO_NO_VECTOR``).  Both take float64 time and
int64 size arrays and must return float64 and int64 arrays ``==``-equal
to a ``(time, part, index)`` sort for any input, with the part index as an
int array; the opt-out and the selection counters are checked here too.
The idle-mark kernel is checked against the hop recursion in
``tests/test_hopfold.py``.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import kernels
from repro.netsim.fastpath import NO_VECTOR_ENV


@pytest.fixture(autouse=True)
def _fresh_kernels(monkeypatch):
    monkeypatch.delenv(NO_VECTOR_ENV, raising=False)
    kernels._reset_for_tests()
    yield
    kernels._reset_for_tests()


#: Arrival times: a small pool of values (exact ties within and across
#: parts, the smallest subnormal, adjacent doubles) mixed with arbitrary
#: finite non-negative floats.
_TIMES = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.1, 0.25, 1.0, 1.0 + 2.0**-52, 1e300]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def _parts(draw):
    """1-12 time-sorted parts (possibly empty) with matching size lists."""
    parts_t, parts_s = [], []
    for _ in range(draw(st.integers(1, 12))):
        ts = sorted(draw(st.lists(_TIMES, max_size=20)))
        parts_t.append(ts)
        parts_s.append(
            draw(st.lists(st.integers(40, 1500), min_size=len(ts), max_size=len(ts)))
        )
    return parts_t, parts_s


def _arrays(parts_t, parts_s):
    """The parts as the feeds hold them: float64 times, int64 sizes."""
    return (
        [np.array(ts, dtype=np.float64) for ts in parts_t],
        [np.array(ss, dtype=np.int64) for ss in parts_s],
    )


class TestMergeParts:
    # The autouse fixture only resets counters; every example sets the
    # environment it needs itself.
    @given(_parts())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_heap_order_with_ties(self, parts):
        parts_t, parts_s = parts
        # Reference: stable sort of (time, part, index), like a k-way heap.
        entries = [
            (t, k, j) for k, ts in enumerate(parts_t) for j, t in enumerate(ts)
        ]
        entries.sort(key=lambda e: e[0])
        want = (
            [e[0] for e in entries],
            [parts_s[k][j] for _t, k, j in entries],
            [k for _t, k, _j in entries],
        )
        for env in ({}, {NO_VECTOR_ENV: "1"}):
            with mock.patch.dict(os.environ, env):
                mt, ms, pidx = kernels.merge_parts(*_arrays(parts_t, parts_s))
            if pidx is None:  # single part: its own order
                assert len(parts_t) == 1
                pidx = np.zeros(len(mt), dtype=np.intp)
            # The aggregator turns the arrays into the lists the folds
            # read, and computes the idle marks from the same arrays.
            assert (mt.dtype, ms.dtype, pidx.dtype.kind) == (
                np.float64, np.int64, "i"
            ), env
            assert (mt.tolist(), ms.tolist(), pidx.tolist()) == want, env

    def test_single_part_in_its_own_order(self):
        for env in ({}, {NO_VECTOR_ENV: "1"}):
            with mock.patch.dict(os.environ, env):
                mt, ms, pidx = kernels.merge_parts(
                    *_arrays([[1.0, 2.0]], [[100, 200]])
                )
            assert (mt.tolist(), ms.tolist(), pidx) == ([1.0, 2.0], [100, 200], None), env
            assert (mt.dtype, ms.dtype) == (np.float64, np.int64), env


class TestDegradation:
    def test_no_vector_env_disables(self, monkeypatch):
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        assert not kernels.enabled()
        mt, ms, pidx = kernels.merge_parts(*_arrays([[1.0], [0.5]], [[100], [200]]))
        assert (mt.tolist(), ms.tolist(), pidx.tolist()) == ([0.5, 1.0], [200, 100], [1, 0])
        assert not kernels.enabled()
        assert kernels.kernel_fallbacks.get("disabled") == 1  # noted once
        assert kernels.kernel_calls == {}

    def test_counters_and_publish(self):
        from repro.obs.metrics import MetricsRegistry

        kernels.merge_parts(*_arrays([[0.0, 2.0], [1.0]], [[40, 40], [1500]]))
        assert kernels.kernel_calls.get("merge") == 1
        m = MetricsRegistry()
        kernels.publish(m)
        assert ("repro_kernel_calls_total", (("kernel", "merge"),)) in m._metrics

    def test_tracer_publishes_kernel_counters(self):
        from repro.netsim.engine import Simulator
        from repro.obs import Tracer

        kernels.merge_parts(*_arrays([[1.0]], [[40]]))
        tracer = Tracer()
        tracer.attach(Simulator())
        m = tracer.collect_metrics()
        assert any(k[0] == "repro_kernel_calls_total" for k in m._metrics)
