"""Host-speed reference for the benchmark's time metrics.

A shared host can change speed by 2x for minutes at a time, far longer
than one run, so no run length averages it out and two batches of runs
of the same code can disagree by more than any useful bound.  Each run
therefore also times a fixed block of pure-Python work, :func:`block`,
after each of its tasks, in the same process and on the same CPU, and
scales every host time by ``NOMINAL_BLOCK_S`` over the median time of the
blocks timed nearest to it (:func:`scales`; :func:`scale` for a set-up,
timed between blocks).  A scaled time reads as seconds on a host that runs
the block in ``NOMINAL_BLOCK_S`` seconds (the 2-core Xeon container the
benchmark was sized on, at its fast moments).

The block is interpreter work, dict stores and lookups with float
arithmetic, which is what the simulator spends most of its time on and
which tracked the host's slow spells best of the references tried (NumPy
and memory-walk blocks tracked them worse).  It allocates no container
objects, so neither the garbage collector nor the size of the program's
heap changes its time, and it does not call the program: a change to the
program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

__all__ = ["NOMINAL_BLOCK_S", "block", "scale", "scales"]

#: Iterations of one block: about 7.5 ms on the reference host.
BLOCK_ITERATIONS = 40_000

#: Host seconds of one block on the reference host.
NOMINAL_BLOCK_S = 0.0075

#: Blocks on each side of a task that :func:`scales` takes the median of:
#: enough to outvote one block caught in a momentary stall, few enough to
#: follow a slow spell that starts or ends within a run.
WINDOW = 5


def _work(n: int) -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(n):
        table[i & 1023] = i * 1.5
        total += table.get((i * 7) & 1023, 0.0)
    return total


def block() -> float:
    """Host seconds of one reference block."""
    t0 = time.perf_counter()
    _work(BLOCK_ITERATIONS)
    return time.perf_counter() - t0


def scale(blocks: list[float]) -> float:
    """Factor that turns host seconds measured alongside ``blocks`` into
    seconds on the reference host."""
    import statistics  # not at the top: the set-up clock starts after this module loads

    return NOMINAL_BLOCK_S / statistics.median(blocks)


def scales(blocks: list[float]) -> list[float]:
    """One factor per block, for the task timed just before it: the
    :func:`scale` of the ``WINDOW`` blocks on each side and itself."""
    return [scale(blocks[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(blocks))]
