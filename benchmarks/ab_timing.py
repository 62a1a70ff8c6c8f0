"""Interleaved A/B wall-clock timing for the overhead experiments.

E16 (monitoring) and E17 (telemetry) each compare a bare path with the
same path carrying an overhead. Benchmark fixtures cannot compare
across tests, so both time the two sides here. The sides alternate
repeat by repeat, each going first in turn, and the factor is the
median of the per-repeat ratios, so a slow stretch of the machine hits
both sides of a ratio alike and an outlying pair does not move it. The
cyclic collector is held off while a repeat runs, so a collection of
the benchmark's leftovers lands in neither side.
"""

import gc
import statistics
import time
from typing import Callable, Dict, List, Tuple


def interleaved_ab(prepare: Callable[[bool], Callable[[], None]],
                   repeats: int) -> Tuple[float, float, float]:
    """Time ``repeats`` runs of each side, interleaved.

    ``prepare(side)`` builds a fresh subject, ``False`` for the bare
    side and ``True`` for the one with the overhead, and returns the
    callable to time. Returns the best bare repeat, the best repeat with
    the overhead (both in seconds) and the median per-repeat ratio of
    the second side to the first.
    """
    def timed(side: bool) -> float:
        run = prepare(side)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            return time.perf_counter() - start
        finally:
            gc.enable()

    times: Dict[bool, List[float]] = {False: [], True: []}
    for repeat in range(repeats):
        for side in ((True, False) if repeat % 2 else (False, True)):
            times[side].append(timed(side))
    factor = statistics.median(
        with_overhead / bare
        for with_overhead, bare in zip(times[True], times[False]))
    return min(times[False]), min(times[True]), factor
