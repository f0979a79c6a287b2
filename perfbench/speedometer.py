"""Host-speed sampler that runs beside the benchmark jobs on one CPU.

Usage: python3 perfbench/speedometer.py <cpu> <period_s>

On a shared host the speed of a CPU swings by up to about 1.5x within
seconds, as other tenants load the sibling hyperthread.  Pinned to the same
CPU as the jobs, this process wakes every ``period_s`` seconds and runs a
fixed burst of work, timed in its own CPU seconds (so being preempted does
not count).  The burst mixes a plain interpreter loop with one networkx
blossom matching of a fixed graph, because blossom-heavy jobs slow down more
under contention than a plain loop does.  The burst never calls toricleak,
so changes to the program cannot move it.  The sampler stops when its stdin
closes and prints its samples, ``[[monotonic_start, burst_cpu_seconds], ...]``,
as JSON.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

BURST_ITERATIONS = 10_000


def _matching_graph():
    """A fixed 12-node complete graph with small integer weights."""
    import networkx as nx

    graph = nx.Graph()
    for i in range(12):
        for j in range(i + 1, 12):
            graph.add_edge(i, j, weight=-((i * 7 + j * 13) % 9 + 1))
    return nx, graph


NX, GRAPH = _matching_graph()


def burst() -> float:
    start = time.process_time()
    acc, table = 0, {}
    for i in range(BURST_ITERATIONS):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
    NX.max_weight_matching(GRAPH, maxcardinality=True)
    return time.process_time() - start


def main() -> None:
    cpu, period = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    stdin = sys.stdin.fileno()
    samples = []
    while True:
        samples.append([time.monotonic(), burst()])
        ready, _, _ = select.select([stdin], [], [], period)
        if ready and not os.read(stdin, 4096):
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
