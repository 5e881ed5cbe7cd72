#!/usr/bin/env python3
"""Re-measure ROADMAP item 1's hand baselines; prints one JSON line per probe.

    python3 perfbench/baselines.py

- find_gflow on XY grid clusters (inputs left, outputs right) of 40-640 vertices;
- run_all_branches on XY paths with k = 7 and k = 9 measured qubits;
- peak RSS of prepare on a 20-qubit path with one input, in a fresh process.
Timings are the median of five calls (one for the 640-vertex grid).
"""

import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PREPARE_PROBE = """
import resource, sys
from gflownf import Graph, basis_state, prepare
n = int(sys.argv[1])
graph = Graph(frozenset(range(n)), frozenset((i, i + 1) for i in range(n - 1)))
prepare(graph, {0}, basis_state((0,), 0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(1e3 * (perf_counter() - start))
    return statistics.median(times)


def main():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from gflownf import (
        basis_state, find_gflow, parse_open_graph, pattern_from_gflow, run_all_branches,
    )
    from workloads import grid_document

    rng = random.Random(0)
    for w, h in ((10, 4), (20, 4), (10, 8), (40, 4), (20, 8), (80, 4), (40, 8), (80, 8)):
        eog = parse_open_graph(grid_document(rng, w, h)[0])
        ms = median_ms(lambda: find_gflow(eog), 1 if w * h > 320 else 5)
        print(json.dumps({"probe": "find_gflow", "grid": f"{w}x{h}", "vertices": w * h, "ms": ms}))
    for k in (7, 9):
        n = k + 1
        eog = parse_open_graph(json.dumps({
            "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
            "inputs": [0], "outputs": [n - 1], "planes": {str(i): "XY" for i in range(k)},
        }))
        pattern = pattern_from_gflow(eog, {u: 0.3 + 0.1 * u for u in range(k)}, find_gflow(eog))
        ms = median_ms(lambda: run_all_branches(pattern, basis_state((0,), 0)), 5)
        print(json.dumps({"probe": "run_all_branches", "path_k": k, "ms": ms}))
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PREPARE_PROBE, "20"], env=env,
                         capture_output=True, text=True, check=True).stdout
    print(json.dumps({"probe": "prepare", "qubits": 20, "peak_rss_mib": float(out)}))


if __name__ == "__main__":
    main()
