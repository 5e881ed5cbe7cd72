#!/usr/bin/env python3
"""Benchmark one gflownf workload in this process and print its metrics.

    python3 perfbench/run.py --workload grid-flow --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree: it imports ``gflownf`` from ``src/``.
The inputs come from the seed; one caller runs one item at a time (a closed
loop) in whole rounds, stopping at the round boundary nearest ``--seconds``; every
item's output is checked. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference machine speed (see speed.py); the unscaled
figures are in the detail line. With ``--trace 0`` the metrics are the
end-to-end ones. With ``--trace 1`` the
run is split into an untraced and a traced part, and the metrics are the
per-layer ones from the spans of the traced part (see spans.py) plus
``trace.overhead_ratio``, the traced over the untraced items per second.
The line before the result holds details: sample counts, the failure ratio,
the known defects hit, the set-up times and the environment.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
# One caller, one item at a time: keep numpy's BLAS to one thread (<= nproc).
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_REPEATS = 5
# Enough items that at least ten latencies lie beyond the 90th percentile.
MIN_ITEMS = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_phase(wl, speed, seconds, tracer=None, parts=None, by_key=None, min_items=0):
    """Run whole rounds of ``wl`` for about ``seconds`` and at least
    ``min_items`` items, or one round per part.

    Returns the wall seconds, the scaled and the unscaled per-item latencies,
    the item statuses and (items, wall, CPU, speed factor) per round, with the
    kernel's time left out; ``by_key`` collects scaled latencies per
    ``item["cmd"]``.
    """
    lat, raw = array("d"), array("d")
    statuses = Counter()
    errors = []
    rounds = []
    speed.sample()
    t0 = perf_counter()
    for part in parts or iter(lambda: None, 0):
        n0, r0, cpu0, spent0 = len(lat), perf_counter(), cpu_seconds(wl.cpu_who), speed.spent
        k0 = len(speed.samples)
        for item in wl.round(part):
            if tracer:
                tracer.item = len(lat)
            start = perf_counter()
            try:
                out, raised = wl.work(item), None
            except Exception as exc:  # noqa: BLE001 - an item that raises has failed
                raised = exc
            dur = perf_counter() - start
            lat.append(dur / speed.factor())
            raw.append(dur)
            if tracer:
                tracer.active = False
            if raised is None:
                statuses[wl.check(item, out)] += 1
            else:
                statuses[wl.fail(f"{type(raised).__name__}: {raised}")] += 1
            if tracer:
                tracer.active = True
            if by_key is not None:
                by_key[item["cmd"]].append(lat[-1])
            speed.sample_if_due()
        errors += wl.round_errors(part)
        spent = speed.spent - spent0
        cpu = cpu_seconds(wl.cpu_who) - cpu0
        if wl.cpu_who == resource.RUSAGE_SELF:
            cpu -= spent  # the kernel ran in this process
        rounds.append((len(lat) - n0, perf_counter() - r0 - spent, cpu, speed.mean_factor(k0)))
        elapsed = perf_counter() - t0
        # Stop at the round boundary nearest to ``seconds``.
        if parts is None and len(lat) >= min_items and (
            len(rounds) == wl.max_rounds or elapsed + elapsed / len(rounds) / 2 > seconds
        ):
            break
    return {
        "wall": perf_counter() - t0, "lat": lat, "raw": raw, "statuses": statuses,
        "errors": errors, "rounds": rounds,
    }


def cpu_seconds(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def rate(phase, scaled=True):
    """Items per second, the median over rounds."""
    return statistics.median(
        n / wall * (f if scaled else 1) for n, wall, _, f in phase["rounds"]
    )


def cpu_per_item(phase, scaled=True):
    """CPU seconds per item, the median over rounds."""
    return statistics.median(
        cpu / n / (f if scaled else 1) for n, _, cpu, f in phase["rounds"]
    )


def end_to_end(phase, setup_s):
    n = len(phase["lat"])
    deciles = statistics.quantiles(phase["lat"], n=10)
    # The benchmark's own process on every workload: a CLI child's ru_maxrss
    # would include this process's pages, which it shares until exec.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (rate(phase), "1/s"),
        "item_p50_ms": (1e3 * deciles[4], "ms"),
        "item_p90_ms": (1e3 * deciles[8], "ms"),
        "cpu_ms_per_item": (1e3 * cpu_per_item(phase), "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "pass_ratio": (phase["statuses"]["ok"] / n, "ratio"),
    }


def unscaled(phase, setup_s):
    deciles = statistics.quantiles(phase["raw"], n=10)
    return {
        "setup_s": setup_s,
        "items_per_s": rate(phase, scaled=False),
        "item_p50_ms": 1e3 * deciles[4],
        "item_p90_ms": 1e3 * deciles[8],
        "cpu_ms_per_item": 1e3 * cpu_per_item(phase, scaled=False),
    }


def interpreter_probe(env):
    """Median wall ms of a bare interpreter and of one importing gflownf.cli."""

    def median_ms(code):
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append(1e3 * (perf_counter() - start))
        return statistics.median(times)

    bare = median_ms("pass")
    return bare, median_ms("import gflownf.cli") - bare


def trace_run(wl, speed, seconds, workloads_module):
    """Untraced then traced part; returns the per-layer metrics and the phases."""
    from spans import Tracer

    cli_metrics = {}
    phases = []
    if wl.name == "cli-mix":
        interp, imp = interpreter_probe(wl.env)
        cli_metrics["cli.interpreter_ms"] = (interp, "ms")
        cli_metrics["cli.import_ms"] = (imp, "ms")
        process = defaultdict(list)
        phases.append(run_phase(wl, speed, seconds / 3, by_key=process))
        wl.in_process = True
        main = defaultdict(list)
        plain = run_phase(wl, speed, seconds / 3, by_key=main)
        with Tracer([workloads_module]) as tracer:
            traced = run_phase(wl, speed, seconds / 3, tracer=tracer)
        for cmd in wl.COMMANDS:
            cli_metrics[f"cli.{cmd}.process_ms"] = (1e3 * statistics.median(process[cmd]), "ms")
            cli_metrics[f"cli.{cmd}.main_ms"] = (1e3 * statistics.median(main[cmd]), "ms")
    elif wl.name == "census":
        # One census round outlasts the run, so each part covers half of it.
        plain = run_phase(wl, speed, seconds / 2, parts=[(0, 2)])
        with Tracer([workloads_module]) as tracer:
            traced = run_phase(wl, speed, seconds / 2, tracer=tracer, parts=[(1, 2)])
    else:
        plain = run_phase(wl, speed, seconds / 2)
        with Tracer([workloads_module]) as tracer:
            traced = run_phase(wl, speed, seconds / 2, tracer=tracer)
    metrics = tracer.metrics()
    # The cli layer is only run by cli-mix; elsewhere it reads zero.
    for name in ("cli.interpreter_ms", "cli.import_ms"):
        metrics[name] = cli_metrics.get(name, (0.0, "ms"))
    for cmd in workloads_module.CliMix.COMMANDS:
        for kind in ("process_ms", "main_ms"):
            name = f"cli.{cmd}.{kind}"
            metrics[name] = cli_metrics.get(name, (0.0, "ms"))
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}-{wl.seed}.tsv"))
    return metrics, phases + [plain, traced]


def environment():
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    sha = read(os.path.join(ROOT, ".git", "HEAD"))  # None outside a git checkout
    if sha and sha.startswith("ref: "):
        ref = sha[5:]
        packed = (read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines()
        sha = read(os.path.join(ROOT, ".git", ref)) or next(
            (line.split()[0] for line in packed if line.endswith(" " + ref)), None
        )
    import numpy

    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "llc": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gflownf", "__init__.py")):
        print(f"error: no gflownf sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import gflownf
    import workloads
    from speed import Speed

    if not os.path.abspath(gflownf.__file__).startswith(SRC + os.sep):
        print(f"error: gflownf imported from {gflownf.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START

    speed = Speed()
    speed.sample(3)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
        wl.setup()
        setups.append(perf_counter() - start)
    speed.sample(3)
    raw_setup_s = import_s + statistics.median(setups)
    setup_s = raw_setup_s / speed.factor()
    setup_errors = list(wl.errors)
    wl.errors.clear()

    try:
        if args.trace:
            metrics, phases = trace_run(wl, speed, args.seconds, workloads)
        else:
            phases = [run_phase(wl, speed, args.seconds, min_items=MIN_ITEMS)]
            metrics = end_to_end(phases[0], setup_s)
    finally:
        wl.close()

    statuses = sum((p["statuses"] for p in phases), Counter())
    errors = setup_errors + wl.errors + [e for p in phases for e in p["errors"]]
    attempted = sum(statuses.values())
    failed = attempted - statuses[workloads.OK]
    correct = statuses[workloads.FAIL] == 0 and not errors
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": [len(p["lat"]) for p in phases],
        "rounds": [len(p["rounds"]) for p in phases],
        "wall_s": [p["wall"] for p in phases],
        "fail_ratio": failed / attempted,
        "known_defect_failures": statuses[workloads.KNOWN],
        "known_defects": workloads.KNOWN_DEFECTS if statuses[workloads.KNOWN] else {},
        "errors": errors,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "speed_factor": statistics.median(f for p in phases for *_, f in p["rounds"]),
        "unscaled": None if args.trace else unscaled(phases[0], raw_setup_s),
        "env": environment(),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
