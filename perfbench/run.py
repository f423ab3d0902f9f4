"""Benchmark entry point: one workload, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload fig3_packet --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's trace unit untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the inputs and exit (what setup_s "
                        "times, in a fresh interpreter)")
    return p.parse_args(argv)


def import_workloads():
    """Import the package from the checkout's ``src`` (no install)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the repro package from "
                 f"{os.path.join(ROOT, 'src')}: {exc}")
    return workloads


# -- machine state ---------------------------------------------------------

def engine_events_per_s(target: int = 200_000, repeats: int = 3) -> float:
    """Bare event-loop throughput, best of ``repeats`` -- the loop of
    ``bench_engine_events`` in ``benchmarks/bench_fluid.py``, used to
    normalise results across machines."""
    from repro.sim.engine import Simulator

    best = 0.0
    for _ in range(repeats):
        sim = Simulator()
        stop = target // 10

        def chain(sim=sim, stop=stop):
            if sim.events_processed < stop:
                sim.call_later(1e-5, chain)

        for _ in range(10):
            sim.call_later(0.0, chain)
        t0 = time.perf_counter()
        sim.run()
        best = max(best, sim.events_processed / (time.perf_counter() - t0))
    return best


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def setup_probe_s(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and builds the
    workload's inputs, then exits.

    No timeout: ``subprocess`` waits for a child with a timeout by
    polling every 50 ms, which would quantise the measurement.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(seed),
                    "--setup-only"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def load_pin(workload: str, seed: int):
    with open(PINS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


# -- the two kinds of run ----------------------------------------------------

def untraced(wl, args, workloads) -> tuple[dict, list[str], int, int]:
    results, peaks = [], []
    start = time.perf_counter()
    # Repeat the unit while another repetition is expected to fit.
    while True:
        workloads.reset_peak_rss()
        result = wl.unit()
        results.append(result)
        peaks.append(workloads.peak_rss_mib() if result.peak_mib is None
                     else result.peak_mib)
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > args.seconds:
            break
    problems = wl.check(results, load_pin(wl.name, args.seed))
    setup_s = statistics.median(setup_probe_s(wl.name, args.seed)
                                for _ in range(SETUP_PROBES))
    rates = [r.work / r.busy_s for r in results]
    print(f"{wl.name}: {len(results)} repetition(s) of {wl.work_unit}s; "
          f"{wl.rate_name} (= work_per_s) per repetition: "
          f"{', '.join(f'{x:.4g}' for x in rates)} {wl.rate_unit}")
    metrics = {
        "work_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (max(peaks), "MiB"),
    }
    return (metrics, problems, sum(r.attempted for r in results),
            sum(r.failed for r in results))


def traced(wl, args, workloads) -> tuple[dict, list[str], int, int]:
    import cProfile

    import repro
    import spans

    start = time.perf_counter()
    plain = wl.trace_unit()
    plain_s = time.perf_counter() - start

    tracer = spans.Tracer(run_id=f"{wl.name}-{args.seed}-{os.getpid()}")
    workloads.instrument(tracer)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        result = wl.trace_unit()
    finally:
        profile.disable()
        tracer.restore()
    traced_s = time.perf_counter() - start
    tracer.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.json"))

    problems = []
    if result.output != plain.output:
        problems.append("the traced run's output differs from the "
                        "untraced run's")
    pin = load_pin(wl.trace_pin_key, args.seed)
    if pin is not None and plain.output != pin:
        problems.append(f"trace unit output {plain.output} differs from "
                        f"pinned {pin}")
    groups = spans.profile_groups(
        profile, os.path.dirname(os.path.abspath(repro.__file__)) + os.sep)
    metrics = layer_metrics(tracer, groups)
    metrics["obs.trace_overhead"] = (traced_s / plain_s, "ratio")
    metrics.update(wl.pool_metrics(plain_s))
    return (metrics, problems, plain.attempted + result.attempted,
            plain.failed + result.failed)


def layer_metrics(tracer, groups) -> dict:
    """Every per-layer metric from the spans and the profile.

    Times are host seconds inside the traced run (inflated by the
    profiler; compare them as shares).  Counts are exact.
    """
    from spans import calls, self_frac

    def per(num, den):
        return num / den if den else 0.0

    def frac(name):
        return self_frac(groups, name), "frac"
    events = tracer.data_sum("sim.run", "events")
    ticks = tracer.data_sum("fluid.model.run", "ticks")
    sim_s = tracer.total_s("sim.run")
    fluid_s = tracer.total_s("fluid.model.run")
    series = tracer.count("analysis.changepoint.level_shift")
    rendered = tracer.data_sum("ndt.synth.generate", "records")
    hits = tracer.data_sum("store.get", "hit")
    m = {
        "sim.run_s": (sim_s, "host-s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (per(events, sim_s), "1/s"),
        "sim.self_frac": frac("sim"),
        "sim.calls_per_event": (
            per(calls(groups, "sim"), events), "calls/event"),
    }
    for layer in ("tcp", "cca", "qdisc"):
        m[f"{layer}.self_frac"] = frac(layer)
        m[f"{layer}.calls_per_event"] = (
            per(calls(groups, layer), events), "calls/event")
    m["traffic.self_frac"] = frac("traffic")
    m.update({
        "scenario.build_s": (tracer.total_s("scenario.build"), "host-s"),
        "core.probe.report_s": (tracer.total_s("core.probe.report"),
                                "host-s"),
        "core.detector.verdict_s": (tracer.total_s("core.detector.verdict"),
                                    "host-s"),
        "core.elasticity.windows": (
            tracer.data_sum("core.detector.verdict", "windows"), "count"),
        "fluid.model.run_s": (fluid_s, "host-s"),
        "fluid.ticks": (ticks, "count"),
        "fluid.ticks_per_s": (per(ticks, fluid_s), "1/s"),
    })
    for module in ("flows", "queue", "probe", "model"):
        m[f"fluid.{module}.self_frac"] = frac(f"fluid.{module}")
    m.update({
        "numpy.self_frac": frac("numpy"),
        "numpy.calls_per_tick": (
            per(calls(groups, "numpy"), ticks), "calls/tick"),
        "qa.search.evaluate_s": (tracer.total_s("qa.search.evaluate"),
                                 "host-s"),
        "qa.self_frac": frac("qa"),
        "ndt.synth.generate_s": (tracer.total_s("ndt.synth.generate"),
                                 "host-s"),
        "ndt.synth.self_frac": frac("ndt.synth"),
        "ndt.synth.useful_ratio": (per(series, rendered), "ratio"),
        "ndt.filters.categorize_s": (
            tracer.total_s("ndt.filters.categorize"), "host-s"),
        "ndt.pipeline.merge_s": (tracer.total_s("ndt.pipeline.merge"),
                                 "host-s"),
        "analysis.changepoint.pelt_s": (
            tracer.total_s("analysis.changepoint.level_shift"), "host-s"),
        "analysis.changepoint.series": (series, "count"),
        "store.get_s": (tracer.total_s("store.get"), "host-s"),
        "store.put_s": (tracer.total_s("store.put"), "host-s"),
        "store.bytes_written": (tracer.data_sum("store.put", "bytes"),
                                "bytes"),
        "store.index_bytes": (tracer.data_sum("store.get", "index_bytes")
                              + tracer.data_sum("store.put", "index_bytes"),
                              "bytes"),
        "store.hits": (hits, "count"),
        "store.misses": (tracer.count("store.get") - hits, "count"),
        "store.puts": (tracer.count("store.put"), "count"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    # Keep every store the package might open inside the checkout.
    os.environ["REPRO_STORE"] = os.path.join(OUT_DIR, "store")
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        wl.setup()
        if args.setup_only:
            return 0
        import numpy
        meta = {"workload": wl.name, "seed": args.seed,
                "trace": args.trace, "nproc": os.cpu_count(),
                "loadavg_before": os.getloadavg(),
                "engine_events_per_s": engine_events_per_s(),
                "python": platform.python_version(),
                "numpy": numpy.__version__, "commit": git_commit()}
        if args.trace:
            metrics, problems, attempted, failed = traced(wl, args,
                                                          workloads)
        else:
            metrics, problems, attempted, failed = untraced(wl, args,
                                                            workloads)
        meta["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
