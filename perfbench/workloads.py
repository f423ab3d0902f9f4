"""The benchmark's workloads.

Each workload builds its inputs from a seed (:meth:`setup`), runs one
fixed unit of work (:meth:`unit`), checks what that unit produced
(:meth:`check`) and runs a smaller or equal unit for the traced run
(:meth:`trace_unit`).  A unit returns a :class:`UnitResult`: work done
in the workload's own unit (a simulated second, an evaluated scenario,
an analysed flow), the host seconds that work took, the operations it
attempted and failed, and an ``output`` the checks compare.

Output digests are SHA-256 of canonical JSON computed here, not the
package's own fingerprints, so they do not move when the package's
``CODE_VERSION`` salt is bumped.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass

import repro.qa.scenario as qa_scenario
import repro.qa.search as qa_search
from repro.core.detector import ContentionDetector
from repro.core.probe import ElasticityProbe
from repro.experiments.fig3 import LINK_RATE_MBPS, LINK_RTT_MS
from repro.fluid import runner as fluid_runner
from repro.fluid.model import FluidModel
from repro.ndt import pipeline as ndt_pipeline
from repro.ndt.pipeline import Fig2Result
from repro.ndt.stream import run_pipeline_streaming, shard_specs
from repro.ndt.synth import SyntheticNdtGenerator
from repro.qa.scenario import Scenario
from repro.runtime.pool import ParallelExecutor
from repro.sim.engine import Simulator
from repro.store.artifacts import ArtifactStore

FIG3_CROSS = ("reno", "bbr", "video", "poisson", "cbr")
FIG3_DURATION = 20.0         # simulated seconds per cell (the paper's)
FIG3_TRACE_DURATION = 10.0   # shorter cells under the profiler

# Many short searches rather than one long one: a search's scenarios
# are mutations of each other, so one search's cost follows its seed.
SEARCH_RUNS = 16             # independent searches per unit
SEARCH_BUDGET = 16           # scenarios per search

NDT_FLOWS = 4000
NDT_CHUNK = 250


def digest(obj) -> str:
    """SHA-256 of ``obj`` as canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def rss_mib(field: str = "VmRSS") -> float:
    """A memory figure of this process from ``/proc/self/status``."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    return 0.0


def peak_rss_mib() -> float:
    """Peak RSS since :func:`reset_peak_rss`, plus the largest child's."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return rss_mib("VmHWM") + child


@dataclass
class UnitResult:
    work: float          # in the workload's work unit
    busy_s: float        # host seconds the work took
    attempted: int
    failed: int
    output: object
    peak_mib: float | None = None   # set when only part of the unit is timed


class Workload:
    name = ""
    work_unit = ""
    rate_name = ""    # what ``work_per_s`` is called for this workload
    rate_unit = ""

    @property
    def trace_pin_key(self) -> str:
        """The ``pins.json`` entry the trace unit's output is held to."""
        return self.name

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Build the inputs (timed as part of ``setup_s``)."""

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def trace_unit(self) -> UnitResult:
        return self.unit()

    def check(self, results: list[UnitResult], pin) -> list[str]:
        """Problems with the outputs (empty when they are right)."""
        raise NotImplementedError

    def pool_metrics(self, serial_s: float) -> dict:
        """Parent-side pool figures, ``{name: (value, unit)}``; zero for
        a workload without a pool.  ``serial_s`` is the untraced wall
        time of the trace unit."""
        return {"runtime.pool.busy_frac": (0.0, "frac"),
                "runtime.pool.wait_s": (0.0, "host-s"),
                "runtime.pool.pickled_bytes": (0, "bytes")}


def _repeats_agree(results: list[UnitResult]) -> list[str]:
    first = results[0].output
    return [f"repetition {i} differs from repetition 0"
            for i, r in enumerate(results[1:], 1) if r.output != first]


class Fig3Packet(Workload):
    """The five Fig. 3 cross-traffic types against the probe, packet
    backend, run serially."""

    name = "fig3_packet"
    work_unit = "simulated second"
    rate_name, rate_unit = "packet_sim_s_per_s", "sim-s/s"
    trace_pin_key = "fig3_packet.trace"

    def _cells(self, duration: float) -> list[Scenario]:
        return [Scenario(family="probe", backend="packet",
                         rate_mbps=LINK_RATE_MBPS, rtt_ms=LINK_RTT_MS,
                         qdisc="droptail", duration=duration,
                         seed=self.seed, cross_traffic=cross)
                for cross in FIG3_CROSS]

    def setup(self) -> None:
        self.cells = self._cells(FIG3_DURATION)
        self.trace_cells = self._cells(FIG3_TRACE_DURATION)

    @staticmethod
    def _run_cell(scenario: Scenario) -> dict:
        outcome = qa_scenario.run_scenario(scenario, check_invariants=False)
        return {"cross": scenario.cross_traffic,
                "contending": outcome.probe["contending"],
                "category": outcome.probe["category"],
                "summary": digest(outcome.summary())}

    def _run(self, cells: list[Scenario]) -> UnitResult:
        out, failed = [], 0
        start = time.perf_counter()
        for scenario in cells:
            try:
                out.append(self._run_cell(scenario))
            except Exception as exc:  # counted, and fails the run
                failed += 1
                out.append({"cross": scenario.cross_traffic,
                            "error": repr(exc)})
        busy = time.perf_counter() - start
        return UnitResult(work=sum(c.duration for c in cells), busy_s=busy,
                          attempted=len(cells), failed=failed, output=out)

    def unit(self) -> UnitResult:
        return self._run(self.cells)

    def trace_unit(self) -> UnitResult:
        return self._run(self.trace_cells)

    def check(self, results, pin) -> list[str]:
        problems = _repeats_agree(results)
        cells = results[0].output
        if pin is not None and cells != pin:
            problems.append(f"cells {cells} differ from pinned {pin}")
        elif len(results) == 1:
            # No pin for this seed: re-run one cell and require the same
            # outcome digest (the run is a pure function of its scenario).
            again = self._run_cell(self.cells[-1])
            if again != cells[-1]:
                problems.append(f"cell {again['cross']} is not "
                                "deterministic")
        return problems


class SearchFluid(Workload):
    """Coverage-guided search on the fluid backend, serial."""

    name = "search_fluid"
    work_unit = "evaluated scenario"
    rate_name, rate_unit = "fluid_scenarios_per_s", "1/s"

    def setup(self) -> None:
        self.search_seeds = [self.seed * SEARCH_RUNS + k
                             for k in range(SEARCH_RUNS)]
        self.executor = ParallelExecutor(workers=1)

    def evaluate(self, batch):
        """``run_search``'s evaluator seam, doing what its default does
        at one worker, but timed: packet replays of fluid failures run
        outside it and stay out of the rate and the peak RSS: the
        peak is the RSS at the first call plus the largest rise within
        any call."""
        base = rss_mib()
        reset_peak_rss()
        start = time.perf_counter()
        results = self.executor.map(qa_search._run_search_scenario, batch)
        self._evaluate_s += time.perf_counter() - start
        # Replays can leave the heap larger between calls; count only
        # the rise each call makes above where it started.
        if self._base_mib is None:
            self._base_mib = base
        self._rise_mib = max(self._rise_mib, rss_mib("VmHWM") - base)
        return results

    def _run(self, search_seeds: list[int]) -> UnitResult:
        self._evaluate_s, self._base_mib, self._rise_mib = 0.0, None, 0.0
        out, evaluated, failed = [], 0, 0
        for search_seed in search_seeds:
            try:
                report = qa_search.run_search(
                    SEARCH_BUDGET, seed=search_seed, workers=1,
                    evaluate=lambda batch: self.evaluate(batch))
            except Exception as exc:  # counted, and fails the run
                failed += SEARCH_BUDGET
                out.append(repr(exc))
                continue
            evaluated += report.evaluated
            out.append(digest(report.to_dict()))
        return UnitResult(work=evaluated, busy_s=self._evaluate_s,
                          attempted=SEARCH_BUDGET * len(search_seeds),
                          failed=failed, output=out,
                          peak_mib=(self._base_mib or 0.0) + self._rise_mib)

    def unit(self) -> UnitResult:
        return self._run(self.search_seeds)

    def check(self, results, pin) -> list[str]:
        problems = _repeats_agree(results)
        if pin is not None and results[0].output != pin:
            problems.append(f"search digests {results[0].output} differ "
                            f"from pinned {pin}")
        elif pin is None and len(results) == 1:
            # No pin for this seed: the first search must repeat exactly.
            again = self._run(self.search_seeds[:1]).output
            if again != results[0].output[:1]:
                problems.append("search is not deterministic")
        return problems


class NdtStream(Workload):
    """The streamed §3.1 pipeline, fanned out to a pool, cold store."""

    name = "ndt_stream"
    work_unit = "analysed flow"
    rate_name, rate_unit = "ndt_flows_per_s", "1/s"

    def setup(self) -> None:
        self.workers = min(2, os.cpu_count() or 1)
        self.specs = shard_specs(NDT_FLOWS, seed=self.seed,
                                 chunk_size=NDT_CHUNK)

    @contextlib.contextmanager
    def _fresh_store(self):
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            yield ArtifactStore(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _run(self, workers: int, store) -> UnitResult:
        start = time.perf_counter()
        try:
            result = run_pipeline_streaming(
                NDT_FLOWS, seed=self.seed, chunk_size=NDT_CHUNK,
                workers=workers, store=store)
            output, failed = result.aggregate_fingerprint(), 0
        except Exception as exc:  # counted, and fails the run
            output, failed = repr(exc), len(self.specs)
        busy = time.perf_counter() - start
        return UnitResult(work=NDT_FLOWS, busy_s=busy,
                          attempted=len(self.specs), failed=failed,
                          output=output)

    def unit(self) -> UnitResult:
        with self._fresh_store() as store:
            return self._run(self.workers, store)

    def trace_unit(self) -> UnitResult:
        with self._fresh_store() as store:
            return self._run(1, store)

    def check(self, results, pin) -> list[str]:
        problems = []
        reference = run_pipeline_streaming(
            NDT_FLOWS, seed=self.seed, chunk_size=NDT_CHUNK, workers=1,
            store=None).aggregate_fingerprint()
        for i, r in enumerate(results):
            if r.output != reference:
                problems.append(f"repetition {i}: aggregate {r.output} != "
                                f"serial storeless {reference}")
        if pin is not None and reference != pin:
            problems.append(f"aggregate {reference} != pinned {pin}")
        return problems

    def pool_metrics(self, serial_s: float) -> dict:
        """The pool as the parent sees it: the serial trace unit against
        a pooled pass over the same population, each on a cold store.

        ``busy_frac`` is serial time over pooled capacity (workers x
        pooled wall); ``wait_s`` is the pooled wall beyond a perfect
        split; ``pickled_bytes`` is each shard's task and result as
        pickled for the pool.
        """
        with self._fresh_store() as store:
            pooled = self._run(self.workers, store).busy_s
            sent = sum(len(pickle.dumps(spec)) for spec in self.specs)
            back = sum(len(pickle.dumps(store.get(spec.key())))
                       for spec in self.specs)
        return {
            "runtime.pool.busy_frac": (serial_s / (self.workers * pooled),
                                       "frac"),
            "runtime.pool.wait_s": (
                max(0.0, pooled - serial_s / self.workers), "host-s"),
            "runtime.pool.pickled_bytes": (sent + back, "bytes"),
        }


WORKLOADS = {w.name: w for w in (Fig3Packet, SearchFluid, NdtStream)}


def instrument(tracer) -> None:
    """Wrap the public calls each layer is entered through.

    The same wrappers go in for every workload; a layer a workload does
    not enter simply records no spans.
    """
    def events_before(args):
        return args[0].events_processed

    def events_after(data, args, result, before):
        data["events"] = args[0].events_processed - before

    def ticks_before(args):
        return args[0].ticks

    def ticks_after(data, args, result, before):
        data["ticks"] = args[0].ticks - before

    def windows(data, args, result, before):
        data["windows"] = len(args[1])

    def records(data, args, result, before):
        data["records"] = len(result.records)

    def index_size(store) -> int:
        try:
            return os.path.getsize(os.path.join(store.root, "index.json"))
        except OSError:
            return 0

    def got(data, args, result, before):
        default = args[2] if len(args) > 2 else None
        data["hit"] = int(result is not default)
        data["index_bytes"] = index_size(args[0])

    def put(data, args, result, before):
        data["bytes"] = os.path.getsize(result)
        data["index_bytes"] = index_size(args[0])

    for owner in (qa_scenario, qa_search):
        tracer.wrap(owner, "run_scenario", "run_scenario")
    for owner, attr in ((qa_scenario, "dumbbell"),
                        (qa_scenario, "ElasticityProbe"),
                        (qa_scenario, "make_cross_traffic"),
                        (fluid_runner, "make_cross_traffic")):
        tracer.wrap(owner, attr, "scenario.build")
    tracer.wrap(Simulator, "run", "sim.run", events_before, events_after)
    tracer.wrap(ElasticityProbe, "report", "core.probe.report")
    tracer.wrap(ContentionDetector, "verdict", "core.detector.verdict",
                after=windows)
    tracer.wrap(FluidModel, "run", "fluid.model.run", ticks_before,
                ticks_after)
    tracer.wrap(qa_search, "run_search", "qa.search")
    tracer.wrap(SearchFluid, "evaluate", "qa.search.evaluate")
    tracer.wrap(SyntheticNdtGenerator, "generate_shard", "ndt.synth.generate",
                after=records)
    tracer.wrap(ndt_pipeline, "categorize", "ndt.filters.categorize")
    tracer.wrap(ndt_pipeline, "throughput_level_shift",
                "analysis.changepoint.level_shift")
    tracer.wrap(Fig2Result, "merge", "ndt.pipeline.merge")
    tracer.wrap(ArtifactStore, "get", "store.get", after=got)
    tracer.wrap(ArtifactStore, "put", "store.put", after=put)
