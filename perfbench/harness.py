"""Measurement loop and metric assembly.

One run of the benchmark (``measure``):

1. **Set-up**, repeated ``SETUP_REPEATS`` times: generate the
   workload's datasets from the seed.  Machine and system construction
   is timed inside every operation by always-on probes.
   ``setup_s`` = median generation time + the sum over operations of the
   median construction time.
2. **Measured phase**, with tracing off: whole rounds until ``seconds``
   have passed, at least ``MIN_ROUNDS``.  An operation's host time
   excludes its construction.  ``wall_s`` is the sum over operations of
   their median host time, i.e. the host time of one typical round.
3. **Traced round** (``trace=True`` only): one more round, dataset
   generation included, with every layer probe installed.  Its
   simulated outputs must hash to the same ``sim_digest`` as every
   untraced round, because the probes only observe.  The probes' cost,
   ``trace.overhead_s``, is the traced operations' host time minus the
   untraced median of the same.

Simulated quantities (epoch seconds, latency tails, SLO attainment) are
outputs of a deterministic model: they are checked and recorded, never
gated.  Requests that miss the SLO do count as failed operations.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

import repro.graph
from repro.analysis import SimSanitizer
from repro.bench import runner
from repro.cluster.sim import ClusterSim
from repro.core.feature_buffer import FeatureBuffer
from repro.errors import SimulationError
from repro.machine import Machine
from repro.models import optim, train
from repro.sampling import NeighborSampler
from repro.serve.server import InferenceServer
from repro.simcore import Simulator
from repro.storage import AsyncRing, PageCache, SSDDevice
from repro.tensor import ops as tensor_ops

from perfbench.probes import Probe, Probes, public_methods
from perfbench.workloads import SYSTEM_KEYS, Outcome

perf = time.perf_counter

SETUP_REPEATS = 3
MIN_ROUNDS = 3

#: End-to-end metrics: (name, unit).  Measured with tracing off.
E2E = (("wall_s", "s"), ("items_per_s", "1/s"), ("setup_s", "s"),
       ("peak_rss_mb", "MB"))

_SYSTEMS = tuple(SYSTEM_KEYS.values())

#: Per-layer metrics: (name, unit).  Every workload reports every one;
#: a layer a workload does not exercise reads 0 (see EXERCISED).
PER_LAYER = (
    ("graph.generate_s", "s"),
    ("sampling.sample_s", "s"), ("sampling.calls", "count"),
    ("sampling.nodes", "count"),
    ("storage.page_cache_s", "s"), ("storage.ssd_s", "s"),
    ("storage.ring_s", "s"), ("storage.bytes_read", "bytes"),
    ("storage.page_hits", "count"), ("storage.page_misses", "count"),
    ("storage.hit_ratio", "ratio"),
    ("simcore.events", "count"), ("simcore.cohorts", "count"),
    ("simcore.host_us_per_event", "us"), ("simcore.step_self_s", "s"),
    ("models.forward_backward_s", "s"), ("models.optim_step_s", "s"),
    ("models.predict_s", "s"), ("models.evaluate_s", "s"),
    ("tensor.spmm_s", "s"), ("models.final_loss", "nat"),
    ("core.feature_buffer_s", "s"), ("core.reuse_ratio", "ratio"),
) + tuple((f"run_s.{s}", "s") for s in _SYSTEMS) + tuple(
    (f"sim.epoch_s.{s}", "s") for s in _SYSTEMS) + (
    ("sim.stage.sample_s", "s"), ("sim.stage.extract_s", "s"),
    ("sim.stage.train_s", "s"), ("sim.stage.release_s", "s"),
    ("serve.sim_p50_ms", "ms"), ("serve.sim_p99_ms", "ms"),
    ("serve.slo_attainment", "ratio"), ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"), ("serve.host_us_per_request", "us"),
    ("cluster.build_s", "s"), ("cluster.run_s", "s"),
    ("cluster.sim_p99_ms", "ms"), ("cluster.slo_attainment", "ratio"),
    ("cluster.parts_served", "count"), ("cluster.mirror_wins", "count"),
    ("cluster.host_us_per_request", "us"),
    ("analysis.sanitizer_s", "s"),
    ("bench.unattributed_s", "s"), ("trace.overhead_s", "s"),
)

_COMMON = ("graph.generate_s", "bench.unattributed_s")
_ENGINE = ("simcore.events", "simcore.cohorts", "simcore.host_us_per_event",
           "simcore.step_self_s")
_STORAGE = ("storage.page_cache_s", "storage.ssd_s", "storage.bytes_read",
            "storage.page_hits", "storage.page_misses", "storage.hit_ratio")
_SAMPLING = ("sampling.sample_s", "sampling.calls", "sampling.nodes")

#: Per-layer metrics each workload exercises: they must read above 0.
EXERCISED = {
    "train-systems": _COMMON + _ENGINE + _STORAGE + _SAMPLING + (
        "storage.ring_s", "models.forward_backward_s",
        "models.optim_step_s", "models.predict_s", "models.evaluate_s",
        "tensor.spmm_s", "models.final_loss", "core.feature_buffer_s",
        "core.reuse_ratio", "sim.stage.sample_s", "sim.stage.extract_s",
        "sim.stage.train_s", "sim.stage.release_s")
    + tuple(f"run_s.{s}" for s in _SYSTEMS)
    + tuple(f"sim.epoch_s.{s}" for s in _SYSTEMS),
    "serve-steady": _COMMON + _ENGINE + _STORAGE + _SAMPLING + (
        "storage.ring_s", "models.predict_s", "tensor.spmm_s",
        "core.feature_buffer_s", "core.reuse_ratio",
        "serve.sim_p50_ms", "serve.sim_p99_ms", "serve.slo_attainment",
        "serve.batches", "serve.mean_batch_size",
        "serve.host_us_per_request", "analysis.sanitizer_s"),
    "cluster-zipf": _COMMON + _ENGINE + (
        "cluster.build_s", "cluster.run_s", "cluster.sim_p99_ms",
        "cluster.slo_attainment", "cluster.parts_served",
        "cluster.host_us_per_request", "analysis.sanitizer_s"),
}

#: Probes that time construction; installed on every run.
SETUP_METRICS = ("setup.machine", "setup.system", "cluster.build")


def setup_probes() -> List[Probe]:
    return [Probe(Machine, "__init__", "setup.machine"),
            Probe(runner, "build_system", "setup.system"),
            Probe(InferenceServer, "__init__", "setup.system"),
            Probe(ClusterSim, "__init__", "cluster.build")]


def layer_probes() -> List[Probe]:
    """Every public function the traced round wraps, by layer."""
    probes = [
        Probe(repro.graph.datasets, "make_dataset", "graph.generate"),
        Probe(NeighborSampler, "sample", "sampling.sample"),
        Probe(Simulator, "step", "simcore.step"),
        Probe(train, "forward_backward", "models.forward_backward"),
        Probe(optim.Adam, "step", "models.optim_step"),
        Probe(train, "predict", "models.predict"),
        Probe(train, "accuracy", "models.evaluate"),
        Probe(tensor_ops, "spmm", "tensor.spmm"),
        Probe(ClusterSim, "run", "cluster.run"),
    ]
    probes += [Probe(PageCache, m, "storage.page_cache")
               for m in ("access", "access_records", "access_range")]
    probes += [Probe(SSDDevice, m, "storage.ssd")
               for m in ("submit_batch", "submit_batch_ex", "submit_reliable")]
    probes += [Probe(AsyncRing, m, "storage.ring")
               for m in ("submit", "drain_cohort")]
    probes += [Probe(FeatureBuffer, m, "core.feature_buffer")
               for m in public_methods(FeatureBuffer)]
    probes += [Probe(SimSanitizer, m, "analysis.sanitizer")
               for m in public_methods(SimSanitizer)
               if m.startswith(("on_schedule", "on_step"))]
    return probes


@dataclass
class OpSample:
    """One operation's outcome plus its host timings and engine counters."""

    outcome: Outcome
    wall: float
    construct: float
    events: int = 0
    cohorts: int = 0


@dataclass
class Round:
    ops: List[OpSample]
    digest: str


@dataclass
class Result:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    digest: str
    rounds: int
    e2e: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class _Runner:
    """Runs rounds of one workload, collects each op's machines and
    counts the sampler's output while it is probed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.machines: List[Machine] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def on_call(self, metric: str, args: tuple, result) -> None:
        if metric == "setup.machine":
            self.machines.append(args[0])
        elif metric == "sampling.sample":
            self.counters["sampling.calls"] += 1
            self.counters["sampling.nodes"] += len(result.all_nodes)

    def generate(self) -> List:
        return [repro.graph.datasets.make_dataset(**a)
                for a in self.workload.dataset_args(self.seed)]

    def round(self, datasets: List, probes: Probes) -> Round:
        samples = []
        for op in self.workload.ops(datasets, self.seed):
            self.machines = []
            c0 = _setup_time(probes)
            t0 = perf()
            outcome = op()
            dt = perf() - t0
            construct = _setup_time(probes) - c0
            sample = OpSample(outcome, dt - construct, construct)
            for m in self.machines:
                sample.events += m.sim.events_dispatched
                sample.cohorts += m.sim.cohorts_dispatched
                if m.faults is not None:
                    try:
                        m.faults.ledger.check_invariants()
                    except SimulationError as exc:
                        outcome.errors.append(f"fault ledger: {exc}")
                        outcome.failed = outcome.attempted
            self.machines = []
            samples.append(sample)
            # Free the run's reference cycles now, so the peak resident
            # set does not depend on when the collector happens to run.
            gc.collect()
        h = hashlib.sha256()
        for s in samples:
            h.update(f"{s.outcome.label}:{s.outcome.digest}:{s.events}:"
                     f"{s.cohorts};".encode())
        return Round(samples, h.hexdigest()[:16])


def _setup_time(probes: Probes) -> float:
    return sum(probes.inclusive.get(m, 0.0) for m in SETUP_METRICS)


def _median_by_label(rounds: List[Round], attr: str) -> Dict[str, float]:
    values: Dict[str, List[float]] = defaultdict(list)
    for r in rounds:
        for s in r.ops:
            values[s.outcome.label].append(getattr(s, attr))
    return {k: statistics.median(v) for k, v in values.items()}


def measure(workload, seed: int, seconds: float, trace: bool) -> Result:
    """Run *workload* (a WORKLOADS value); see the module docstring."""
    runner_ = _Runner(workload, seed)

    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        datasets = runner_.generate()
        gen_times.append(perf() - t0)
    workload.prepare(seed)

    rounds: List[Round] = []
    t_start = perf()
    with Probes(setup_probes(), on_call=runner_.on_call) as probes:
        while len(rounds) < MIN_ROUNDS or perf() - t_start < seconds:
            rounds.append(runner_.round(datasets, probes))

    walls = _median_by_label(rounds, "wall")
    construct = sum(_median_by_label(rounds, "construct").values())
    wall = sum(walls.values())
    setup = statistics.median(gen_times) + construct
    items = sum(s.outcome.items for s in rounds[0].ops)

    errors: List[str] = []
    attempted = failed = 0
    for r in rounds:
        if r.digest != rounds[0].digest:
            errors.append(f"sim_digest {r.digest} != {rounds[0].digest}")
        for s in r.ops:
            errors.extend(s.outcome.errors)
            attempted += s.outcome.attempted
            failed += (s.outcome.attempted if r.digest != rounds[0].digest
                       else s.outcome.failed)

    e2e = {"wall_s": wall,
           "items_per_s": items / wall,
           "setup_s": setup,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result = Result(workload.name, seed, not errors, attempted, failed,
                    rounds[0].digest, len(rounds), e2e, errors=errors)
    if trace:
        _traced(result, runner_, rounds, walls, wall + construct)
    return result


def _traced(result: Result, runner_: _Runner, rounds: List[Round],
            walls: Dict[str, float], untraced_ops: float) -> None:
    """Run the traced round and fill ``result.layers``.

    *untraced_ops* is the untraced host time of one round's operations,
    construction included: what the traced operations are compared to.
    """
    with Probes(setup_probes() + layer_probes(),
                on_call=runner_.on_call) as tp:
        t0 = perf()
        datasets = runner_.generate()
        generate = perf() - t0
        traced = runner_.round(datasets, tp)
    # Generation is left out of the overhead: it runs one cheap probe,
    # and its own run-to-run noise would swamp the probes' cost.
    traced_ops = sum(s.wall + s.construct for s in traced.ops)
    mismatch = traced.digest != rounds[0].digest
    if mismatch:
        result.errors.append(
            f"traced sim_digest {traced.digest} != {rounds[0].digest}")
    for s in traced.ops:
        result.errors.extend(s.outcome.errors)
        result.attempted += s.outcome.attempted
        result.failed += (s.outcome.attempted if mismatch
                          else s.outcome.failed)
    result.correct = not result.errors
    result.layers = layer_metrics(tp, traced, walls, result.e2e["wall_s"])
    result.layers.update(runner_.counters)
    result.layers["bench.unattributed_s"] = (generate + traced_ops
                                             - tp.root_time)
    result.layers["trace.overhead_s"] = traced_ops - untraced_ops


def _finite(x: float) -> float:
    return float(x) if math.isfinite(x) else 0.0


def layer_metrics(tp: Probes, traced: Round, walls: Dict[str, float],
                  wall: float) -> Dict[str, float]:
    inc, self_t = tp.inclusive, tp.self_time
    out = {name: 0.0 for name, _ in PER_LAYER}
    for metric in ("graph.generate", "sampling.sample", "storage.page_cache",
                   "storage.ssd", "storage.ring", "models.forward_backward",
                   "models.optim_step", "models.predict", "models.evaluate",
                   "tensor.spmm", "core.feature_buffer", "cluster.build",
                   "cluster.run", "analysis.sanitizer"):
        out[f"{metric}_s"] = inc.get(metric, 0.0)
    out["simcore.step_self_s"] = self_t.get("simcore.step", 0.0)

    events = sum(s.events for s in traced.ops)
    out["simcore.events"] = float(events)
    out["simcore.cohorts"] = float(sum(s.cohorts for s in traced.ops))
    out["simcore.host_us_per_event"] = wall / events * 1e6 if events else 0.0

    io_records: List = []            # EpochStats and ServeStats
    losses: List[float] = []
    epoch_times: Dict[str, List[float]] = defaultdict(list)
    stages: Dict[str, List[float]] = defaultdict(list)
    streams: Dict[str, List] = defaultdict(list)
    for s in traced.ops:
        o = s.outcome
        if o.system in _SYSTEMS:
            out[f"run_s.{o.system}"] += walls[o.label]
            epochs = o.stats or []
            io_records += epochs
            if epochs and math.isfinite(epochs[-1].loss):
                losses.append(epochs[-1].loss)
            for st in epochs[1:]:      # the first epoch is the warm-up
                epoch_times[o.system].append(st.epoch_time)
                if o.system == "gnndrive-gpu":
                    for stage in ("sample", "extract", "train", "release"):
                        stages[stage].append(getattr(st.stages, stage))
        elif o.stats is not None:
            streams[o.system].append(o.stats)
            if o.system == "serve":
                io_records.append(o.stats)
    for kind, stats in streams.items():
        # Several streams: the worst stream's tail, pooled counts.
        offered = sum(st.offered for st in stats)
        good = sum(st.completed - st.slo_miss for st in stats)
        batches = sum(st.num_batches for st in stats)
        out[f"{kind}.sim_p99_ms"] = max(_finite(st.latency_p99 * 1e3)
                                        for st in stats)
        out[f"{kind}.slo_attainment"] = good / offered
        out[f"{kind}.host_us_per_request"] = wall / offered * 1e6
        if kind == "serve":
            out["serve.sim_p50_ms"] = max(_finite(st.latency_p50 * 1e3)
                                          for st in stats)
            out["serve.batches"] = float(batches)
            out["serve.mean_batch_size"] = sum(
                st.mean_batch_size * st.num_batches for st in stats) / batches
        else:
            out["cluster.parts_served"] = float(
                sum(st.parts_served for st in stats))
            out["cluster.mirror_wins"] = float(
                sum(st.mirror_wins for st in stats))

    def total(attr: str) -> int:
        return sum(getattr(r, attr) for r in io_records)

    hits, misses = total("cache_hits"), total("cache_misses")
    reused, loaded = total("reused_nodes"), total("loaded_nodes")
    out["storage.page_hits"] = float(hits)
    out["storage.page_misses"] = float(misses)
    out["storage.bytes_read"] = float(total("bytes_read"))
    out["storage.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["core.reuse_ratio"] = (reused / (reused + loaded)
                               if reused + loaded else 0.0)
    out["models.final_loss"] = statistics.fmean(losses) if losses else 0.0
    for system, times in epoch_times.items():
        out[f"sim.epoch_s.{system}"] = statistics.fmean(times)
    for stage, times in stages.items():
        out[f"sim.stage.{stage}_s"] = statistics.fmean(times)
    return out
