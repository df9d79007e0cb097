"""The benchmark's workloads: what one round runs and how it is checked.

A round is a list of operations.  The training workload runs one
operation per system through :func:`repro.bench.runner.run_system`; the
serve and cluster workloads run their scenarios through
:func:`repro.serve.run_serve_scenario` and
:func:`repro.cluster.run_cluster_scenario`, and count each request as an
operation.  Every input is derived from the benchmark's seed; the
program only receives the generated datasets and configurations.

Why these three (see also ``perfbench/README.md``):

* ``train-systems`` — all six training run paths with learning on
  (the ``repro compare`` / Fig. 8-10 path); the NumPy learning plane
  dominates.
* ``serve-steady`` — ``repro serve`` below its knee; per-request
  sampling, storage and ``predict`` under the strict sanitizer, with no
  backward pass or optimizer.
* ``cluster-zipf`` — ``repro.cluster``'s vectorized path, which barely
  touches storage or tensor code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.bench.runner import get_dataset, run_system
from repro.cluster import ClusterScenario, run_cluster_scenario
from repro.core.base import TrainConfig
from repro.serve import ServeScenario, run_serve_scenario

#: Metric-name form of each training system (``+`` is not allowed).
SYSTEM_KEYS = {"gnndrive-gpu": "gnndrive-gpu", "gnndrive-cpu": "gnndrive-cpu",
               "pyg+": "pygplus", "ginex": "ginex", "mariusgnn": "mariusgnn",
               "multigpu": "multigpu"}


@dataclass
class Outcome:
    """What one operation produced, before the harness adds timings."""

    label: str
    system: str                 # SYSTEM_KEYS value, or the workload kind
    items: int                  # useful work: mini-batches or good requests
    attempted: int
    failed: int
    digest: str                 # hash of the simulated outputs
    stats: object               # List[EpochStats], ServeStats or ClusterStats
    errors: List[str] = field(default_factory=list)   # failed checks


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _epoch_record(s) -> Dict:
    rec = asdict(s)
    # NaN never equals itself; hash its text form instead.
    return {k: (repr(v) if isinstance(v, float) else v)
            for k, v in rec.items()}


@dataclass(frozen=True)
class TrainingWorkload:
    """Systems trained for a few epochs on one papers100m-mini dataset."""

    name: str
    systems: Tuple[str, ...]
    host_gb: float
    epochs: int
    eval_every: int
    warmup_epochs: int = 1
    dataset: str = "papers100m-mini"
    batch_size: int = 50

    def dataset_args(self, seed: int) -> List[Dict]:
        return [dict(name_or_spec=self.dataset, seed=seed, scale=1.0,
                     dim=None)]

    def prepare(self, seed: int) -> None:
        """Nothing to warm: datasets are passed to each run directly."""

    def ops(self, datasets: List, seed: int) -> List[Callable[[], Outcome]]:
        cfg = TrainConfig(model_kind="sage", batch_size=self.batch_size,
                          seed=seed)
        (ds,) = datasets
        out = []
        for system in self.systems:
            workers = 2 if system == "multigpu" else 1

            def op(system=system, workers=workers):
                res = run_system(
                    system, ds, cfg, host_gb=self.host_gb,
                    epochs=self.epochs, warmup_epochs=self.warmup_epochs,
                    num_workers=workers, num_gpus=workers,
                    eval_every=self.eval_every)
                return self._outcome(system, res)
            out.append(op)
        return out

    def _outcome(self, label: str, res) -> Outcome:
        # An OOM or OOT run is a failed operation; a broken check on an
        # ``ok`` run is an incorrect output as well.
        errors = []
        total = self.warmup_epochs + self.epochs
        if res.ok and len(res.stats) != total:
            errors.append(f"{label}: {len(res.stats)} epochs, want {total}")
        for s in res.stats:
            if not (math.isfinite(s.epoch_time) and s.epoch_time > 0):
                errors.append(f"{label}: epoch {s.epoch} time {s.epoch_time}")
            if s.num_batches <= 0:
                errors.append(f"{label}: epoch {s.epoch} has no batches")
            if min(s.bytes_read, s.cache_hits, s.cache_misses,
                   s.reused_nodes, s.loaded_nodes) < 0:
                errors.append(f"{label}: epoch {s.epoch} negative counter")
            if not math.isfinite(s.loss):
                errors.append(f"{label}: epoch {s.epoch} loss {s.loss}")
        if self.eval_every and res.ok:
            acc = res.stats[-1].val_acc
            if not 0.0 <= acc <= 1.0:
                errors.append(f"{label}: validation accuracy {acc}")
        batches = sum(s.num_batches for s in res.stats)
        return Outcome(
            label=label, system=SYSTEM_KEYS[label], items=batches,
            attempted=1, failed=int(res.status != "ok" or bool(errors)),
            digest=_digest([res.status] + [_epoch_record(s)
                                           for s in res.stats]),
            stats=res.stats, errors=errors)


@dataclass(frozen=True)
class ScenarioWorkload:
    """Serve or cluster scenarios, *streams* per round, each seeded from
    the benchmark seed; a request is one op.  Several independently
    seeded streams average out how much one seed's popularity ranking
    sets the host cost."""

    name: str
    kind: str                   # "serve" | "cluster"
    base: object                # ServeScenario | ClusterScenario
    run: Callable               # run_serve_scenario | run_cluster_scenario
    streams: int = 1

    def scenarios(self, seed: int) -> List:
        return [self.base.with_(seed=seed * self.streams + i)
                for i in range(self.streams)]

    def dataset_args(self, seed: int) -> List[Dict]:
        return [dict(name_or_spec=sc.dataset, seed=sc.seed,
                     scale=sc.dataset_scale, dim=None)
                for sc in self.scenarios(seed)]

    def prepare(self, seed: int) -> None:
        """Fill the runner's dataset cache the scenario reads from, so
        measured runs do not regenerate (set-up is timed separately)."""
        for args in self.dataset_args(seed):
            get_dataset(args["name_or_spec"], scale=args["scale"],
                        seed=args["seed"])

    def ops(self, datasets: List, seed: int) -> List[Callable[[], Outcome]]:
        return [lambda sc=sc: self._outcome(f"{self.name}#{sc.seed}",
                                            self.run(sc))
                for sc in self.scenarios(seed)]

    def _outcome(self, label: str, run) -> Outcome:
        errors = [f"{label}: sanitizer: {f}" for f in run.findings or []]
        if run.status != "ok":
            offered = self.base.num_requests
            return Outcome(label, self.kind, 0, offered, offered,
                           _digest([run.status]), None, errors)
        s = run.stats
        try:
            s.check_accounting()
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
        if not run.digest:
            errors.append(f"{label}: no trace digest")
        good = s.completed - s.slo_miss
        return Outcome(
            label=label, system=self.kind, items=good,
            attempted=s.offered,
            failed=s.offered if errors else s.offered - good,
            digest=_digest([run.digest, s.offered, s.completed, s.slo_miss]),
            stats=s, errors=errors)


TRAIN_SYSTEMS = ("gnndrive-gpu", "gnndrive-cpu", "pyg+", "ginex",
                 "mariusgnn", "multigpu")

WORKLOADS = {
    w.name: w for w in (
        TrainingWorkload(
            name="train-systems", systems=TRAIN_SYSTEMS, host_gb=32,
            epochs=1, eval_every=2),
        ScenarioWorkload(
            name="serve-steady", kind="serve", run=run_serve_scenario,
            base=ServeScenario(
                name="serve-steady", dataset="papers100m-mini",
                dataset_scale=0.2, host_gb=8.0, backend="async",
                rate=200.0, num_requests=1000, seeds_per_request=2,
                slo=0.05, num_replicas=1)),
        ScenarioWorkload(
            name="cluster-zipf", kind="cluster", run=run_cluster_scenario,
            base=ClusterScenario(
                name="cluster-zipf", dataset="tiny", rate=14000.0,
                num_requests=15_000, num_shards=8, replication=2,
                popularity="zipf", zipf_alpha=1.3, slo=0.5,
                admit_capacity=16384, max_batch=64),
            streams=4),
    )
}
