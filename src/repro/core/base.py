"""Shared base for every training system (GNNDrive and the baselines).

A *training system* owns a mounted dataset on a simulated machine, a
real NumPy model/optimizer, and a mini-batch plan.  One epoch template,
:meth:`TrainingSystem.run_epochs`, does the bookkeeping for every
system; subclasses only start each epoch's work with their own
scheduling architecture (:meth:`TrainingSystem._start_epoch`).  Because
all systems share the same model math, sampler semantics and epoch
accounting, performance differences come only from their runtime
designs — the comparison the paper makes.

Scaling note: the paper trains with batch 1000 and fanouts (10, 10, 10)
on billion-edge graphs.  Mini datasets are ~1/1000 scale, so the default
*scaled workload* is batch 100 with fanouts (3, 3, 3) — keeping the
per-batch feature footprint the same small fraction of host memory that
the paper's setup has (a sampled batch must not be a macroscopic
fraction of a 1000x smaller graph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import EpochStats, EpochTally
from repro.errors import ConfigError, OutOfTimeError
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.models import Adam, make_model
from repro.models.costmodel import ComputeCostModel
from repro.models.train import accuracy, train_step
from repro.sampling import MinibatchPlan, NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import Event, Process, RandomStreams

FLOAT_BYTES = 4
#: Parameter + Adam first/second moment buffers.
OPTIMIZER_STATE_FACTOR = 3
#: Counter names that :meth:`TrainingSystem.run_epochs` reports as
#: :class:`EpochStats` fields; every other counter lands in ``extra``.
COUNTER_FIELDS = frozenset({"bytes_read", "cache_hits", "cache_misses",
                            "reused_nodes", "loaded_nodes"})


def scaled_default_fanouts(kind: str) -> Tuple[int, ...]:
    """Paper fanouts (10,10,10)/(10,10,5) shrunk for 1/1000-scale data."""
    return (3, 3, 2) if kind.lower() == "gat" else (3, 3, 3)


@dataclass(frozen=True)
class TrainConfig:
    """Model/workload parameters shared by every system."""

    model_kind: str = "sage"
    batch_size: int = 50
    hidden_dim: int = 256
    num_layers: int = 3
    lr: float = 3e-3
    fanouts: Optional[Tuple[int, ...]] = None  # None -> scaled default
    seed: int = 0
    #: Extra keywords for the model factory, e.g. (("aggr", "max"),) for
    #: GraphSAGE or (("heads", 4),) for GAT.  A tuple of pairs so the
    #: config stays hashable/frozen.
    model_kwargs: Tuple[Tuple[str, object], ...] = ()

    def resolved_fanouts(self) -> Tuple[int, ...]:
        return tuple(self.fanouts) if self.fanouts else scaled_default_fanouts(
            self.model_kind)

    def with_(self, **kw) -> "TrainConfig":
        return replace(self, **kw)


def probe_batch_shape(dataset: DiskDataset, fanouts, batch_size: int,
                      dims=None, seed: int = 0, trials: int = 5):
    """Empirical per-batch maxima from trial samples.

    Returns ``(max_nodes, max_activation_bytes)``; the latter is 0 when
    *dims* is None.  Every system sizes working buffers from these:
    GNNDrive's staging/feature buffers and activation reserve, Ginex's
    functional cache minimum.  Uses a throwaway RNG stream.
    """
    streams = RandomStreams(seed)
    sampler = NeighborSampler(dataset.graph, tuple(fanouts),
                              streams.get("mb-probe"))
    rng = streams.get("mb-probe-batches")
    train = dataset.train_idx
    max_nodes, max_act = 0, 0
    for _ in range(trials):
        take = min(batch_size, len(train))
        seeds = rng.choice(train, size=take, replace=False)
        sub = sampler.sample(seeds)
        max_nodes = max(max_nodes, len(sub.all_nodes))
        if dims is not None:
            max_act = max(max_act, activation_bytes(sub, dims))
    return max_nodes, max_act


def estimate_max_batch_nodes(dataset: DiskDataset, fanouts, batch_size: int,
                             seed: int = 0, trials: int = 5) -> int:
    """Empirical max unique sampled nodes per mini-batch (Mb)."""
    return probe_batch_shape(dataset, fanouts, batch_size,
                             seed=seed, trials=trials)[0]


def activation_bytes(subgraph: SampledSubgraph, dims) -> int:
    """Rough training-time activation footprint of one batch.

    Forward activations plus their gradients (factor 2), the classic
    estimate used for OOM checks.
    """
    total = 0
    for i, (num_src, num_dst, _) in enumerate(subgraph.layer_sizes()):
        total += num_src * dims[i] + num_dst * dims[i + 1]
    return 2 * total * FLOAT_BYTES


class TrainingSystem:
    """Abstract base; subclasses implement :meth:`_start_epoch`."""

    name = "base"
    #: Fig. 2's "-only" mode: each epoch runs just the sample stage, so
    #: the epoch reports a NaN loss and training accuracy and skips
    #: validation.
    sample_only = False

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig):
        self.machine = machine
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.streams = RandomStreams(train_cfg.seed)

        if dataset.topo_handle is None:
            dataset.mount(machine.catalog)

        self.fanouts = train_cfg.resolved_fanouts()
        if len(self.fanouts) != train_cfg.num_layers:
            raise ValueError(
                f"fanouts {self.fanouts} do not match "
                f"{train_cfg.num_layers} model layers")
        self.model = make_model(
            train_cfg.model_kind, dataset.dim, train_cfg.hidden_dim,
            dataset.num_classes, train_cfg.num_layers, seed=train_cfg.seed,
            **dict(train_cfg.model_kwargs))
        self.optimizer = Adam(self.model.parameters(), lr=train_cfg.lr)
        self.plan = MinibatchPlan(
            dataset.train_idx, train_cfg.batch_size,
            self.streams.get("minibatch-shuffle"))
        self.eval_sampler = NeighborSampler(
            dataset.graph, self.fanouts, self.streams.get("eval-sampling"))
        self.dims = ComputeCostModel.model_dims(
            train_cfg.model_kind, dataset.dim, train_cfg.hidden_dim,
            dataset.num_classes, train_cfg.num_layers)
        self.epoch_stats: List[EpochStats] = []
        self._tally = EpochTally()
        #: Every system keeps the CSC index-pointer array resident (§5).
        self._indptr_alloc = machine.host.allocate(
            dataset.indptr_nbytes(), tag="indptr")

    # ------------------------------------------------------------------
    @property
    def model_kind(self) -> str:
        return self.train_cfg.model_kind

    def model_state_bytes(self) -> int:
        return self.model.num_parameters() * FLOAT_BYTES * OPTIMIZER_STATE_FACTOR

    def evaluate(self, nodes: Optional[np.ndarray] = None) -> float:
        """Data-plane validation accuracy (not charged to simulated time:
        the paper's timings are training epochs; evaluation happens
        out-of-band)."""
        nodes = self.dataset.val_idx if nodes is None else nodes
        return accuracy(self.model, self.eval_sampler,
                        self.dataset.features.features, nodes,
                        self.dataset.labels, batch_size=256)

    # ------------------------------------------------------------------
    # Epoch template
    # ------------------------------------------------------------------
    def _start_epoch(self, epoch: int
                     ) -> Tuple[Sequence[Event], Sequence[Process]]:
        """Start epoch *epoch*'s work on the simulator.

        Returns the done events :meth:`run_epochs` steps the simulator
        until (in order) and the processes whose failure aborts the
        epoch.  The work accumulates into ``self._tally``; the hook sets
        ``self._tally.batches`` unless the work counts its own batches.
        """
        raise NotImplementedError

    def _epoch_counters(self) -> Dict[str, int]:
        """Cumulative counters; each epoch reports their movement.

        Names in :data:`COUNTER_FIELDS` fill the :class:`EpochStats`
        field of that name, every other name an ``extra`` entry.
        """
        m = self.machine
        return {
            "bytes_read": m.ssd.bytes_read,
            "cache_hits": m.page_cache.hits,
            "cache_misses": m.page_cache.misses,
            "feat_bytes_read": m.ssd.read_bytes_for(
                self.dataset.feat_handle.name),
        }

    def _epoch_tally(self) -> EpochTally:
        """The finished epoch's totals (data parallelism sums workers)."""
        return self._tally

    def _finish_epoch(self, stats: EpochStats) -> None:
        """Add system-specific fields to *stats* before validation."""

    def run_epochs(self, num_epochs: int,
                   target_accuracy: Optional[float] = None,
                   time_budget: Optional[float] = None,
                   eval_every: int = 0) -> List[EpochStats]:
        """Train for *num_epochs* (or until *target_accuracy*).

        Validates every *eval_every* epochs (0: never).  Returns every
        :class:`EpochStats` recorded so far, one per completed epoch;
        epoch numbers continue across calls.  Raises
        :class:`OutOfTimeError` when *time_budget* (simulated seconds)
        is exceeded and :class:`OutOfMemoryError` on budget violations.
        """
        if eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {eval_every}")
        if target_accuracy is not None and not eval_every:
            raise ConfigError("target_accuracy needs eval_every >= 1: "
                              "without validation the stop never fires")
        m = self.machine
        sim = m.sim
        first = len(self.epoch_stats)
        for epoch in range(first, first + num_epochs):
            self._tally = EpochTally()
            m.sanitize_epoch_begin()
            t_start = sim.now
            counters0 = self._epoch_counters()
            faults0 = m.fault_counters()
            dones, procs = self._start_epoch(epoch)

            def audit() -> None:
                if time_budget is not None and sim.now > time_budget:
                    raise OutOfTimeError(time_budget)
                for p in procs:
                    if not p.is_alive and not p.ok:
                        raise p._value  # propagate OOM etc.

            for done in dones:
                sim.run_until_triggered(done, each_event=audit)
            m.sanitize_epoch_end()

            tally = self._epoch_tally()
            stats = EpochStats(
                epoch=epoch,
                epoch_time=sim.now - t_start,
                stages=tally.stages.snapshot(),
                loss=(float("nan") if self.sample_only
                      else tally.loss_sum / max(1, tally.batches)),
                train_acc=(float("nan") if self.sample_only
                           else tally.correct / max(1, tally.seen)),
                num_batches=tally.batches,
                faults=m.fault_counters_delta(faults0),
            )
            for key, value in self._epoch_counters().items():
                if key in COUNTER_FIELDS:
                    setattr(stats, key, value - counters0[key])
                else:
                    stats.extra[key] = value - counters0[key]
            self._finish_epoch(stats)
            if (eval_every and (epoch + 1) % eval_every == 0
                    and not self.sample_only):
                stats.val_acc = self.evaluate()
            self.epoch_stats.append(stats)
            if (target_accuracy is not None
                    and not np.isnan(stats.val_acc)
                    and stats.val_acc >= target_accuracy):
                break
        return self.epoch_stats

    def _gpu_train_step(self, sub: SampledSubgraph,
                        act_overhead: float = 1.0,
                        zero_rows: Optional[np.ndarray] = None
                        ) -> Generator:
        """One synchronous training step on GPU 0.

        Holds the batch's features plus activations (times
        *act_overhead*) on the device for a blocking PCIe copy and the
        step itself, then runs the real math on the gathered features —
        zero where *zero_rows* is set — into the epoch tally.
        """
        m = self.machine
        gpu = m.gpus[0]
        feat_bytes = int(sub.num_sampled_nodes
                         * self.dataset.features.record_nbytes)
        act = int(activation_bytes(sub, self.dims) * act_overhead)
        gpu.allocate(feat_bytes + act, tag="batch")
        try:
            yield m.pcie[0].copy_async(feat_bytes)
            duration = m.gpu_cost.train_step_time(
                self.model_kind, sub.layer_sizes(), self.dims)
            yield from m.gpu_task(0, duration)
        finally:
            gpu.free(feat_bytes + act, tag="batch")
        feats = self.dataset.features.gather(sub.all_nodes)
        if zero_rows is not None:
            feats[zero_rows] = 0.0
        loss, correct = train_step(self.model, self.optimizer, feats, sub,
                                   self.dataset.labels)
        self._tally.add_batch(loss, correct, len(sub.seeds))

    def shutdown(self) -> None:
        """Stop background actors (none by default)."""

    def teardown(self) -> None:
        """Release host/device allocations (override to add more)."""
        self.machine.host.free(self._indptr_alloc)
