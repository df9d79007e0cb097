"""MariusGNN baseline (Waleffe et al., EuroSys 2023) on the simulated machine.

MariusGNN partitions the graph and keeps a *partition buffer* in host
memory, training only on edge buckets whose two partitions co-reside —
nearly eliminating I/O inside an epoch.  The price the paper measures
(Table 2, Fig. 3c):

* a mandatory **data-preparation** phase on the critical path of every
  epoch: order the sequence of buffer states (the COMET policy) and
  preload the initial buffer — up to 46% of epoch time at 32 GB;
* partition swaps between sub-epochs (sequential reads);
* sampling restricted to buffered partitions (an accuracy risk the
  authors acknowledge; we implement it faithfully);
* OOM on large-feature graphs (MAG240M) because data preparation
  materialises feature-reorder scratch proportional to the full feature
  table — even 128 GB hosts fail (bottom row of Table 2).

One GPU, by its design (§4.3: "MariusGNN employs one GPU for training").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from repro.core.base import TrainConfig, TrainingSystem
from repro.core.stats import EpochStats
from repro.errors import OutOfMemoryError
from repro.graph.datasets import DiskDataset
from repro.graph.partition import buffer_order, partition_nodes
from repro.machine import Machine
from repro.sampling import NeighborSampler
from repro.sampling.subgraph import SampledSubgraph

#: Data preparation materialises reordering scratch proportional to the
#: feature table (Marius permutes node data into partition order).
PREP_SCRATCH_FACTOR = 0.30
#: CPU cost per partition pair when ordering the buffer sequence.
ORDER_COST_PER_PAIR = 2e-6


@dataclass(frozen=True)
class MariusConfig:
    """MariusGNN knobs."""

    num_partitions: int = 32
    #: Buffered partitions; None -> as many as host memory allows.
    buffer_partitions: Optional[int] = None
    io_threads: int = 32

    def __post_init__(self):
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.buffer_partitions is not None and self.buffer_partitions < 2:
            raise ValueError("buffer must hold >= 2 partitions")


class MariusGNN(TrainingSystem):
    """The partition-buffer baseline."""

    name = "mariusgnn"

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig(),
                 config: MariusConfig = MariusConfig()):
        super().__init__(machine, dataset, train_cfg)
        self.config = config
        host = machine.host
        P = config.num_partitions

        # Partition geometry.
        self.part = partition_nodes(dataset.num_nodes, P)
        nodes_per_part = int(np.ceil(dataset.num_nodes / P))
        rec = dataset.features.record_nbytes
        #: One partition's resident bytes: features + its topology slice.
        self.partition_bytes = int(
            nodes_per_part * rec + dataset.topo_nbytes() / P)

        # Data-prep scratch (feature reordering workspace) coexists with
        # the partition buffer because preparation recurs every epoch —
        # this is where MAG240M dies even with 128 GB (Table 2 bottom
        # row): the scratch scales with the *full* feature table, so no
        # partition count saves it.
        self.prep_scratch = int(dataset.feat_nbytes() * PREP_SCRATCH_FACTOR)

        if config.buffer_partitions is not None:
            B = config.buffer_partitions
        else:
            budget = host.available - self.prep_scratch
            B = int(budget // self.partition_bytes)
            B = min(B, P)
        if B < 2:
            raise OutOfMemoryError(
                2 * self.partition_bytes + self.prep_scratch,
                host.available, where="marius-partition-buffer")
        self.buffer_partitions = B
        self._buffer_alloc = host.allocate(B * self.partition_bytes,
                                           tag="partition-buffer")
        try:
            self._scratch_alloc = host.allocate(self.prep_scratch,
                                                tag="marius-prep-scratch")
        except OutOfMemoryError:
            host.free(self._buffer_alloc)
            raise
        machine.gpus[0].allocate(self.model_state_bytes(), tag="model")

        self.sampler = NeighborSampler(dataset.graph, self.fanouts,
                                       self.streams.get("marius-sampler"))
        self.states = buffer_order(P, B)
        #: Training seeds grouped by partition.
        self._seeds_by_part = [
            dataset.train_idx[self.part[dataset.train_idx] == p]
            for p in range(P)
        ]

    # ------------------------------------------------------------------
    def _restrict_to_buffer(self, sub: SampledSubgraph,
                            resident: np.ndarray) -> SampledSubgraph:
        """Faithful accuracy-risk model: sampling sees only buffered
        partitions, so edges from non-resident sources are dropped."""
        keep_node = resident[self.part[sub.all_nodes]]
        new_layers = []
        for layer in sub.layers:
            src_global = sub.all_nodes[layer.src_pos]
            ok = resident[self.part[src_global]]
            from repro.sampling.subgraph import LayerAdj
            new_layers.append(LayerAdj(layer.src_pos[ok], layer.dst_pos[ok],
                                       layer.num_src, layer.num_dst))
        return SampledSubgraph(sub.seeds, sub.all_nodes, new_layers,
                               sub.hop_frontiers)

    # ------------------------------------------------------------------
    def _data_preparation(self) -> Generator:
        """Order the partition sequence and preload the initial buffer."""
        m = self.machine
        P = self.config.num_partitions
        # Ordering (COMET) over all partition pairs.
        yield from m.cpu_task(P * P * ORDER_COST_PER_PAIR)
        # Reorder pass over the feature table (read + write through the
        # prep scratch) plus the initial buffer preload — the long I/O
        # burst of Fig. 3c's epoch starts.  Only the *non-resident*
        # share of the table needs the on-disk reorder pass, which is
        # why bigger hosts prepare faster (Table 2: 296 s -> 115 s).
        nonresident = 1.0 - self.buffer_partitions / P
        prep_io = int(3 * self.dataset.feat_nbytes() * nonresident
                      + self.buffer_partitions * self.partition_bytes)
        chunk = 1 << 16
        nchunks = max(1, prep_io // chunk)
        # Partition traffic moves features (plus each partition's topology
        # slice); attribute it to the feature file for the accounting plane.
        ev = m.ssd.batch_event(np.full(nchunks, chunk, dtype=np.int64),
                               io_depth=self.config.io_threads,
                               tag=self.dataset.feat_handle.name)
        yield from m.io_wait(ev)

    def _swap_partitions(self, prev: List[int], cur: List[int]) -> Generator:
        m = self.machine
        incoming = set(cur) - set(prev)
        if not incoming:
            return
        total = len(incoming) * self.partition_bytes
        chunk = 1 << 16
        nchunks = max(1, total // chunk)
        ev = m.ssd.batch_event(np.full(nchunks, chunk, dtype=np.int64),
                               io_depth=self.config.io_threads,
                               tag=self.dataset.feat_handle.name)
        yield from m.io_wait(ev)

    def _train_state(self, state: List[int], epoch: int) -> Generator:
        """Train mini-batches of every not-yet-trained partition in the
        buffer (each seed partition is trained once per epoch, when it
        first enters the buffer)."""
        m = self.machine
        resident = np.zeros(self.config.num_partitions, dtype=bool)
        resident[list(state)] = True
        pools = [self._trainable_seeds[p] for p in state
                 if len(self._trainable_seeds[p])]
        if not pools:
            return
        for p in state:
            self._trainable_seeds[p] = np.empty(0, dtype=np.int64)
        seeds_pool = np.concatenate(pools)
        bs = self.train_cfg.batch_size
        for s in range(0, len(seeds_pool), bs):
            seeds = seeds_pool[s:s + bs]
            t0 = m.sim.now
            sub = self.sampler.sample(seeds)
            sub = self._restrict_to_buffer(sub, resident)
            # In-memory sampling: CPU cost only, no page faults.
            yield from m.cpu_task(m.cpu_cost.sample_compute_time(
                sum(len(f) for f in sub.hop_frontiers), sub.total_edges()))
            self._tally.stages.sample += m.sim.now - t0

            # Extraction is a memcpy from the in-memory buffer.  Sampled
            # nodes in non-resident partitions get NO features — Marius
            # trains only with buffered data (the accuracy risk §2 notes);
            # their edges were already dropped above.
            nonresident_mask = ~resident[self.part[sub.all_nodes]]

            t0 = m.sim.now
            yield from self._gpu_train_step(sub, zero_rows=nonresident_mask)
            self._tally.batches += 1
            self._tally.stages.train += m.sim.now - t0

    def _epoch_proc(self, epoch: int, done_event) -> Generator:
        m = self.machine
        t0 = m.sim.now
        yield from self._data_preparation()
        self._tally.stages.data_prep += m.sim.now - t0

        # Fresh per-epoch trainable pools (each partition trained once).
        self._trainable_seeds = [s.copy() for s in self._seeds_by_part]
        prev_state: List[int] = []
        for state in self.states:
            if prev_state:
                t0 = m.sim.now
                yield from self._swap_partitions(prev_state, state)
                self._tally.stages.extract += m.sim.now - t0
            # else: the initial buffer was loaded during data preparation.
            # sim-race: ordered -- epoch procs never co-run (each is
            # awaited to completion before the next spawns).
            yield from self._train_state(list(state), epoch)
            prev_state = list(state)
        done_event.succeed(m.sim.now)

    # ------------------------------------------------------------------
    def _start_epoch(self, epoch: int):
        done = self.machine.sim.event()
        proc = self.machine.sim.process(self._epoch_proc(epoch, done),
                                        name="marius")
        return [done], [proc]

    def _finish_epoch(self, stats: EpochStats) -> None:
        stats.extra["data_prep_time"] = stats.stages.data_prep
        stats.extra["training_time"] = (stats.epoch_time
                                        - stats.stages.data_prep)
