"""The shared epoch template (``TrainingSystem.run_epochs``): one
contract that every training system meets."""

import pytest

from repro.baselines import Ginex
from repro.bench.runner import build_system
from repro.core import GNNDrive, MultiGPUGNNDrive
from repro.core.base import TrainConfig
from repro.errors import ConfigError, OutOfTimeError
from repro.graph import make_dataset
from repro.machine import Machine, MachineSpec

SYSTEMS = ("gnndrive-gpu", "gnndrive-cpu", "multigpu", "pyg+", "ginex",
           "mariusgnn", "in-memory")


def build(system):
    machine = Machine(MachineSpec.paper_scaled(host_gb=32, num_gpus=2))
    sut = build_system(system, machine, make_dataset("tiny", seed=0),
                       TrainConfig(batch_size=20),
                       num_workers=2 if system == "multigpu" else 1)
    return machine, sut


def feature_totals(sut):
    """Whole-run (reused, loaded) node counts from each system's own
    cumulative sources."""
    if isinstance(sut, MultiGPUGNNDrive):
        return (sum(w.feature_buffer.stat_reused for w in sut.workers),
                sum(w.feature_buffer.stat_loaded for w in sut.workers))
    if isinstance(sut, GNNDrive):
        return (sut.feature_buffer.stat_reused,
                sut.feature_buffer.stat_loaded)
    if isinstance(sut, Ginex):
        return sut.stat_feature_hits, sut.stat_feature_misses
    return 0, 0


@pytest.mark.parametrize("system", SYSTEMS)
def test_epoch_counters_are_per_epoch_deltas(system):
    m, sut = build(system)
    bytes0 = m.ssd.bytes_read
    hits0, miss0 = m.page_cache.hits, m.page_cache.misses
    reused0, loaded0 = feature_totals(sut)

    first = sut.run_epochs(2)
    assert [s.epoch for s in first] == [0, 1]
    stats = sut.run_epochs(1)
    assert [s.epoch for s in stats] == [0, 1, 2]
    assert all(s.num_batches > 0 for s in stats)

    reused, loaded = feature_totals(sut)
    assert sum(s.reused_nodes for s in stats) == reused - reused0
    assert sum(s.loaded_nodes for s in stats) == loaded - loaded0
    assert sum(s.bytes_read for s in stats) == m.ssd.bytes_read - bytes0
    assert sum(s.cache_hits for s in stats) == m.page_cache.hits - hits0
    assert sum(s.cache_misses for s in stats) == m.page_cache.misses - miss0
    sut.shutdown()


@pytest.mark.parametrize("system", SYSTEMS)
def test_time_budget_raises_out_of_time(system):
    _, sut = build(system)
    with pytest.raises(OutOfTimeError):
        sut.run_epochs(1, time_budget=1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(target_accuracy=0.5),              # no validation: never stops
    dict(target_accuracy=0.5, eval_every=0),
    dict(eval_every=-1),
])
def test_run_epochs_rejects_contradictory_arguments(kwargs):
    m, sut = build("gnndrive-gpu")
    with pytest.raises(ConfigError):
        sut.run_epochs(1, **kwargs)
    # Rejected before any work started.
    assert sut.epoch_stats == [] and m.sim.now == 0
