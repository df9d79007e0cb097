"""The position-table relabel against the sort-and-search reference.

``reference_sample`` is the sampler's relabel step written with
``np.setdiff1d`` and ``argsort``/``searchsorted``; it draws through the
same ``_draw`` hook, so an identically seeded sampler must produce
exactly the same subgraphs through ``sample``.
"""

import numpy as np
import pytest

from repro.graph import csc_from_edges, make_dataset
from repro.sampling import (
    DegreeBiasedSampler,
    NeighborSampler,
    WeightedNeighborSampler,
)


def reference_sample(sampler, seeds):
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    graph = sampler.graph
    node_set = seeds
    layers, frontiers = [], []
    for fanout in sampler.fanouts:
        frontiers.append(node_set)
        starts, ends = graph.neighbor_slices(node_set)
        has_nb = (ends - starts) > 0
        if has_nb.any():
            active_pos = np.nonzero(has_nb)[0]
            gather = sampler._draw(active_pos, starts, ends, fanout)
            src_global = graph.indices[gather].reshape(-1)
            dst_pos = np.repeat(active_pos, fanout)
        else:
            src_global = np.empty(0, dtype=np.int64)
            dst_pos = np.empty(0, dtype=np.int64)
        new_nodes = np.setdiff1d(src_global, node_set)
        inner = np.concatenate([node_set, new_nodes])
        order = np.argsort(inner, kind="stable")
        src_pos = order[np.searchsorted(inner, src_global, sorter=order)]
        layers.append((src_pos, dst_pos, len(inner), len(node_set)))
        node_set = inner
    return node_set, layers[::-1], frontiers


def make_samplers(kind, graph, fanouts, seed):
    def build():
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            return NeighborSampler(graph, fanouts, rng)
        if kind == "weighted":
            weights = np.random.default_rng(99).random(graph.num_nodes) + 0.1
            return WeightedNeighborSampler(graph, fanouts, rng, weights)
        return DegreeBiasedSampler(graph, fanouts, rng, alpha=0.75)
    return build(), build()


def assert_same(sub, ref):
    all_nodes, layers, frontiers = ref
    assert np.array_equal(sub.all_nodes, all_nodes)
    assert sub.all_nodes.dtype == np.int64
    assert len(sub.layers) == len(layers)
    for got, (src_pos, dst_pos, num_src, num_dst) in zip(sub.layers, layers):
        assert np.array_equal(got.src_pos, src_pos)
        assert np.array_equal(got.dst_pos, dst_pos)
        assert got.src_pos.dtype == got.dst_pos.dtype == np.int64
        assert (got.num_src, got.num_dst) == (num_src, num_dst)
    assert len(sub.hop_frontiers) == len(frontiers)
    for got, want in zip(sub.hop_frontiers, frontiers):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["uniform", "weighted", "degree"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sample_matches_reference(kind, seed):
    ds = make_dataset("tiny", seed=0)
    fast, ref = make_samplers(kind, ds.graph, (5, 4, 3), seed)
    batches = np.random.default_rng(seed + 100)
    for batch_size in (1, 2, 50, 1, 50):
        seeds = batches.choice(ds.train_idx, size=batch_size, replace=False)
        assert_same(fast.sample(seeds), reference_sample(ref, seeds))
        assert (fast._position == -1).all()


def test_sample_matches_reference_with_sinks():
    # Node 3 has no in-neighbors, so some hops expand nothing.
    g = csc_from_edges(np.array([1, 2, 3, 1]), np.array([0, 1, 2, 2]),
                       num_nodes=5)
    fast, ref = make_samplers("uniform", g, (2, 2, 2), 4)
    for seeds in ([3], [4], [0, 4], [0, 1, 2, 3, 4]):
        assert_same(fast.sample(np.array(seeds)),
                    reference_sample(ref, np.array(seeds)))
        assert (fast._position == -1).all()


class _FailingSampler(NeighborSampler):
    """Raises from the draw hook on its second hop."""

    def _draw(self, active_pos, starts, ends, fanout):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("draw failed")
        return super()._draw(active_pos, starts, ends, fanout)


def test_position_table_reset_when_draw_raises():
    ds = make_dataset("tiny", seed=0)
    s = _FailingSampler(ds.graph, (5, 5, 5), np.random.default_rng(0))
    s.calls = 0
    with pytest.raises(RuntimeError):
        s.sample(ds.train_idx[:20])
    assert (s._position == -1).all()
    s.calls = 10                       # later batches draw normally
    ref = NeighborSampler(ds.graph, (5, 5, 5), np.random.default_rng(1))
    s.rng = np.random.default_rng(1)
    assert_same(s.sample(ds.train_idx[:20]),
                reference_sample(ref, ds.train_idx[:20]))


def test_out_of_range_seeds_rejected():
    ds = make_dataset("tiny", seed=0)
    s = NeighborSampler(ds.graph, (3,), np.random.default_rng(0))
    for bad in ([-1], [ds.graph.num_nodes]):
        with pytest.raises(ValueError):
            s.sample(np.array(bad))
        assert (s._position == -1).all()
