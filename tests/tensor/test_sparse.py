"""The CSR aggregation operator against a scipy.sparse reference.

The reference builds each operator the way scipy users do — COO
entries converted to CSR, transpose materialised for the backward
pass — and ``spmm`` must match it bit for bit, forward and backward.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor.sparse as sparse_mod
from repro.graph import make_dataset
from repro.models.fullgraph import full_graph_subgraph
from repro.sampling import LayerAdj, NeighborSampler
from repro.tensor import CSROperator, Tensor, no_grad, spmm

KINDS = ("mean", "sum", "gcn")


def reference_matrix(adj: LayerAdj, kind: str) -> sp.csr_matrix:
    """The scipy COO -> CSR operator of *kind* for *adj*."""
    dst, src = adj.dst_pos, adj.src_pos
    shape = (adj.num_dst, adj.num_src)
    if kind == "mean":
        deg = np.bincount(dst, minlength=adj.num_dst).astype(np.float32)
        w = 1.0 / np.maximum(deg[dst], 1.0)
        return sp.csr_matrix((w, (dst, src)), shape=shape)
    if kind == "sum":
        w = np.ones(len(src), dtype=np.float32)
        return sp.csr_matrix((w, (dst, src)), shape=shape)
    d_dst = np.bincount(dst, minlength=adj.num_dst).astype(np.float32)
    d_src = np.bincount(src, minlength=adj.num_src).astype(np.float32)
    w = 1.0 / np.sqrt((d_dst[dst] + 1.0) * (d_src[src] + 1.0))
    loops = np.arange(adj.num_dst, dtype=np.int64)
    rows = np.concatenate([dst, loops])
    cols = np.concatenate([src, loops])
    vals = np.concatenate([w, 1.0 / (d_dst + 1.0)]).astype(np.float32)
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def assert_matches_reference(adj: LayerAdj, kind: str,
                             rng: np.random.Generator, dim: int = 3):
    ref = reference_matrix(adj, kind)
    x_data = rng.standard_normal((adj.num_src, dim)).astype(np.float32)
    g = rng.standard_normal((adj.num_dst, dim)).astype(np.float32)
    x = Tensor(x_data, requires_grad=True)
    out = spmm(adj.operator(kind), x)
    assert out.data.dtype == np.float32
    assert np.array_equal(out.data,
                          np.asarray(ref @ x_data, dtype=np.float32))
    out.backward(g)
    assert np.array_equal(x.grad, np.asarray(ref.T.tocsr() @ g))


@st.composite
def layer_adjs(draw):
    num_src = draw(st.integers(1, 12))
    num_dst = draw(st.integers(0, num_src))
    num_edges = draw(st.integers(0, 40)) if num_dst else 0
    src = draw(st.lists(st.integers(0, num_src - 1), min_size=num_edges,
                        max_size=num_edges))
    dst = draw(st.lists(st.integers(0, max(0, num_dst - 1)),
                        min_size=num_edges, max_size=num_edges))
    # Few distinct positions make duplicate edges and empty rows common;
    # the lists come out in arbitrary (unsorted) dst order.
    return LayerAdj(np.array(src, dtype=np.int64),
                    np.array(dst, dtype=np.int64), num_src, num_dst)


@settings(max_examples=150, deadline=None)
@given(adj=layer_adjs(), seed=st.integers(0, 2**16))
def test_operator_matches_scipy_reference(adj, seed):
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        assert_matches_reference(adj, kind, rng)


def test_operator_edge_cases_match_reference():
    rng = np.random.default_rng(0)
    cases = [
        LayerAdj(np.empty(0, np.int64), np.empty(0, np.int64), 4, 2),
        LayerAdj(np.array([1, 1, 1, 0]), np.array([0, 0, 0, 0]), 3, 2),
        LayerAdj(np.array([2, 0, 1, 2]), np.array([1, 0, 1, 1]), 3, 2),
        # Sampled self edges collide with the GCN self-loops.
        LayerAdj(np.array([0, 0, 1, 1, 0]), np.array([0, 0, 1, 1, 1]), 2, 2),
    ]
    for adj in cases:
        for kind in KINDS:
            assert_matches_reference(adj, kind, rng)


def test_operator_matches_reference_on_sampled_and_full_graphs():
    ds = make_dataset("tiny", seed=0)
    sampler = NeighborSampler(ds.graph, (10, 5, 5), np.random.default_rng(3))
    batches = np.random.default_rng(4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        seeds = batches.choice(ds.train_idx, size=16, replace=False)
        for adj in sampler.sample(seeds).layers:
            for kind in KINDS:
                assert_matches_reference(adj, kind, rng)
    full = full_graph_subgraph(ds.graph, 2, train_idx=ds.train_idx)
    for adj in full.layers:
        for kind in KINDS:
            assert_matches_reference(adj, kind, rng)


def test_operator_is_cached_per_kind():
    adj = LayerAdj(np.array([0, 1]), np.array([0, 0]), 2, 1)
    assert adj.operator("mean") is adj.operator("mean")
    assert adj.operator("mean") is not adj.operator("sum")
    with pytest.raises(ValueError):
        adj.operator("max")


def test_no_grad_forward_builds_no_backward():
    adj = LayerAdj(np.array([0, 1]), np.array([0, 0]), 2, 1)
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with no_grad():
        out = spmm(adj.operator("mean"), x)
    assert not out.requires_grad


class _KernelCalled:
    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} reached with invalid input")


def test_invalid_operands_raise_before_the_kernel(monkeypatch):
    op = CSROperator.from_coo(np.array([0, 1]), np.array([1, 0]),
                              np.array([1.0, 2.0]), (2, 3))
    monkeypatch.setattr(sparse_mod, "_sparsetools", _KernelCalled())
    i64 = np.array([0, 1, 2], dtype=np.int64)
    one = np.array([0, 1], dtype=np.int64)
    f32 = np.ones(2, dtype=np.float32)
    with pytest.raises(TypeError):      # int32 index pointer
        CSROperator(i64.astype(np.int32), one, f32, (2, 3))
    with pytest.raises(TypeError):      # float64 values
        CSROperator(i64, one, f32.astype(np.float64), (2, 3))
    with pytest.raises(ValueError):     # indptr length != rows + 1
        CSROperator(i64, one, f32, (3, 3))
    with pytest.raises(ValueError):     # fewer indices than indptr[-1]
        CSROperator(i64, one[:1], f32, (2, 3))
    with pytest.raises(ValueError):     # non-contiguous values
        CSROperator(i64, one, np.ones(4, dtype=np.float32)[::2], (2, 3))
    with pytest.raises(ValueError):     # decreasing indptr
        CSROperator(np.array([0, 2, 1]), one[:1], f32[:1], (2, 3))
    with pytest.raises(ValueError):     # column index out of range
        CSROperator(i64, np.array([0, 3]), f32, (2, 3))
    with pytest.raises(ValueError):     # row index out of range
        CSROperator.from_coo(np.array([0, 2]), one, f32, (2, 3))
    with pytest.raises(ValueError):     # negative row index
        CSROperator.from_coo(np.array([-1, 0]), one, f32, (2, 3))
    with pytest.raises(ValueError):     # x rows != operator columns
        spmm(op, Tensor(np.ones((2, 4), dtype=np.float32)))
    with pytest.raises(ValueError):     # 1-D dense operand
        spmm(op, Tensor(np.ones(3, dtype=np.float32)))
    with pytest.raises(TypeError):      # integer dense operand
        spmm(op, Tensor(np.ones((3, 4), dtype=np.int64)))
    with pytest.raises(ValueError):     # gradient rows != operator rows
        op.rmatmul(np.ones((3, 4), dtype=np.float32))
    with pytest.raises(TypeError):      # a scipy matrix is not an operator
        spmm(sp.csr_matrix((2, 3), dtype=np.float32),
             Tensor(np.ones((3, 4), dtype=np.float32)))
