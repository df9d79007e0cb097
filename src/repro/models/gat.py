"""GAT (Veličković et al., 2018) with configurable attention heads.

Per layer and head:
  h = W_k . x  (all source nodes)
  e_(u->v) = LeakyReLU(a_src_k . h_u + a_dst_k . h_v)
  alpha    = softmax over each destination's in-edges
  out_v    = sum_u alpha_(u->v) h_u + h_v_self

Hidden layers concatenate head outputs (the paper's default); the final
layer averages them.  Attention is the expensive part on CPU — the cost
model charges its edge-wise ops at low CPU efficiency, reproducing the
paper's 8-12x CPU/GPU gap for GAT (§5.1).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.models.module import Linear, Module, Parameter, glorot
from repro.sampling.subgraph import SampledSubgraph
from repro.tensor import (
    Tensor,
    add,
    concat_cols,
    edge_aggregate,
    edge_score,
    elu,
    leaky_relu,
    mul_scalar,
    prefix_rows,
    segment_softmax,
)


class GATHead(Module):
    """One attention head: projection + attention vectors."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 negative_slope: float = 0.2):
        super().__init__()
        self.lin = self.add_child("lin", Linear(in_dim, out_dim, rng, bias=False))
        self.att_src = self.register("att_src",
                                     Parameter(glorot((out_dim, 1), rng).ravel()))
        self.att_dst = self.register("att_dst",
                                     Parameter(glorot((out_dim, 1), rng).ravel()))
        self.negative_slope = negative_slope

    def __call__(self, h_src_in: Tensor, layer_adj) -> Tensor:
        h = self.lin(h_src_in)                       # (num_src, out)
        h_dst = prefix_rows(h, layer_adj.num_dst)
        if layer_adj.num_edges == 0:
            return h_dst
        scores = edge_score(h, h_dst, self.att_src, self.att_dst,
                            layer_adj.src_pos, layer_adj.dst_pos)
        scores = leaky_relu(scores, self.negative_slope)
        alpha = segment_softmax(scores, layer_adj.dst_pos, layer_adj.num_dst)
        agg = edge_aggregate(alpha, h, layer_adj.src_pos, layer_adj.dst_pos,
                             layer_adj.num_dst)
        return add(agg, h_dst)


class GATLayer(Module):
    """Multi-head attention layer: concat (hidden) or average (output)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 heads: int = 1, concat: bool = True,
                 negative_slope: float = 0.2):
        super().__init__()
        if heads < 1:
            raise ValueError("heads must be >= 1")
        if concat and out_dim % heads:
            raise ValueError(
                f"out_dim {out_dim} not divisible by {heads} heads")
        self.heads = heads
        self.concat = concat
        head_dim = out_dim // heads if concat else out_dim
        self.head_modules: List[GATHead] = [
            self.add_child(f"head{k}",
                           GATHead(in_dim, head_dim, rng, negative_slope))
            for k in range(heads)
        ]

    def __call__(self, h_src_in: Tensor, layer_adj) -> Tensor:
        outs = [head(h_src_in, layer_adj) for head in self.head_modules]
        if len(outs) == 1:
            return outs[0]
        if self.concat:
            result = outs[0]
            for o in outs[1:]:
                result = concat_cols(result, o)
            return result
        total = outs[0]
        for o in outs[1:]:
            total = add(total, o)
        return mul_scalar(total, 1.0 / len(outs))


class GAT(Module):
    kind = "gat"

    def __init__(self, in_dim: int, hidden_dim: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator, heads: int = 1):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = num_layers
        self.heads = heads
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        self.layers = []
        for i in range(num_layers):
            last = i == num_layers - 1
            self.layers.append(self.add_child(
                f"layer{i}",
                GATLayer(dims[i], dims[i + 1], rng,
                         heads=heads, concat=not last)))

    def __call__(self, features: Tensor, subgraph: SampledSubgraph) -> Tensor:
        if len(subgraph.layers) != self.num_layers:
            raise ValueError(
                f"subgraph has {len(subgraph.layers)} hops but model has "
                f"{self.num_layers} layers")
        h = features
        for i, layer_adj in enumerate(subgraph.layers):
            h = self.layers[i](h, layer_adj)
            if i < self.num_layers - 1:
                h = elu(h)
        return h
