"""GCN (Kipf & Welling, 2017) on sampled subgraphs.

Layer ``l``:  h_dst = ReLU(Â . h_src . W) with Â the symmetric-normalised
operator over sampled edges plus self-loops (sampled degrees stand in for
full degrees, the standard mini-batch GCN approximation).
"""

from __future__ import annotations

import numpy as np

from repro.models.module import Linear, Module
from repro.sampling.subgraph import SampledSubgraph
from repro.tensor import Tensor, relu, spmm


class GCNLayer(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.lin = self.add_child("lin", Linear(in_dim, out_dim, rng))

    def __call__(self, h_src: Tensor, layer_adj) -> Tensor:
        return self.lin(spmm(layer_adj.operator("gcn"), h_src))


class GCN(Module):
    kind = "gcn"

    def __init__(self, in_dim: int, hidden_dim: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = num_layers
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        self.layers = [
            self.add_child(f"layer{i}", GCNLayer(dims[i], dims[i + 1], rng))
            for i in range(num_layers)
        ]

    def __call__(self, features: Tensor, subgraph: SampledSubgraph) -> Tensor:
        if len(subgraph.layers) != self.num_layers:
            raise ValueError(
                f"subgraph has {len(subgraph.layers)} hops but model has "
                f"{self.num_layers} layers")
        h = features
        for i, layer_adj in enumerate(subgraph.layers):
            h = self.layers[i](h, layer_adj)
            if i < self.num_layers - 1:
                h = relu(h)
        return h
