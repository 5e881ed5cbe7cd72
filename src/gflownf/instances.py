"""Exhaustive and randomized generation of small extended open graphs."""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from .opengraph import ExtendedOpenGraph, Graph, Plane

PLANES = (Plane.XY, Plane.XZ, Plane.YZ)


def all_instances(max_vertices: int) -> Iterator[ExtendedOpenGraph]:
    """Every extended open graph on {0..n-1} for n up to max_vertices."""
    for n in range(max_vertices + 1):
        verts = frozenset(range(n))
        pairs = list(itertools.combinations(range(n), 2))
        subsets = [
            frozenset(c)
            for k in range(n + 1)
            for c in itertools.combinations(range(n), k)
        ]
        for edge_bits in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if edge_bits >> i & 1)
            graph = Graph(verts, edges)
            for outputs in subsets:
                measured = sorted(verts - outputs)
                for inputs in subsets:
                    for planes in itertools.product(PLANES, repeat=len(measured)):
                        yield ExtendedOpenGraph(
                            graph, inputs, outputs, dict(zip(measured, planes))
                        )


def random_instance(
    rng: random.Random,
    n: int,
    edge_prob: float = 0.5,
    *,
    force_input_xy: bool = False,
    xy_only: bool = False,
) -> ExtendedOpenGraph:
    """One random instance on n vertices; subsets drawn uniformly.

    force_input_xy pins measured inputs to the XY plane (otherwise most
    draws trivially lack a gflow); xy_only pins every plane.
    """
    verts = frozenset(range(n))
    edges = frozenset(
        p for p in itertools.combinations(range(n), 2) if rng.random() < edge_prob
    )
    outputs = frozenset(v for v in range(n) if rng.random() < 0.5)
    inputs = frozenset(v for v in range(n) if rng.random() < 0.5)
    planes = {}
    for v in verts - outputs:
        if xy_only or (force_input_xy and v in inputs):
            planes[v] = Plane.XY
        else:
            planes[v] = rng.choice(PLANES)
    return ExtendedOpenGraph(Graph(verts, edges), inputs, outputs, planes)
