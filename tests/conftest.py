import random

import pytest

from gflownf import (
    ExtendedOpenGraph,
    Gflow,
    Graph,
    Plane,
    check_input_planes,
    find_gflow,
)
from gflownf.instances import all_instances

PATH_DOC = (
    '{"vertices":[1,2,3], "edges":[[1,2],[2,3]], "inputs":[1], "outputs":[3],'
    ' "planes":{"1":"XY","2":"XY"}, "angles":{"1":0.3,"2":1.1}}'
)


@pytest.fixture
def path_eog():
    """Three-vertex path: input 1, output 3, both measurements in XY."""
    graph = Graph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))
    return ExtendedOpenGraph(
        graph, frozenset({1}), frozenset({3}), {1: Plane.XY, 2: Plane.XY}
    )


@pytest.fixture
def path_gflow():
    return Gflow({1: {2}, 2: {3}})


@pytest.fixture
def star_eog():
    """Star 1-2, 1-3: input 1, output 3, vertex 2 measured in YZ."""
    graph = Graph(frozenset({1, 2, 3}), frozenset({(1, 2), (1, 3)}))
    return ExtendedOpenGraph(
        graph, frozenset({1}), frozenset({3}), {1: Plane.XY, 2: Plane.YZ}
    )


@pytest.fixture
def no_parity_table(monkeypatch):
    """The simulator's numpy, except that a uint8 array, the parity table
    ``prepare`` signs the register from, cannot be allocated."""
    import numpy as np

    import gflownf.sim as sim

    class NoParityTable:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, dtype=float, **kwargs):
            if np.dtype(dtype) == np.uint8:
                raise MemoryError
            return np.empty(shape, dtype=dtype, **kwargs)

    monkeypatch.setattr(sim, "np", NoParityTable())


@pytest.fixture(scope="session")
def small_sweep():
    """Every |V| <= 4 instance possessing a gflow, paired with one."""
    data = []
    for eog in all_instances(4):
        if not check_input_planes(eog):
            continue
        g = find_gflow(eog)
        if g is not None:
            data.append((eog, g))
    return data


def random_subset(rng: random.Random, items, prob=0.5):
    return frozenset(v for v in items if rng.random() < prob)
