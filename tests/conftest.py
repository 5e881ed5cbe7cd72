import importlib
import sys

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


def set_to_mask(ids) -> int:
    """The mask with bit v set for each id v: raw ids, not `Graph.mask`'s
    dense positions, which agree with them only when the ids are 0..n-1."""
    m = 0
    for v in ids:
        m |= 1 << v
    return m


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


class Probe:
    """Counts or refuses the calls of a gflownf function, named as in
    ``"opengraph.odd_mask"``. ``from .x import y`` copies ``y``, so the
    probe rebinds every loaded gflownf module that holds the object, as the
    tracer of ``perfbench/spans.py`` does; ``monkeypatch`` restores them."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    def _rebind(self, name, stand_in):
        module, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"gflownf.{module}"), attr)
        for mod_name, ns in list(sys.modules.items()):
            if mod_name.split(".")[0] == "gflownf":
                for key in [k for k, v in vars(ns).items() if v is original]:
                    self._monkeypatch.setattr(ns, key, stand_in)
        return original

    def calls(self, name) -> list[tuple]:
        """A list that gets the positional arguments of each later call."""
        calls = []
        original = self._rebind(name, lambda *a: calls.append(a) or original(*a))
        return calls

    def refuse(self, name, reason: str) -> None:
        """Make every later call raise ``AssertionError(reason)``."""

        def refusing(*args, **kwargs):
            raise AssertionError(reason)

        self._rebind(name, refusing)


@pytest.fixture
def probe(monkeypatch):
    return Probe(monkeypatch)


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

