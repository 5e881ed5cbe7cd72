"""Gflow verification, extensivity and normal forms on one bitmask core.

A gflow assigns each measured vertex a corrector set drawn from the
non-inputs; it is valid when the plane condition holds at every vertex and
f(u) = g(u) | Odd(g(u)) has an acyclic dependency digraph (Browne, Kashefi,
Mhalla and Perdrix, NJP 2007). Each rule is defined once, on int bitmasks,
and shared by search, focusing and simulation: ``_PLANE_BITS``,
``_nf_excess`` (``_nf_holds`` over every vertex), ``_off_sigma`` and
``_f_order``. So is each precondition: ``_check_sigma``, ``_check_domain``
and ``_valid``, through which ``focus``, the promotions and
``corrective_maps`` raise ValueError on an invalid gflow. The Kahn peel
``_peel`` is the one acyclicity check, behind ``_f_order`` and
``extensivity_order``. It walks successor lists of bit positions,
O(V + E), since a traversal visits each arc once; the GF(2) algebra alone
keeps bitmasks. ``_valid`` returns the masks and the order of one peel,
from which ``sim.pattern_from_gflow`` takes both its corrections and its
schedule. The enumerator in ``search.py`` does not peel, it prunes
cycles as it assigns vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

from .opengraph import (
    ExtendedOpenGraph,
    Graph,
    OpenGraphError,
    Plane,
    _id_set_map,
    _load_json,
    odd_mask,
)

AXES = ("X", "Y", "Z")

# (u in g(u), u in Odd(g(u))) as the plane of u demands.
_PLANE_BITS = {Plane.XY: (0, 1), Plane.XZ: (1, 1), Plane.YZ: (1, 0)}


def _plane_holds(plane: Plane, i: int, g: int, odd: int) -> bool:
    """The gflow condition at bit i, for corrector mask g and odd = Odd(g)."""
    return (g >> i & 1, odd >> i & 1) == _PLANE_BITS[plane]


def _check_sigma(sigma: str, allowed: tuple[str, ...] = AXES) -> None:
    if sigma not in allowed:
        raise ValueError(f"sigma must be one of {allowed}, got {sigma!r}")


def _nf_excess(sigma: str, i: int, g: int, odd: int, out_mask: int) -> int:
    """u's sigma-set (Odd(g), g ^ Odd(g) or g) outside {u} + outputs, u at bit i."""
    s = odd if sigma == "X" else odd ^ g if sigma == "Y" else g
    return s & ~(out_mask | 1 << i)


def _nf_holds(
    sigma: str, triples: Iterable[tuple[int, int, int]], out_mask: int
) -> bool:
    """Whether no (i, g, Odd(g)) of ``triples`` has a ``_nf_excess``; reads
    them only up to the first that does."""
    return not any(_nf_excess(sigma, i, g, odd, out_mask) for i, g, odd in triples)


def _off_sigma(eog: ExtendedOpenGraph, sigma: str) -> list[int]:
    """The measured non-inputs whose plane lacks sigma, in ascending order."""
    planes = eog.planes
    return sorted(u for u in eog.measured_non_inputs if not planes[u].contains(sigma))


@dataclass(frozen=True)
class Gflow:
    """Map from each measured vertex to its corrector set."""

    assignments: Mapping[int, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self,
            "assignments",
            {int(u): frozenset(s) for u, s in self.assignments.items()},
        )

    def __getitem__(self, u: int) -> frozenset[int]:
        return self.assignments[u]

    def domain(self) -> frozenset[int]:
        return frozenset(self.assignments)


def parse_gflow(text: str) -> Gflow:
    doc = _load_json(text)
    if not isinstance(doc, dict) or "g" not in doc:
        raise OpenGraphError('gflow document must be an object with a "g" map')
    return Gflow(_id_set_map(doc["g"], "g"))


def serialize_gflow(g: Gflow) -> str:
    doc = {"g": {str(u): sorted(s) for u, s in g.assignments.items()}}
    return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class DependencyOrder:
    """Layer assignment witnessing a strict partial order (lower layers first)."""

    layers: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "layers", dict(self.layers))

    def schedule(self, vertices: Iterable[int]) -> tuple[int, ...]:
        """Linear extension over the given vertices, ties broken by id."""
        return tuple(sorted(vertices, key=lambda v: (self.layers[v], v)))


class CycleError(ValueError):
    """Extensivity failure: the dependency digraph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("dependency cycle: " + " -> ".join(map(str, self.cycle)))


def _peel(succ: list[list[int]]) -> tuple[list[int] | None, set[int]]:
    """Kahn's algorithm, linear in vertices plus arcs u -> v, v in succ[u].

    Vertices are the positions of succ, and no list holds its own position.
    Returns (depth, set()), depth[v] the longest path ending at v, or (None,
    the vertices left unpeeled) on a cycle; neither depends on the peel order.
    """
    indeg = [0] * len(succ)
    for vs in succ:
        for v in vs:
            indeg[v] += 1
    depth = [0] * len(succ)
    ready = [v for v, d in enumerate(indeg) if not d]
    for u in ready:
        du = depth[u] + 1
        for v in succ[u]:
            if depth[v] < du:
                depth[v] = du
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    if len(ready) == len(succ):
        return depth, set()
    return None, {v for v, d in enumerate(indeg) if d}


def _witness_cycle(succ, stuck):
    # From the lowest unpeeled vertex, step to the lowest unpeeled
    # predecessor (every one has some) until a vertex repeats.
    pred = {v: [] for v in stuck}
    for u in stuck:
        for v in succ[u]:
            if v in stuck:
                pred[v].append(u)
    path = [min(stuck)]
    seen = {path[0]: 0}
    while True:
        nxt = min(pred[path[-1]])
        if nxt in seen:
            return list(reversed(path[seen[nxt]:]))
        seen[nxt] = len(path)
        path.append(nxt)


def _order(ids, succ: list[list[int]], outputs) -> DependencyOrder:
    """Depth layers of the successor lists over the positions of ids,
    outputs lifted to the top one."""
    depth, stuck = _peel(succ)
    if stuck:
        raise CycleError([ids[i] for i in _witness_cycle(succ, stuck)])
    layers = dict(zip(ids, depth))
    top = max(depth, default=0)
    for o in outputs:
        layers[o] = top
    return DependencyOrder(layers)


def extensivity_order(
    graph: Graph, outputs: Iterable[int], f: Mapping[int, Iterable[int]]
) -> DependencyOrder:
    """Layer the vertices so every v in f(u)\\{u} sits strictly above u.

    Raises CycleError (carrying one witness cycle) when no such order
    exists. Outputs are lifted to the shared maximal layer.
    """
    index = graph.index
    succ = [[] for _ in index]
    for u, image in f.items():
        i = index.get(u)
        if i is None:
            raise OpenGraphError(f"map is keyed by unknown vertex {u}")
        for v in image:
            j = index.get(v)
            if j is None:
                raise OpenGraphError(f"image of {u} contains unknown vertex {v}")
            if j != i:
                succ[i].append(j)
    return _order(graph.ids, succ, outputs)


def _f_order(eog: ExtendedOpenGraph, masks) -> DependencyOrder:
    """The order of f(u) = g(u) | Odd(g(u)); CycleError when g is not extensive.

    ``masks`` maps each measured u's bit position to (g(u), Odd(g(u))).
    """
    succ = [[] for _ in eog.graph.ids]
    for i, (k, odd) in masks.items():
        m, row = (k | odd) & ~(1 << i), succ[i]
        while m:
            b = m & -m
            row.append(b.bit_length() - 1)
            m ^= b
    return _order(eog.graph.ids, succ, eog.outputs)


@dataclass(frozen=True)
class Violation:
    vertex: int
    condition: str
    witness: frozenset[int]


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {
                    "vertex": v.vertex,
                    "condition": v.condition,
                    "witness": sorted(v.witness),
                }
                for v in self.violations
            ],
        }


def verify_gflow(eog: ExtendedOpenGraph, g: Gflow) -> VerificationReport:
    """Check codomain, extensivity and the per-plane membership conditions.

    A mismatch between the gflow's domain and the measured vertices is a
    usage error and raises; condition failures come back as violations.
    """
    return _verify(eog, g)[0]


def _check_domain(eog: ExtendedOpenGraph, keys: Collection[int], what: str) -> None:
    if frozenset(keys) != eog.measured:
        raise ValueError(
            f"{what} must assign exactly the measured vertices "
            f"{sorted(eog.measured)}, got {sorted(keys)}"
        )


def _verify(eog, g):
    """The report, the (g(u), Odd(g(u))) masks by bit position, and the order."""
    _check_domain(eog, g.domain(), "gflow")
    measured = eog.measured
    violations = []
    graph, ids = eog.graph, eog.graph.ids
    i_mask = graph.mask(eog.inputs)
    masks = {}
    for u in sorted(measured):
        try:
            k = graph.mask(g[u])
        except OpenGraphError:  # an id outside the graph has no bit
            bad = g[u] - (eog.vertices - eog.inputs)
            violations.append(Violation(u, "codomain", bad))
            continue
        if k & i_mask:
            violations.append(Violation(u, "codomain", graph.members(k & i_mask)))
        masks[graph.index[u]] = (k, odd_mask(graph, k))
    for i, (k, odd) in masks.items():
        u = ids[i]
        plane = eog.planes[u]
        if not _plane_holds(plane, i, k, odd):
            violations.append(Violation(u, f"plane-{plane.value}", graph.members(odd)))
    order = None
    if len(masks) == len(measured):
        try:
            order = _f_order(eog, masks)
        except CycleError as exc:
            violations.append(
                Violation(exc.cycle[0], "extensivity", frozenset(exc.cycle))
            )
    return VerificationReport(not violations, tuple(violations)), masks, order


def _valid(eog, g):
    """The masks and order of ``_verify``; ValueError unless g is a valid gflow."""
    report, masks, order = _verify(eog, g)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(
            f"not a valid gflow: {first.condition} violated at vertex {first.vertex}"
        )
    return masks, order


def check_input_planes(eog: ExtendedOpenGraph) -> bool:
    """Necessary for gflow existence: measured inputs sit in the XY plane."""
    planes = eog.planes  # keyed by exactly the measured vertices
    for u in eog.inputs:
        if planes.get(u, Plane.XY) is not Plane.XY:
            return False
    return True


@dataclass(frozen=True)
class CorrectiveMaps:
    """Signal-conditioned X and Z correction targets per measured vertex."""

    x: Mapping[int, frozenset[int]]
    z: Mapping[int, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self, "x", {int(u): frozenset(s) for u, s in self.x.items()}
        )
        object.__setattr__(
            self, "z", {int(u): frozenset(s) for u, s in self.z.items()}
        )


def parse_corrective_maps(text: str) -> CorrectiveMaps:
    doc = _load_json(text)
    if not isinstance(doc, dict) or not ("x" in doc and "z" in doc):
        raise OpenGraphError('corrective-map document needs "x" and "z" objects')
    return CorrectiveMaps(_id_set_map(doc["x"], "x"), _id_set_map(doc["z"], "z"))


def corrective_maps(eog: ExtendedOpenGraph, g: Gflow) -> CorrectiveMaps:
    """Derive the correction strategy x(u) = g(u)\\{u}, z(u) = Odd(g(u))\\{u}."""
    return _corrections(eog, _valid(eog, g)[0])


def _corrections(eog, masks) -> CorrectiveMaps:
    """``corrective_maps`` from the (g(u), Odd(g(u))) masks of ``_valid``."""
    members, ids = eog.graph.members, eog.graph.ids
    x = {ids[i]: members(k & ~(1 << i)) for i, (k, _) in masks.items()}
    z = {ids[i]: members(odd & ~(1 << i)) for i, (_, odd) in masks.items()}
    return CorrectiveMaps(x, z)


def check_normal_form(eog: ExtendedOpenGraph, g: Gflow, sigma: str) -> bool:
    """Whether the sigma-specific corrector inclusion holds at every vertex.

    X bounds Odd(g(u)), Z bounds g(u), Y bounds their symmetric difference,
    each inside {u} union the outputs; any non-vertex corrector raises first.
    """
    _check_sigma(sigma)
    _check_domain(eog, g.domain(), "gflow")
    graph = eog.graph
    masks = {graph.index[u]: graph.mask(g[u]) for u in eog.measured}
    out_mask = graph.mask(eog.outputs)
    return _nf_holds(
        sigma, ((i, k, odd_mask(graph, k)) for i, k in masks.items()), out_mask
    )
