"""Gflow verification, extensivity and normal forms on one bitmask core.

A gflow assigns each measured vertex a corrector set drawn from the
non-inputs; it is valid when the plane condition holds at every vertex and
f(u) = g(u) | Odd(g(u)) has an acyclic dependency digraph (Browne, Kashefi,
Mhalla and Perdrix, NJP 2007). Each rule is defined once, on int bitmasks,
and shared by search, focusing and simulation: ``_PLANE_BITS``,
``_nf_excess`` and ``_off_sigma``. So is each precondition:
``_check_sigma``, ``_check_domain`` and ``_valid``, through which
``focus``, the promotions and ``corrective_maps`` raise ValueError on an
invalid gflow. Verification decides acyclicity with ``_dfs_order``, one
depth-first search on the masks, O(V) mask operations whatever the arc
count; it keeps a topological order, no layers. Layers come only from
``extensivity_order``, the Kahn peel ``_peel`` over successor lists,
O(V + E). Every pattern's schedule is that order of its x(u) | z(u),
which for a gflow's ``corrective_maps`` is f(u) \\ {u}: one peel per
``sim.pattern_from_gflow``. Verification peels only on a cycle, and
``_witness_cycle`` takes its witness from the vertices the peel leaves.
The enumerator in ``search.py`` prunes cycles as it assigns
vertices.

A gflow is verified once per open graph object. ``_masks`` builds the
(g(u), Odd(g(u))) masks and the codomain violations, ``_verify`` adds the
plane check and the order of one search, and each keeps its result in the
Gflow's memo for the last open graph it was checked against (compared by
``is``; only that one is kept). ``verify_gflow``, ``check_normal_form``,
``focus``, the promotions and ``corrective_maps`` (so also
``sim.pattern_from_gflow``) all read it, so a gflow checked against one
open graph object five times builds its masks and searches once. Only
``_masks`` and ``_verify`` fill the memo, from the gflow's own corrector
sets, so verification stays independent of the code that built the
gflow. ``Gflow.assignments`` and ``ExtendedOpenGraph.planes`` are
read-only views, so the memo cannot go stale.

A Gflow holds its corrector sets in one of two forms. ``Gflow(assignments)``
keeps frozensets of ids. ``Gflow._of_bits(graph, bits)``, which
``find_gflow``, ``brute_force_enumerate``, ``focus`` and the promotions
return, keeps the graph and one mask per bit position. It builds the id
sets only when ``assignments``, ``g[u]``, ``==``, ``repr`` or pickling
asks, and ``serialize_gflow`` writes ids straight from ascending
bits. ``_masks`` reads the bits as they are only when the gflow's graph
``is`` eog's graph: any other open graph, an equal copy included, goes
through the id sets and ``Graph.mask``. Either way it checks the domain
and the codomain and computes every Odd(g(u)) itself.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Iterable, Mapping
from functools import cached_property
from types import MappingProxyType

from .opengraph import (
    ExtendedOpenGraph,
    Graph,
    OpenGraphError,
    Plane,
    _Record,
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


def _off_sigma(eog: ExtendedOpenGraph, sigma: str) -> list[int]:
    """The measured non-inputs whose plane lacks sigma, in ascending order."""
    planes = eog.planes
    return sorted(u for u in eog.measured_non_inputs if not planes[u].contains(sigma))


class Gflow(_Record):
    """Map from each measured vertex to its corrector set.

    ``assignments`` is a read-only view; ``_masks`` and ``_verify`` keep
    their results for the last open graph in a memo that is not a field.
    A gflow of ``_of_bits`` holds its graph and a mask per bit position,
    and builds ``assignments`` on first use.
    """

    _fields = ("assignments",)
    # an ``_of_bits`` gflow's graph and {bit position: mask}; not fields
    _graph = _bits = None

    def __init__(self, assignments: Mapping[int, Iterable[int]]):
        assignments = {int(u): frozenset(s) for u, s in assignments.items()}
        # ``_memo``: (open graph, ``_masks`` pair, ``_verify`` triple or None)
        # of the last open graph this gflow was checked against; not a field
        self.__dict__.update(assignments=MappingProxyType(assignments), _memo=None)

    @classmethod
    def _of_bits(cls, graph: Graph, bits: dict[int, int]) -> Gflow:
        """The gflow whose corrector at ``graph.ids[i]`` has mask ``bits[i]``."""
        g = object.__new__(cls)
        g.__dict__.update(_graph=graph, _bits=MappingProxyType(bits), _memo=None)
        return g

    @cached_property
    def assignments(self) -> Mapping[int, frozenset[int]]:
        # reached only by an ``_of_bits`` gflow, whose ``__dict__`` lacks
        # ``assignments`` until its first use
        ids, members = self._graph.ids, self._graph.members
        return MappingProxyType({ids[i]: members(k) for i, k in self._bits.items()})

    def __reduce__(self):
        # a mapping proxy cannot be pickled; a copy starts with no memo
        return Gflow, (dict(self.assignments),)

    def __getitem__(self, u: int) -> frozenset[int]:
        return self.assignments[u]


def parse_gflow(text: str) -> Gflow:
    return _gflow_of(_load_json(text))


def _gflow_of(doc) -> Gflow:
    """The gflow of a parsed gflow document."""
    if not isinstance(doc, dict) or "g" not in doc:
        raise OpenGraphError('gflow document must be an object with a "g" map')
    return Gflow(_id_set_map(doc["g"], "g"))


def serialize_gflow(g: Gflow) -> str:
    return json.dumps({"g": _g_map(g)}, sort_keys=True)


def _g_map(g: Gflow) -> dict[str, list[int]]:
    """The "g" map of g's document: each id, as a string, to its sorted ids."""
    if g._bits is None:
        return {str(u): sorted(s) for u, s in g.assignments.items()}
    ids = g._graph.ids  # ascending bits name ascending ids
    return {str(ids[i]): [ids[j] for j in _positions(k)] for i, k in g._bits.items()}


def _positions(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


class DependencyOrder(_Record):
    """Layer assignment witnessing a strict partial order (lower layers first)."""

    _fields = ("layers",)

    def __init__(self, layers: Mapping[int, int]):
        self.__dict__.update(layers=dict(layers))

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
    depth, stuck = _peel(succ)
    if stuck:
        raise CycleError([graph.ids[i] for i in _witness_cycle(succ, stuck)])
    layers = dict(zip(graph.ids, depth))
    top = max(depth, default=0)
    for o in outputs:
        layers[o] = top
    return DependencyOrder(layers)


def _dfs_order(masks, white: int) -> tuple[int, ...] | None:
    """A topological order of f(u) = g(u) | Odd(g(u)) over the bits of white,
    or None when f has a cycle; ``masks`` maps every bit of white to its
    (g(u), Odd(g(u))), and arcs to other bits are ignored.

    One iterative depth-first search on masks, O(V) mask operations: the
    next child of the vertex on top of the stack is the lowest white bit of
    its f-mask. Every arc back into the stack leads to a vertex that was
    already on it (gray) when the arc's tail entered, so f has a cycle
    exactly when a vertex entering the stack has an f-mask that meets
    gray. The order is the reversed postorder, each u before f(u) \\ {u}.
    """
    gray, post = 0, []
    for root in masks:
        if not white >> root & 1:
            continue
        white ^= 1 << root
        gray |= 1 << root
        stack = [root]
        while stack:
            u = stack[-1]
            k, odd = masks[u]
            child = (k | odd) & white
            if not child:
                gray ^= 1 << u
                post.append(stack.pop())
                continue
            b = child & -child
            v = b.bit_length() - 1
            k, odd = masks[v]
            if (k | odd) & gray:
                return None
            white ^= b
            gray |= b
            stack.append(v)
    post.reverse()
    return tuple(post)


class Violation(_Record):
    _fields = ("vertex", "condition", "witness")

    def __init__(self, vertex: int, condition: str, witness: frozenset[int]):
        self.__dict__.update(vertex=vertex, condition=condition, witness=witness)


class VerificationReport(_Record):
    _fields = ("valid", "violations")

    def __init__(self, valid: bool, violations: tuple[Violation, ...]):
        self.__dict__.update(valid=valid, violations=violations)

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


def _masks(eog, g):
    """The codomain violations and the (g(u), Odd(g(u))) masks by bit position.

    A corrector set naming a non-vertex has no mask. The pair is kept in
    g's memo for the open graph object eog, so a second call is a lookup;
    the masks come as a read-only view, since every caller shares them.
    g's bits are read as masks only when g's graph is eog's graph object;
    another graph, even an equal one, is masked from g's id sets.
    """
    memo = g._memo
    if memo is not None and memo[0] is eog:
        return memo[1]
    graph = eog.graph
    ids = graph.ids
    if g._graph is graph:
        _check_domain(eog, [ids[i] for i in g._bits], "gflow")
        given = g._bits
    else:
        _check_domain(eog, g.assignments, "gflow")
        given = {}
        for u in eog.measured:
            try:
                given[graph.index[u]] = graph.mask(g[u])
            except OpenGraphError:  # an id outside the graph has no bit
                given[graph.index[u]] = None
    i_mask = graph.mask(eog.inputs)
    codomain, masks = [], {}
    for i in sorted(given):
        k, u = given[i], ids[i]
        if k is None:
            bad = g[u] - (eog.vertices - eog.inputs)
            codomain.append(Violation(u, "codomain", bad))
            continue
        if k & i_mask:
            codomain.append(Violation(u, "codomain", graph.members(k & i_mask)))
        masks[i] = (k, odd_mask(graph, k))
    found = tuple(codomain), MappingProxyType(masks)
    g.__dict__["_memo"] = (eog, found, None)
    return found


def _verify(eog, g):
    """The report, the masks of ``_masks`` and the order of ``_dfs_order``,
    kept in g's memo. A cycle's witness is ``_witness_cycle``'s, from the
    vertices one peel of the masks' successor lists leaves."""
    memo = g._memo
    if memo is not None and memo[0] is eog and memo[2] is not None:
        return memo[2]
    codomain, masks = found = _masks(eog, g)
    violations = list(codomain)
    graph, ids = eog.graph, eog.graph.ids
    for i, (k, odd) in masks.items():
        u = ids[i]
        plane = eog.planes[u]
        if not _plane_holds(plane, i, k, odd):
            violations.append(Violation(u, f"plane-{plane.value}", graph.members(odd)))
    order = None
    if len(masks) == len(eog.measured):
        order = _dfs_order(masks, ((1 << len(ids)) - 1) ^ graph.mask(eog.outputs))
        if order is None:
            succ = [[] for _ in ids]
            for i, (k, odd) in masks.items():
                succ[i] = _positions((k | odd) & ~(1 << i))
            cycle = [ids[i] for i in _witness_cycle(succ, _peel(succ)[1])]
            violations.append(Violation(cycle[0], "extensivity", frozenset(cycle)))
    result = VerificationReport(not violations, tuple(violations)), masks, order
    g.__dict__["_memo"] = (eog, found, result)
    return result


def _valid(eog, g):
    """The masks and the topological order of ``_verify``, bit positions of
    the measured vertices; ValueError unless g is a valid gflow."""
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


class CorrectiveMaps(_Record):
    """Signal-conditioned X and Z correction targets per measured vertex."""

    _fields = ("x", "z")

    def __init__(self, x: Mapping[int, Iterable[int]], z: Mapping[int, Iterable[int]]):
        self.__dict__.update(
            x={int(u): frozenset(s) for u, s in x.items()},
            z={int(u): frozenset(s) for u, s in z.items()},
        )


def _corrective_maps_of(doc) -> CorrectiveMaps:
    """The maps of a parsed corrective-map document."""
    if not isinstance(doc, dict) or not ("x" in doc and "z" in doc):
        raise OpenGraphError('corrective-map document needs "x" and "z" objects')
    return CorrectiveMaps(_id_set_map(doc["x"], "x"), _id_set_map(doc["z"], "z"))


def corrective_maps(eog: ExtendedOpenGraph, g: Gflow) -> CorrectiveMaps:
    """Derive the correction strategy x(u) = g(u)\\{u}, z(u) = Odd(g(u))\\{u},
    from the masks of ``_valid``."""
    masks, _ = _valid(eog, g)
    members, ids = eog.graph.members, eog.graph.ids
    x = {ids[i]: members(k & ~(1 << i)) for i, (k, _) in masks.items()}
    z = {ids[i]: members(odd & ~(1 << i)) for i, (_, odd) in masks.items()}
    return CorrectiveMaps(x, z)


def check_normal_form(eog: ExtendedOpenGraph, g: Gflow, sigma: str) -> bool:
    """Whether the sigma-specific corrector inclusion holds at every vertex.

    X bounds Odd(g(u)), Z bounds g(u), Y bounds their symmetric difference,
    each inside {u} union the outputs; any non-vertex corrector raises first.
    Reads the masks of ``_masks``, not the validity of ``_verify``.
    """
    _check_sigma(sigma)
    _, masks = _masks(eog, g)
    if len(masks) < len(eog.measured):  # name the non-vertex correctors
        for u in eog.measured:
            eog.graph.mask(g[u])
    out_mask = eog.graph.mask(eog.outputs)
    return not any(
        _nf_excess(sigma, i, k, odd, out_mask) for i, (k, odd) in masks.items()
    )
