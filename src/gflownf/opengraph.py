"""Open graphs with measurement planes and GF(2) vertex-set algebra.

Vertex sets are frozensets of non-negative integer ids. Hot paths work on
int bitmasks where bit i stands for the i-th smallest vertex, so a mask has
|V| bits whatever the ids; ``Graph.mask`` and ``Graph.members`` convert
between the two views.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property
from types import MappingProxyType


class OpenGraphError(ValueError):
    """Malformed open-graph document or violated structural invariant."""


class Plane(Enum):
    """Measurement plane of the Bloch sphere."""

    XY = "XY"
    XZ = "XZ"
    YZ = "YZ"

    def contains(self, axis: str) -> bool:
        """Whether the Pauli axis ("X", "Y" or "Z") lies in this plane."""
        return axis in self.value


class _Record:
    """An immutable record whose fields ``_fields`` names, in order.

    Each record's own ``__init__`` checks its arguments and stores the
    fields, and anything derived from them, in the instance ``__dict__``.
    Assigning or deleting an attribute raises AttributeError. Records
    compare and hash by their field tuples, only with records of their own
    class, and ``repr`` shows ``Name(field=value, ...)`` in field order.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Graph(_Record):
    """Simple undirected graph over non-negative integer vertex ids.

    Bit i of a vertex mask stands for ``ids[i]``, the i-th smallest vertex
    (``index`` inverts ``ids``), so a mask has |V| bits whatever the ids.
    """

    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        verts = frozenset(vertices)
        for v in verts:
            if not isinstance(v, int) or v < 0:
                raise OpenGraphError(
                    f"vertex ids must be non-negative integers, got {v!r}"
                )
        norm = set()
        for edge in edges:
            u, v = edge
            if u == v:
                raise OpenGraphError(f"self-loop at vertex {u}")
            if u not in verts or v not in verts:
                raise OpenGraphError(
                    f"edge ({u}, {v}) has an endpoint outside the vertex set"
                )
            norm.add((u, v) if u < v else (v, u))
        ids = tuple(sorted(verts))
        self.__dict__.update(
            vertices=verts,
            edges=frozenset(norm),
            ids=ids,
            index={v: i for i, v in enumerate(ids)},
        )

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """The neighbour mask of each vertex, by bit position."""
        index = self.index
        masks = [0] * len(index)
        for u, v in self.edges:
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        return tuple(masks)

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a vertex set, refusing members outside the graph."""
        index, m = self.index, 0
        try:
            for v in vertices:
                m |= 1 << index[v]
        except KeyError:
            bad = sorted({v, *vertices} - self.vertices)
            raise OpenGraphError(f"set members {bad} are not graph vertices") from None
        return m

    def members(self, mask: int) -> frozenset[int]:
        """The vertex set of a bitmask."""
        ids = self.ids
        out = []
        while mask:
            b = mask & -mask
            out.append(ids[b.bit_length() - 1])
            mask ^= b
        return frozenset(out)

    def neighbours(self, v: int) -> frozenset[int]:
        if v not in self.vertices:
            raise OpenGraphError(f"vertex {v} not in graph")
        return self.members(self.adjacency_masks[self.index[v]])


def odd_mask(graph: Graph, mask: int) -> int:
    """Bitmask form of the odd neighbourhood; linear over XOR."""
    adj = graph.adjacency_masks
    acc = 0
    while mask:
        b = mask & -mask
        acc ^= adj[b.bit_length() - 1]
        mask ^= b
    return acc


def odd_neighbourhood(graph: Graph, a: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to an odd number of members of ``a``."""
    return graph.members(odd_mask(graph, graph.mask(a)))


class ExtendedOpenGraph(_Record):
    """Open graph with input/output marks and a measurement-plane map.

    The plane map is total on the measured (non-output) vertices and
    undefined on outputs; ``planes`` is a read-only view of it. Instances
    are immutable; rewrites build new ones.
    """

    _fields = ("graph", "inputs", "outputs", "planes")

    def __init__(
        self,
        graph: Graph,
        inputs: Iterable[int],
        outputs: Iterable[int],
        planes: Mapping[int, Plane],
    ):
        inputs = frozenset(inputs)
        outputs = frozenset(outputs)
        verts = graph.vertices
        if not inputs <= verts:
            raise OpenGraphError(f"inputs {sorted(inputs - verts)} are not vertices")
        if not outputs <= verts:
            raise OpenGraphError(f"outputs {sorted(outputs - verts)} are not vertices")
        planes = dict(planes)
        for v, p in planes.items():
            if not isinstance(p, Plane):
                raise OpenGraphError(f"plane of vertex {v} must be a Plane, got {p!r}")
        measured = verts - outputs
        if set(planes) != measured:
            extra = sorted(set(planes) - measured)
            missing = sorted(measured - set(planes))
            raise OpenGraphError(
                f"plane map must cover exactly the measured vertices "
                f"(extra: {extra}, missing: {missing})"
            )
        self.__dict__.update(
            graph=graph, inputs=inputs, outputs=outputs, planes=MappingProxyType(planes)
        )

    def __reduce__(self):
        # a mapping proxy cannot be pickled
        planes = dict(self.planes)
        return ExtendedOpenGraph, (self.graph, self.inputs, self.outputs, planes)

    @property
    def vertices(self) -> frozenset[int]:
        return self.graph.vertices

    @cached_property
    def measured(self) -> frozenset[int]:
        return self.graph.vertices - self.outputs

    @cached_property
    def measured_non_inputs(self) -> frozenset[int]:
        return self.measured - self.inputs

    @property
    def input_defect(self) -> int:
        return len(self.outputs) - len(self.inputs)


def _is_id(v) -> bool:
    """A JSON integer; ``true``/``false`` are not vertex ids."""
    return isinstance(v, int) and not isinstance(v, bool)


def _unique_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        dups = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise OpenGraphError(f"object repeats keys {_quote(dups)}")
    return doc


def _quote(val) -> str:
    """A document value as JSON writes it, for an error message."""
    try:
        return json.dumps(val)
    except RecursionError:  # nested about as deep as ``_load_json`` allows
        return f"(a {type(val).__name__} nested too deep to quote)"


def _load_json(text: str):
    """The JSON value of a document; a key repeated in an object is an error."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise OpenGraphError(f"invalid JSON: {exc}") from exc


def _id_list(val, what: str, key: int | None = None) -> list[int]:
    """A JSON list of vertex ids, none of them a bool or listed twice: the
    document's ``what`` list, or the one at ``key`` of its ``what`` map.
    The error message names the list, and is built only on failure."""
    if not isinstance(val, list) or not all(_is_id(v) for v in val):
        problem = "must be a list of integers"
    elif len(set(val)) != len(val):
        dups = sorted(v for v, n in Counter(val).items() if n > 1)
        problem = f"lists ids more than once: {dups}"
    else:
        return val
    label = f'"{what}"' if key is None else f'"{what}" list of {key}'
    raise OpenGraphError(f"{label} {problem}")


def _id_map(raw, what: str, parse) -> dict:
    """{id: parse(id, value)} from a JSON object keyed by vertex ids.

    A key is the canonical decimal form of a non-negative id ("0", "17"),
    so no two keys can name one vertex: "01", "+1", " 1" and "1_0" fail.
    """
    if not isinstance(raw, dict):
        raise OpenGraphError(f'"{what}" must be an object keyed by vertex id')
    out = {}
    for key, val in raw.items():
        if not (key.isascii() and key.isdigit() and str(int(key)) == key):
            raise OpenGraphError(f'"{what}" key {_quote(key)} is not a vertex id')
        v = int(key)
        out[v] = parse(v, val)
    return out


def _id_set_map(raw, what: str) -> dict[int, frozenset[int]]:
    """A JSON object from vertex ids to id lists, such as a gflow's "g"."""
    return _id_map(raw, what, lambda v, val: frozenset(_id_list(val, what, v)))


def _plane(v, val) -> Plane:
    try:
        return Plane(val)
    except ValueError as exc:
        raise OpenGraphError(f"unknown plane {_quote(val)} at vertex {v}") from exc


def _angle(v, val) -> float:
    if not (_is_id(val) or isinstance(val, float)) or not 0 <= val < math.tau:
        raise OpenGraphError(f"angle at vertex {v} must lie in [0, 2*pi)")
    return float(val)


def parse_open_graph_document(text: str):
    """Parse a JSON open-graph document; returns (graph, angles-or-None)."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise OpenGraphError("document must be a JSON object")

    vertices = _id_list(doc.get("vertices"), "vertices")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise OpenGraphError('"edges" must be a list of vertex pairs')
    edges = set()
    for e in raw_edges:
        # a repeated id is left to Graph, which reports it as a self-loop
        if not (isinstance(e, list) and len(e) == 2 and _is_id(e[0]) and _is_id(e[1])):
            raise OpenGraphError(f"malformed edge {_quote(e)}")
        edges.add((e[0], e[1]))
    inputs = _id_list(doc.get("inputs"), "inputs")
    outputs = _id_list(doc.get("outputs"), "outputs")
    planes = _id_map(doc.get("planes", {}), "planes", _plane)

    graph = Graph(frozenset(vertices), frozenset(edges))
    eog = ExtendedOpenGraph(graph, frozenset(inputs), frozenset(outputs), planes)

    angles = None
    if "angles" in doc:
        angles = _id_map(doc["angles"], "angles", _angle)
        for v in angles:
            if v not in eog.measured:
                raise OpenGraphError(f"angle given for unmeasured vertex {v}")
    return eog, angles


def parse_open_graph(text: str) -> ExtendedOpenGraph:
    return parse_open_graph_document(text)[0]


def serialize_open_graph(eog: ExtendedOpenGraph, angles=None) -> str:
    return json.dumps(_open_graph_doc(eog, angles), sort_keys=True)


def _open_graph_doc(eog: ExtendedOpenGraph, angles=None) -> dict:
    """The document ``serialize_open_graph`` writes, before it is dumped."""
    doc = {
        "vertices": sorted(eog.vertices),
        "edges": [list(e) for e in sorted(eog.graph.edges)],
        "inputs": sorted(eog.inputs),
        "outputs": sorted(eog.outputs),
        "planes": {str(v): eog.planes[v].value for v in sorted(eog.measured)},
    }
    if angles is not None:
        doc["angles"] = {str(v): float(a) for v, a in sorted(angles.items())}
    return doc
