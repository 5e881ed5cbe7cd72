"""The package's thirteen records behave as frozen dataclasses did.

Each record takes its fields positionally or by keyword, refuses assignment
and deletion, compares and hashes by its field tuple, only with records of
its own class (a subclass is another class), and shows
``Name(field=value, ...)`` in field order. The expected reprs are the ones
the records printed as dataclasses.
"""

import numpy as np
import pytest

from gflownf import (
    BranchResult,
    CorrectiveMaps,
    DependencyOrder,
    DeterminismReport,
    ExtendedOpenGraph,
    Gflow,
    GflowEnumeration,
    Graph,
    Pattern,
    Plane,
    PromotionResult,
    Statevector,
    VerificationReport,
)
from gflownf.gflow import Violation

GRAPH = "Graph(vertices=frozenset({0, 1}), edges=frozenset({(0, 1)}))"
EOG = (
    f"ExtendedOpenGraph(graph={GRAPH}, inputs=frozenset({{0}}), "
    "outputs=frozenset({1}), planes=mappingproxy({0: <Plane.XY: 'XY'>}))"
)
GFLOW = "Gflow(assignments=mappingproxy({0: frozenset({1})}))"
VIOLATION = "Violation(vertex=0, condition='plane-XY', witness=frozenset({1}))"
MAPS = "CorrectiveMaps(x={0: frozenset({1})}, z={0: frozenset()})"
STATE = "Statevector(qubits=(1,), amplitudes=array([1.+0.j, 0.+0.j]))"


def _records():
    """(class, {field: value} in field order, expected repr, hashable) per record,
    all on the open graph 0 - 1 with input 0 and output 1."""
    graph = Graph(frozenset({0, 1}), frozenset({(0, 1)}))
    eog = ExtendedOpenGraph(graph, frozenset({0}), frozenset({1}), {0: Plane.XY})
    gflow = Gflow({0: frozenset({1})})
    violation = Violation(0, "plane-XY", frozenset({1}))
    maps = CorrectiveMaps({0: frozenset({1})}, {0: frozenset()})
    state = Statevector((1,), np.array([1, 0], dtype=complex))
    return [
        (Graph, {"vertices": frozenset({0, 1}), "edges": frozenset({(0, 1)})},
         GRAPH, True),
        (ExtendedOpenGraph,
         {"graph": graph, "inputs": frozenset({0}), "outputs": frozenset({1}),
          "planes": {0: Plane.XY}},
         EOG, False),
        (Gflow, {"assignments": {0: frozenset({1})}}, GFLOW, False),
        (DependencyOrder, {"layers": {0: 0, 1: 1}},
         "DependencyOrder(layers={0: 0, 1: 1})", False),
        (Violation,
         {"vertex": 0, "condition": "plane-XY", "witness": frozenset({1})},
         VIOLATION, True),
        (VerificationReport, {"valid": False, "violations": (violation,)},
         f"VerificationReport(valid=False, violations=({VIOLATION},))", True),
        (CorrectiveMaps, {"x": {0: frozenset({1})}, "z": {0: frozenset()}},
         MAPS, False),
        (GflowEnumeration, {"gflows": (gflow,), "exhausted": True},
         f"GflowEnumeration(gflows=({GFLOW},), exhausted=True)", False),
        (PromotionResult,
         {"rewritten": eog, "gflow": gflow, "promoted_vertex": 0,
          "added_vertex": None},
         f"PromotionResult(rewritten={EOG}, gflow={GFLOW}, promoted_vertex=0, "
         "added_vertex=None)",
         False),
        (Statevector, {"qubits": (1,), "amplitudes": state.amplitudes}, STATE, False),
        (Pattern,
         {"eog": eog, "angles": {0: 0.5}, "corrections": maps, "schedule": (0,)},
         f"Pattern(eog={EOG}, angles={{0: 0.5}}, corrections={MAPS}, "
         "schedule=(0,))",
         False),
        (BranchResult, {"signals": {0: 1}, "probability": 0.5, "output_state": state},
         f"BranchResult(signals={{0: 1}}, probability=0.5, output_state={STATE})",
         False),
        (DeterminismReport,
         {"deterministic": True, "max_state_deviation": 0.0,
          "probabilities": (0.5, 0.5), "strong": True, "tolerance": 1e-9},
         "DeterminismReport(deterministic=True, max_state_deviation=0.0, "
         "probabilities=(0.5, 0.5), strong=True, tolerance=1e-09)",
         True),
    ]


RECORDS = _records()
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=IDS)
def test_record_behaviour(cls, fields, text, hashable):
    record = cls(*fields.values())
    same = cls(**fields)
    assert record == same and not record != same
    assert repr(record) == repr(same) == text
    values = tuple(getattr(record, name) for name in fields)
    if hashable:
        assert hash(record) == hash(same) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)
    copy = type(f"{cls.__name__}Copy", (cls,), {})(**fields)
    for other in (object(), values, copy):
        assert (record == other) is False and record != other
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=IDS)
def test_record_fields_are_read_only(cls, fields, text, hashable):
    record = cls(**fields)
    for name, value in fields.items():
        kept = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is kept
