import json

import pytest
from hypothesis import given, strategies as st

from gflownf import (
    ExtendedOpenGraph,
    Graph,
    OpenGraphError,
    Plane,
    odd_neighbourhood,
    parse_open_graph,
    parse_open_graph_document,
    serialize_open_graph,
)
from gflownf.opengraph import _quote

from conftest import PATH_DOC

PATH = Graph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))


def brute_odd(graph, a):
    """Independent oracle: count neighbours one vertex at a time."""
    return frozenset(
        w for w in graph.vertices if len(graph.neighbours(w) & frozenset(a)) % 2 == 1
    )


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    verts = frozenset(range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = frozenset(p for p in pairs if draw(st.booleans()))
    return Graph(verts, edges)


class TestOddNeighbourhood:
    def test_path_centre(self):
        assert odd_neighbourhood(PATH, {2}) == {1, 3}

    def test_empty_set(self):
        assert odd_neighbourhood(PATH, frozenset()) == frozenset()

    def test_two_element_set(self):
        assert odd_neighbourhood(PATH, {2, 3}) == {1, 2, 3}
        assert odd_neighbourhood(PATH, {2, 3}) == brute_odd(PATH, {2, 3})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(OpenGraphError):
            odd_neighbourhood(PATH, {4})

    @given(small_graphs(), st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    def test_linearity(self, graph, a, b):
        a = frozenset(a) & graph.vertices
        b = frozenset(b) & graph.vertices
        lhs = odd_neighbourhood(graph, a ^ b)
        rhs = odd_neighbourhood(graph, a) ^ odd_neighbourhood(graph, b)
        assert lhs == rhs

    @given(small_graphs())
    def test_singleton_is_neighbourhood(self, graph):
        for v in graph.vertices:
            assert odd_neighbourhood(graph, {v}) == graph.neighbours(v)

    @given(small_graphs(), st.sets(st.integers(0, 5)))
    def test_matches_direct_count(self, graph, a):
        a = frozenset(a) & graph.vertices
        assert odd_neighbourhood(graph, a) == brute_odd(graph, a)


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(OpenGraphError):
            Graph(frozenset({1}), frozenset({(1, 1)}))

    def test_dangling_edge_rejected(self):
        with pytest.raises(OpenGraphError):
            Graph(frozenset({1}), frozenset({(1, 2)}))

    def test_edges_normalized(self):
        g = Graph(frozenset({1, 2}), frozenset({(2, 1)}))
        assert g.edges == {(1, 2)}

    def test_neighbours_of_missing_vertex_rejected(self):
        with pytest.raises(OpenGraphError, match="vertex 9 not in graph"):
            PATH.neighbours(9)


class TestSerialization:
    def test_path_document(self, path_eog):
        eog, angles = parse_open_graph_document(PATH_DOC)
        assert eog == path_eog
        assert angles == {1: 0.3, 2: 1.1}

    def test_empty_graph(self):
        eog = parse_open_graph(
            '{"vertices":[], "edges":[], "inputs":[], "outputs":[], "planes":{}}'
        )
        assert eog.vertices == frozenset()

    def test_round_trip(self, path_eog):
        text = serialize_open_graph(path_eog, {1: 0.3, 2: 1.1})
        again, angles = parse_open_graph_document(text)
        assert again == path_eog
        assert angles == {1: 0.3, 2: 1.1}
        assert serialize_open_graph(again, angles) == text

    def test_plane_on_output_rejected(self):
        doc = json.loads(PATH_DOC)
        doc["planes"]["3"] = "XY"
        with pytest.raises(OpenGraphError):
            parse_open_graph(json.dumps(doc))

    def test_missing_plane_rejected(self):
        doc = json.loads(PATH_DOC)
        del doc["planes"]["2"]
        with pytest.raises(OpenGraphError):
            parse_open_graph(json.dumps(doc))

    def test_unknown_edge_vertex_rejected(self):
        doc = json.loads(PATH_DOC)
        doc["edges"].append([1, 9])
        with pytest.raises(OpenGraphError):
            parse_open_graph(json.dumps(doc))

    def test_truncated_json_rejected(self):
        with pytest.raises(OpenGraphError):
            parse_open_graph(PATH_DOC[:40])

    def test_too_deep_json_rejected(self):
        with pytest.raises(OpenGraphError, match="invalid JSON"):
            parse_open_graph("[" * 100_000)

    def test_value_too_deep_to_quote(self):
        # past json.dumps' recursion limit, a message names the value's type
        deep = []
        for _ in range(100_000):
            deep = [deep]
        assert _quote(deep) == "(a list nested too deep to quote)"
        assert _quote([None, True, "xy"]) == '[null, true, "xy"]'

    def test_angle_out_of_range_rejected(self):
        doc = json.loads(PATH_DOC)
        doc["angles"]["1"] = 7.0
        with pytest.raises(OpenGraphError):
            parse_open_graph_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("vertices", [True, 2, 3]),
            ("inputs", [True]),
            ("edges", [[True, 2], [2, 3]]),
        ],
    )
    def test_bool_id_rejected(self, key, value):
        # JSON true is a Python int equal to 1; it must not pass as vertex 1.
        doc = json.loads(PATH_DOC)
        doc[key] = value
        with pytest.raises(OpenGraphError):
            parse_open_graph(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [("vertices", [1, 2, 3, 2]), ("inputs", [1, 1]), ("outputs", [3, 3])],
    )
    def test_duplicate_id_rejected(self, key, value):
        doc = json.loads(PATH_DOC)
        doc[key] = value
        with pytest.raises(OpenGraphError, match="more than once"):
            parse_open_graph(json.dumps(doc))


NON_CANONICAL_KEYS = ["01", "+1", " 1", "1_0"]


class TestIdKeyedMaps:
    """Vertex-id keys are canonical decimals, so no two keys name one vertex."""

    @pytest.mark.parametrize("field", ["planes", "angles"])
    @pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
    def test_non_canonical_key_rejected(self, field, key):
        doc = json.loads(PATH_DOC)
        doc[field][key] = doc[field].pop("1")
        with pytest.raises(OpenGraphError, match="is not a vertex id"):
            parse_open_graph_document(json.dumps(doc))

    def test_alias_key_cannot_override(self):
        # int("01") == 1: the later key used to win silently.
        text = PATH_DOC.replace('"2":"XY"}', '"2":"XY", "01":"YZ"}')
        with pytest.raises(OpenGraphError):
            parse_open_graph(text)

    def test_repeated_key_rejected(self):
        text = PATH_DOC.replace('"2":"XY"}', '"2":"XY", "1":"YZ"}')
        with pytest.raises(OpenGraphError, match="repeats keys"):
            parse_open_graph(text)

    @pytest.mark.parametrize("value", [True, False, "0.3", None])
    def test_non_number_angle_rejected(self, value):
        doc = json.loads(PATH_DOC)
        doc["angles"]["1"] = value
        with pytest.raises(OpenGraphError, match="angle at vertex 1"):
            parse_open_graph_document(json.dumps(doc))

    def test_canonical_keys_accepted(self):
        doc = json.loads(PATH_DOC)
        doc["vertices"].append(10)
        doc["outputs"].append(10)
        eog, angles = parse_open_graph_document(json.dumps(doc))
        assert eog.planes == {1: Plane.XY, 2: Plane.XY}
        assert angles == {1: 0.3, 2: 1.1}


class TestExtendedOpenGraph:
    def test_inputs_must_be_vertices(self):
        with pytest.raises(OpenGraphError):
            ExtendedOpenGraph(PATH, frozenset({9}), frozenset({3}), {1: Plane.XY, 2: Plane.XY})

    @pytest.mark.parametrize(
        "outputs, planes, message",
        [({3, 9}, {1: Plane.XY, 2: Plane.XY}, r"outputs \[9\] are not vertices"),
         ({3}, {1: Plane.XY, 2: "XY"}, "plane of vertex 2 must be a Plane")],
        ids=["output-off-graph", "plane-not-a-Plane"],
    )
    def test_malformed_marks_rejected(self, outputs, planes, message):
        with pytest.raises(OpenGraphError, match=message):
            ExtendedOpenGraph(PATH, frozenset({1}), frozenset(outputs), planes)

    def test_derived_sets(self, path_eog):
        assert path_eog.measured == {1, 2}
        assert path_eog.measured_non_inputs == {2}
        assert path_eog.input_defect == 0
