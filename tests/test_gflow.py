import copy
import json
import pickle
import random
import tracemalloc

import pytest

from gflownf import (
    CorrectiveMaps,
    CycleError,
    ExtendedOpenGraph,
    Gflow,
    GflowEnumeration,
    Graph,
    Plane,
    brute_force_enumerate,
    check_input_planes,
    check_normal_form,
    corrective_maps,
    extensivity_order,
    find_gflow,
    focus,
    odd_neighbourhood,
    parse_gflow,
    pattern_from_gflow,
    serialize_gflow,
    verify_gflow,
)
import gflownf.gflow as gflow_module
from gflownf.gflow import AXES, _corrective_maps_of
from gflownf.opengraph import OpenGraphError, _load_json
from gflownf.instances import random_instance

from conftest import grid_cluster
from test_bitmask_core import assert_memo_transparent, outcome, random_map


class TestExtensivityOrder:
    def test_path_layers(self, path_eog):
        g = {1: frozenset({2}), 2: frozenset({3})}
        f = {
            u: g[u] | odd_neighbourhood(path_eog.graph, g[u])
            for u in path_eog.measured
        }
        order = extensivity_order(path_eog.graph, path_eog.outputs, f)
        assert order.layers[1] < order.layers[2] < order.layers[3]
        assert order.schedule({1, 2}) == (1, 2)

    def test_no_constraints_single_layer(self, path_eog):
        f = {1: frozenset(), 2: frozenset()}
        order = extensivity_order(path_eog.graph, path_eog.outputs, f)
        assert set(order.layers.values()) == {0}

    def test_two_cycle_fails(self):
        graph = Graph(frozenset({1, 2}), frozenset())
        f = {1: frozenset({2}), 2: frozenset({1})}
        with pytest.raises(CycleError) as exc:
            extensivity_order(graph, frozenset(), f)
        assert set(exc.value.cycle) == {1, 2}

    @pytest.mark.parametrize(
        "f, message",
        [({1: frozenset(), 9: frozenset()}, "keyed by unknown vertex 9"),
         ({1: frozenset({2, 9})}, "image of 1 contains unknown vertex 9")],
        ids=["unknown-key", "unknown-image"],
    )
    def test_unknown_vertex_rejected(self, path_eog, f, message):
        with pytest.raises(OpenGraphError, match=message):
            extensivity_order(path_eog.graph, path_eog.outputs, f)

    def test_self_membership_ignored(self):
        graph = Graph(frozenset({1}), frozenset())
        order = extensivity_order(graph, frozenset(), {1: frozenset({1})})
        assert order.layers == {1: 0}

    def test_long_chain_memory_linear(self):
        # One successor list entry per arc, not one mask as wide as the
        # highest successor: arc masks take about 110 MiB here.
        n = 40_000
        graph = Graph(frozenset(range(n)), frozenset())
        f = {u: frozenset({u + 1}) for u in range(n - 1)}
        tracemalloc.start()
        try:
            order = extensivity_order(graph, frozenset(), f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert order.layers[n - 1] == n - 1
        assert peak < 32 * 2**20


class TestVerifyGflow:
    def test_path_first_gflow(self, path_eog, path_gflow):
        assert verify_gflow(path_eog, path_gflow).valid

    def test_path_second_gflow(self, path_eog):
        assert verify_gflow(path_eog, Gflow({1: {2, 3}, 2: {3}})).valid

    def test_path_invalid_gflow(self, path_eog):
        report = verify_gflow(path_eog, Gflow({1: {3}, 2: {3}}))
        assert not report.valid
        assert any(
            v.vertex == 1 and v.condition == "plane-XY" for v in report.violations
        )

    def test_all_outputs_vacuous(self):
        graph = Graph(frozenset({1, 2}), frozenset({(1, 2)}))
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({1, 2}), {})
        assert verify_gflow(eog, Gflow({})).valid

    def test_key_mismatch_raises(self, path_eog):
        with pytest.raises(ValueError):
            verify_gflow(path_eog, Gflow({1: {2}}))

    def test_codomain_violation(self, path_eog):
        report = verify_gflow(path_eog, Gflow({1: {1, 2}, 2: {3}}))
        assert any(v.condition == "codomain" for v in report.violations)

    def test_out_of_graph_correctors_are_codomain_violations(self, path_eog):
        # Neither a negative shift nor a 10**10-bit mask: the codomain check
        # comes before any corrector set becomes a bitmask.
        report = verify_gflow(path_eog, Gflow({1: {-1}, 2: {10**10}}))
        assert [(v.vertex, v.condition, v.witness) for v in report.violations] == [
            (1, "codomain", {-1}),
            (2, "codomain", {10**10}),
        ]

    def test_deep_cycle_on_a_long_chain(self):
        # A 20,000-vertex XY chain whose last corrector points back into the
        # chain: the search is 19,998 vertices deep when it meets the cycle,
        # far past Python's recursion limit.
        n = 20_000
        graph = Graph(frozenset(range(n)), frozenset((u, u + 1) for u in range(n - 1)))
        planes = dict.fromkeys(range(n - 1), Plane.XY)
        eog = ExtendedOpenGraph(graph, frozenset({0}), frozenset({n - 1}), planes)
        g = {u: {u + 1} for u in range(n - 2)}
        g[n - 2] = {n - 3}
        report = verify_gflow(eog, Gflow(g))
        # f(n - 4) holds n - 2 and f(n - 2) holds n - 4; the peel's witness
        # starts from the lowest vertex left, n - 4
        assert report.to_dict() == {
            "valid": False,
            "violations": [
                {"vertex": n - 2, "condition": "extensivity", "witness": [n - 4, n - 2]}
            ],
        }

    def test_plane_relations_on_random_valid_gflows(self):
        # u in g(u) iff plane in {XZ, YZ}; u in Odd(g(u)) iff plane in {XY, XZ}
        rng = random.Random(11)
        seen = 0
        while seen < 40:
            eog = random_instance(rng, rng.randint(1, 4), force_input_xy=True)
            for g in brute_force_enumerate(eog, 50_000).gflows:
                seen += 1
                for u in eog.measured:
                    odd = odd_neighbourhood(eog.graph, g[u])
                    assert (u in g[u]) == (eog.planes[u] in (Plane.XZ, Plane.YZ))
                    assert (u in odd) == (eog.planes[u] in (Plane.XY, Plane.XZ))

    def test_one_odd_mask_per_measured_vertex(self, probe):
        # The plane check and the f-map order share each Odd(g(u)).
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        g = find_gflow(eog)
        calls = probe.calls("opengraph.odd_mask")
        assert verify_gflow(eog, g).valid
        assert len(eog.measured) == 90
        assert len(calls) == 90

    def test_one_odd_mask_per_measured_vertex_in_pattern(self, probe):
        # Corrections and schedule share the masks verification computed.
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        g = find_gflow(eog)
        calls = probe.calls("opengraph.odd_mask")
        pattern = pattern_from_gflow(eog, dict.fromkeys(eog.measured, 0.5), g)
        assert len(calls) == 90
        assert pattern.corrections == corrective_maps(eog, g)

    def test_one_peel_per_pattern(self, probe):
        # The schedule's layers come from one extensivity_order peel of the
        # corrective maps; the validation itself searches, and peels nothing.
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        g = find_gflow(eog)
        peels = probe.calls("gflow._peel")
        orders = probe.calls("gflow.extensivity_order")
        pattern_from_gflow(eog, dict.fromkeys(eog.measured, 0.5), g)
        assert (len(peels), len(orders)) == (1, 1)

    def test_one_odd_mask_per_measured_vertex_in_focus(self, probe):
        # The order and the sweep share each Odd(g(u)).
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        g = find_gflow(eog)
        calls = probe.calls("opengraph.odd_mask")
        focused = focus(eog, g, "X")
        assert len(calls) == 90
        assert check_normal_form(eog, focused, "X")


class TestVerificationMemo:
    """A gflow is verified once per open graph object, and only the last
    open graph is remembered."""

    def test_one_verification_for_five_entry_points(self, probe):
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        g = find_gflow(eog)
        calls = probe.calls("opengraph.odd_mask")
        searches = probe.calls("gflow._dfs_order")
        peels = probe.calls("gflow._peel")
        assert verify_gflow(eog, g).valid
        focus(eog, g, "X"), focus(eog, g, "Y")
        maps = corrective_maps(eog, g)
        pattern = pattern_from_gflow(eog, dict.fromkeys(eog.measured, 0.5), g)
        # the one peel is the schedule's, in pattern_from_gflow
        assert (len(calls), len(searches), len(peels)) == (90, 1, 1)
        assert pattern.corrections == maps

    def test_focused_gflow_checked_once(self, probe):
        # check_normal_form builds the masks, verify_gflow adds the search
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        fx = focus(eog, find_gflow(eog), "X")
        calls = probe.calls("opengraph.odd_mask")
        searches = probe.calls("gflow._dfs_order")
        peels = probe.calls("gflow._peel")
        assert check_normal_form(eog, fx, "X")
        assert verify_gflow(eog, fx).valid
        assert verify_gflow(eog, fx).valid
        assert (len(calls), len(searches), len(peels)) == (len(eog.measured), 1, 0)

    def test_no_stale_verdicts(self, path_eog, path_gflow):
        # b changes one plane (g turns invalid), c one output (the domain
        # changes), d is a distinct copy equal to a
        a = path_eog
        b = ExtendedOpenGraph(a.graph, a.inputs, a.outputs, {**a.planes, 2: Plane.YZ})
        c = ExtendedOpenGraph(a.graph, a.inputs, {2, 3}, {1: Plane.XY})
        d = ExtendedOpenGraph(a.graph, a.inputs, a.outputs, dict(a.planes))
        assert d == a and d is not a
        g = path_gflow
        for eog in (a, b, a, c, a, d, a, b):
            assert_memo_transparent(eog, g)
        assert not verify_gflow(b, g).valid and verify_gflow(a, g).valid

    def test_no_stale_verdicts_on_random_maps(self):
        rng = random.Random(29)
        for _ in range(200):
            eog = random_instance(rng, rng.randint(1, 5), force_input_xy=True)
            other = ExtendedOpenGraph(
                eog.graph,
                eog.inputs,
                eog.outputs,
                {u: rng.choice(list(Plane)) for u in eog.measured},
            )
            g = find_gflow(eog) or random_map(rng, eog)
            for h in (eog, other, eog, other):
                assert_memo_transparent(h, g)

    def test_mappings_are_read_only(self, path_eog, path_gflow):
        with pytest.raises(TypeError):
            path_gflow.assignments[1] = frozenset({3})
        with pytest.raises(TypeError):
            path_eog.planes[1] = Plane.XZ
        assert verify_gflow(path_eog, path_gflow).valid
        fresh = Gflow({1: {2}, 2: {3}})
        assert path_gflow == fresh and repr(path_gflow) == repr(fresh)
        assert dict(path_gflow.assignments) == {1: {2}, 2: {3}}

    def test_pickles_and_copies_are_equal(self, path_eog, path_gflow):
        # read-only views cannot be pickled, so both rebuild from their fields
        assert verify_gflow(path_eog, path_gflow).valid
        for obj in (path_gflow, path_eog):
            assert pickle.loads(pickle.dumps(obj)) == obj == copy.deepcopy(obj)
        assert verify_gflow(copy.deepcopy(path_eog), copy.copy(path_gflow)).valid

    def test_measured_sets_cached_outside_eq_and_repr(self, path_eog):
        before = repr(path_eog)
        assert path_eog.measured is path_eog.measured == {1, 2}
        assert path_eog.measured_non_inputs is path_eog.measured_non_inputs == {2}
        other = ExtendedOpenGraph(
            path_eog.graph, path_eog.inputs, path_eog.outputs, path_eog.planes
        )
        assert repr(path_eog) == before == repr(other) and path_eog == other


class TestBitForm:
    """``find_gflow`` and ``focus`` return gflows of their graph's bits, which
    build id sets only when asked and are read as bits only on that graph."""

    def test_grid_flow_chain_stays_on_bits(self, monkeypatch, probe):
        # the probe rebinds module names, so the Graph methods are counted
        # on the class
        eog, _ = grid_cluster(random.Random(3), 16, 6)
        members, masked = [], []
        for name, log in (("members", members), ("mask", masked)):
            method = getattr(Graph, name)
            monkeypatch.setattr(
                Graph,
                name,
                lambda self, arg, method=method, log=log: log.append(arg)
                or method(self, arg),
            )
        odds = probe.calls("opengraph.odd_mask")
        searches = probe.calls("gflow._dfs_order")
        peels = probe.calls("gflow._peel")
        g = find_gflow(eog)
        assert verify_gflow(eog, g).valid
        fx, fy = focus(eog, g, "X"), focus(eog, g, "Y")
        assert check_normal_form(eog, fx, "X") and check_normal_form(eog, fy, "Y")
        for f in (g, fx, fy):
            serialize_gflow(f)
        assert members == []
        assert all(arg is eog.inputs or arg is eog.outputs for arg in masked)
        # g is verified once; fx and fy are only checked for their forms
        assert (len(odds), len(searches), len(peels)) == (3 * len(eog.measured), 1, 0)

    def test_bits_read_only_on_their_own_graph(self, monkeypatch):
        # an equal graph object, and one with every id shifted by 3, which
        # puts the same bits on other ids
        eog, _ = grid_cluster(random.Random(5), 8, 4)
        g = find_gflow(eog)
        sets = Gflow(dict(g.assignments))
        graph = eog.graph

        def equal():
            copy = Graph(graph.vertices, graph.edges)
            assert copy == graph and copy is not graph
            return ExtendedOpenGraph(copy, eog.inputs, eog.outputs, eog.planes)

        def shift(vs):
            return frozenset(v + 3 for v in vs)

        shifted = ExtendedOpenGraph(
            Graph(shift(graph.vertices), {(u + 3, v + 3) for u, v in graph.edges}),
            shift(eog.inputs),
            shift(eog.outputs),
            {u + 3: p for u, p in eog.planes.items()},
        )
        for other in (equal(), shifted):
            calls = [(verify_gflow,)]
            calls += [(check_normal_form, sigma) for sigma in AXES]
            calls += [(focus, sigma) for sigma in "XY"]
            for fn, *sigma in calls:
                assert outcome(fn, other, g, *sigma) == outcome(fn, other, sets, *sigma)
        # an equal graph is not g's graph: its masks come from g's id sets,
        # one per corrector, plus the inputs and the outputs
        masked = []
        method = Graph.mask
        monkeypatch.setattr(
            Graph, "mask", lambda self, arg: masked.append(arg) or method(self, arg)
        )
        assert verify_gflow(equal(), g).valid
        assert len(masked) == 2 + len(eog.measured)


class TestInputPlanes:
    def test_path_true(self, path_eog):
        assert check_input_planes(path_eog)

    def test_off_plane_input_blocks_gflow(self, path_eog):
        bad = ExtendedOpenGraph(
            path_eog.graph,
            path_eog.inputs,
            path_eog.outputs,
            {1: Plane.XZ, 2: Plane.XY},
        )
        assert not check_input_planes(bad)
        assert brute_force_enumerate(bad).count == 0

    def test_no_inputs_vacuous(self, path_eog):
        eog = ExtendedOpenGraph(
            path_eog.graph, frozenset(), path_eog.outputs, dict(path_eog.planes)
        )
        assert check_input_planes(eog)

    def test_implied_by_validity(self):
        rng = random.Random(23)
        for _ in range(300):
            eog = random_instance(rng, rng.randint(1, 4))
            enum = brute_force_enumerate(eog, 50_000)
            if enum.count:
                assert check_input_planes(eog)


class TestCorrectiveMaps:
    def test_path_maps(self, path_eog, path_gflow):
        maps = corrective_maps(path_eog, path_gflow)
        assert maps.x[1] == {2} and maps.z[1] == {3}
        assert maps.x[2] == {3} and maps.z[2] == frozenset()

    def test_self_loop_corrector_removed(self):
        graph = Graph(frozenset({1}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset(), {1: Plane.YZ})
        maps = corrective_maps(eog, Gflow({1: {1}}))
        assert maps.x[1] == frozenset() and maps.z[1] == frozenset()

    def test_invalid_gflow_rejected(self, path_eog):
        with pytest.raises(ValueError):
            corrective_maps(path_eog, Gflow({1: {3}, 2: {3}}))


class TestNormalFormPredicate:
    def test_path_z_false(self, path_eog, path_gflow):
        assert not check_normal_form(path_eog, path_gflow, "Z")

    def test_path_x_true(self, path_eog, path_gflow):
        assert check_normal_form(path_eog, path_gflow, "X")

    def test_vacuous(self):
        graph = Graph(frozenset({1}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({1}), {})
        for sigma in "XYZ":
            assert check_normal_form(eog, Gflow({}), sigma)

    def test_bad_sigma(self, path_eog, path_gflow):
        with pytest.raises(ValueError):
            check_normal_form(path_eog, path_gflow, "W")

    @pytest.mark.parametrize("g", [{1: {3}, 2: {99}}, {1: {99}, 2: {2}}])
    def test_non_vertex_raises_whatever_the_order(self, path_eog, g):
        # {1: {3}} breaks the X inclusion, but the unknown id 99 wins.
        with pytest.raises(OpenGraphError, match=r"\[99\]"):
            check_normal_form(path_eog, Gflow(g), "X")

    def test_focused_equivalence_all_xy(self):
        # On all-XY instances, X-NF means Odd(g(u)) meets the measured set in {u}.
        rng = random.Random(5)
        checked = 0
        while checked < 60:
            eog = random_instance(rng, rng.randint(1, 4), xy_only=True)
            for g in brute_force_enumerate(eog, 50_000).gflows:
                checked += 1
                focused = all(
                    odd_neighbourhood(eog.graph, g[u]) & eog.measured == {u}
                    for u in eog.measured
                )
                assert check_normal_form(eog, g, "X") == focused


def test_retired_members_gone():
    # nothing read them: simulate parses a map document with
    # _corrective_maps_of(_load_json(text)), and _masks reads g.assignments
    assert not hasattr(gflow_module, "parse_corrective_maps")
    assert not hasattr(Gflow, "domain") and not hasattr(Gflow({}), "domain")
    assert not hasattr(GflowEnumeration((), True), "instance")


def parse_maps(text):
    """The corrective maps of a map document, as `simulate` reads them."""
    return _corrective_maps_of(_load_json(text))


def _maps_doc(side, entries):
    doc = {"x": {"1": [2], "2": [3]}, "z": {"1": [3], "2": []}}
    doc[side] = entries
    return json.dumps(doc)


class TestParseIdKeyedMaps:
    """gflow and corrective-map documents follow the open-graph id rules."""

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "-1", "1.0", "one"])
    def test_non_canonical_gflow_key_rejected(self, key):
        with pytest.raises(OpenGraphError, match="is not a vertex id"):
            parse_gflow(json.dumps({"g": {key: [2], "2": [3]}}))

    @pytest.mark.parametrize("side", ["x", "z"])
    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0"])
    def test_non_canonical_map_key_rejected(self, side, key):
        with pytest.raises(OpenGraphError, match="is not a vertex id"):
            parse_maps(_maps_doc(side, {key: [3], "2": []}))

    @pytest.mark.parametrize("ids", [[True], [2, False], [1.0], ["2"], 2, None])
    def test_non_id_corrector_rejected(self, ids):
        with pytest.raises(OpenGraphError, match="list of integers"):
            parse_gflow(json.dumps({"g": {"0": ids, "1": [2]}}))
        for side in "xz":
            with pytest.raises(OpenGraphError, match="list of integers"):
                parse_maps(_maps_doc(side, {"1": ids, "2": []}))

    def test_map_document_needs_x_and_z(self):
        with pytest.raises(OpenGraphError, match='needs "x" and "z"'):
            parse_maps('{"x": {"1": [2], "2": [3]}}')

    def test_duplicate_corrector_rejected(self):
        with pytest.raises(OpenGraphError, match="more than once"):
            parse_gflow('{"g": {"1": [2, 3, 2], "2": [3]}}')
        with pytest.raises(OpenGraphError, match="more than once"):
            parse_maps(_maps_doc("z", {"1": [3, 3], "2": []}))

    def test_documents_round_trip(self):
        g = parse_gflow('{"g": {"0": [], "1": [2, 3], "10": [10]}}')
        assert g.assignments == {0: frozenset(), 1: {2, 3}, 10: {10}}
        maps = parse_maps(_maps_doc("x", {"1": [2], "2": [3]}))
        assert maps == CorrectiveMaps({1: {2}, 2: {3}}, {1: {3}, 2: set()})
