import random

import pytest

from gflownf import (
    ExtendedOpenGraph,
    Graph,
    Plane,
    brute_force_enumerate,
    check_normal_form,
    exists_normal_form,
    find_gflow,
    odd_neighbourhood,
    serialize_gflow,
    verify_gflow,
)
from conftest import PATH_DOC, grid_cluster
from test_bitmask_core import (
    assert_census,
    assert_memo_transparent,
    assert_same_finder,
    random_map,
)
from gflownf.gflow import AXES
from gflownf.opengraph import odd_mask, parse_open_graph_document
from gflownf.search import _find_gflow_rounds, _odd_table
from gflownf.instances import all_instances, random_instance


def assert_sigma_finder(eog, sigma):
    """The sigma finder's gflow and rounds are the reference's, its verdict
    is that of the NF-restricted enumeration, and its gflow is a valid
    sigma-NF gflow."""
    g = assert_same_finder(eog, sigma)
    witness = brute_force_enumerate(eog, 500_000, nf_sigma=sigma, stop_after=1)
    assert (g is not None) == bool(witness.gflows)
    if g is None:
        assert witness.exhausted
    else:
        assert verify_gflow(eog, g).valid
        assert check_normal_form(eog, g, sigma)
    return g is not None


class TestBruteForce:
    def test_path_census(self, path_eog):
        enum = brute_force_enumerate(path_eog)
        assert enum.exhausted
        assert {
            frozenset((u, s) for u, s in g.assignments.items()) for g in enum.gflows
        } == {
            frozenset({(1, frozenset({2})), (2, frozenset({3}))}),
            frozenset({(1, frozenset({2, 3})), (2, frozenset({3}))}),
        }

    def test_lonely_measured_vertex(self):
        graph = Graph(frozenset({1}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset(), {1: Plane.XY})
        enum = brute_force_enumerate(eog)
        assert enum.exhausted and enum.count == 0

    def test_all_outputs(self):
        graph = Graph(frozenset({1, 2}), frozenset({(1, 2)}))
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({1, 2}), {})
        enum = brute_force_enumerate(eog)
        assert enum.exhausted and enum.count == 1
        assert enum.gflows[0].assignments == {}

    def test_limit_gives_partial_result(self, path_eog):
        enum = brute_force_enumerate(path_eog, limit=1)
        assert not enum.exhausted

    def test_one_odd_table_per_instance(self, probe):
        # Odd(K) is read from one table built per instance, one XOR per
        # entry and no odd_mask call: four entries, the subsets of the
        # non-inputs {2, 3}.
        eog = parse_open_graph_document(PATH_DOC)[0]
        graph = eog.graph
        calls = probe.calls("opengraph.odd_mask")
        tables = probe.calls("search._odd_table")
        assert brute_force_enumerate(eog).count == 2
        assert calls == []
        assert tables == [(graph, graph.mask((2, 3)))]
        table = _odd_table(*tables[0])
        assert [k for k, _ in table] == sorted(
            graph.mask(s) for s in ((), (2,), (3,), (2, 3))
        )
        assert all(odd == odd_mask(graph, k) for k, odd in table)

    def test_gflows_stay_on_bits(self, monkeypatch, path_eog):
        # listing and verifying the gflows builds no id set: each is its
        # graph's bits, as a found gflow is
        members, method = [], Graph.members
        monkeypatch.setattr(
            Graph, "members", lambda self, mask: members.append(mask) or method(self, mask)
        )
        enum = brute_force_enumerate(path_eog)
        assert all(verify_gflow(path_eog, g).valid for g in enum.gflows)
        assert [serialize_gflow(g) for g in enum.gflows] == [
            '{"g": {"1": [2], "2": [3]}}',
            '{"g": {"1": [2, 3], "2": [3]}}',
        ]
        assert members == []

    def test_every_listed_gflow_verifies(self):
        rng = random.Random(3)
        for _ in range(200):
            eog = random_instance(rng, rng.randint(1, 4))
            for g in brute_force_enumerate(eog, 50_000).gflows:
                assert verify_gflow(eog, g).valid


class TestFindGflow:
    def test_path_found_and_ordered(self, path_eog):
        g, rounds = _find_gflow_rounds(path_eog)
        assert g is not None
        assert verify_gflow(path_eog, g).valid
        assert rounds[1] > rounds[2]  # vertex 1 is measured before vertex 2

    def test_off_plane_input_fails(self, path_eog):
        bad = ExtendedOpenGraph(
            path_eog.graph,
            path_eog.inputs,
            path_eog.outputs,
            {1: Plane.XZ, 2: Plane.XY},
        )
        assert find_gflow(bad) is None

    def test_all_outputs(self):
        graph = Graph(frozenset({1}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({1}), {})
        g = find_gflow(eog)
        assert g is not None and g.assignments == {}

    def test_monotone_rounds(self):
        # Every dependency of u is solved in a strictly earlier round,
        # hence measured strictly later.
        rng = random.Random(17)
        seen = 0
        while seen < 100:
            eog = random_instance(rng, rng.randint(1, 5), force_input_xy=True)
            g, rounds = _find_gflow_rounds(eog)
            if g is None:
                continue
            seen += 1
            for u in eog.measured:
                deps = (g[u] | odd_neighbourhood(eog.graph, g[u])) - {u}
                for v in deps & eog.measured:
                    assert rounds[v] < rounds[u]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(29)
        for _ in range(400):
            eog = random_instance(rng, rng.randint(1, 5))
            found = find_gflow(eog)
            witness = brute_force_enumerate(eog, 200_000, stop_after=1)
            assert (found is not None) == bool(witness.gflows)
            if found is not None:
                assert verify_gflow(eog, found).valid



class CountingMasks(tuple):
    """``adjacency_masks`` that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def counted_xy_path(n):
    """An XY path 0..n-1, input 0 and output n-1, whose adjacency reads count."""
    graph = Graph(frozenset(range(n)), frozenset((i, i + 1) for i in range(n - 1)))
    adj = CountingMasks(graph.adjacency_masks)
    graph.__dict__["adjacency_masks"] = adj
    planes = {i: Plane.XY for i in range(n - 1)}
    return ExtendedOpenGraph(graph, frozenset({0}), frozenset({n - 1}), planes), adj


class TestFrontierRows:
    """A round reads the adjacency of its frontier rows and of its new
    columns only, so a path costs a linear number of reads, not the
    n(n - 1) / 2 of one row per unsolved vertex per round."""

    def test_path_reads_are_linear(self):
        n = 2000
        eog, adj = counted_xy_path(n)
        g, rounds = _find_gflow_rounds(eog)
        reads = adj.reads
        assert reads <= 2 * n
        assert g.assignments == {i: frozenset({i + 1}) for i in range(n - 1)}
        assert all(rounds[i] == n - 1 - i for i in range(n - 1))

    def test_z_reads_do_not_grow_with_the_path(self):
        reads = []
        for n in (20, 200, 2000):
            eog, adj = counted_xy_path(n)
            g, rounds = _find_gflow_rounds(eog, "Z")
            assert g is None and rounds == {n - 2: 1}
            reads.append(adj.reads)
        assert len(set(reads)) == 1


class TestExistsNormalForm:
    def test_path_z(self, path_eog):
        assert exists_normal_form(path_eog, "Z") is False

    def test_path_x_via_shortcut(self, path_eog):
        assert exists_normal_form(path_eog, "X") is True

    def test_all_outputs(self):
        graph = Graph(frozenset({1}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({1}), {})
        for sigma in "XYZ":
            assert exists_normal_form(eog, sigma) is True

    def test_bad_sigma(self, path_eog):
        with pytest.raises(ValueError):
            exists_normal_form(path_eog, "Q")
        with pytest.raises(ValueError):
            find_gflow(path_eog, sigma="Q")
        with pytest.raises(ValueError):
            brute_force_enumerate(path_eog, nf_sigma="Q")

    def test_find_gflow_sigma_census(self):
        # the gflow find_gflow(eog, sigma) returns is the one that decides
        found = dict.fromkeys(AXES, 0)
        for eog in all_instances(3):
            for sigma in AXES:
                g = find_gflow(eog, sigma)
                assert (g is not None) is exists_normal_form(eog, sigma)
                if g is not None:
                    assert verify_gflow(eog, g).valid
                    assert check_normal_form(eog, g, sigma)
                    found[sigma] += 1
        assert min(found.values()) > 0

    def test_agrees_with_filtered_enumeration(self):
        from gflownf import check_normal_form

        rng = random.Random(41)
        for _ in range(150):
            eog = random_instance(rng, rng.randint(1, 4), force_input_xy=True)
            enum = brute_force_enumerate(eog, 100_000)
            if not enum.exhausted:
                continue
            for sigma in "XYZ":
                truth = any(check_normal_form(eog, g, sigma) for g in enum.gflows)
                assert exists_normal_form(eog, sigma) is truth


class TestSharedElimination:
    """The one-elimination-per-round finder against the reference's
    per-vertex finder; the census pass is in `test_bitmask_core.py`."""

    def test_census(self):
        assert_census("finder")

    def test_random_instances(self):
        # On every other draw, a remembered verification of the finder's
        # gflow, or else of a random map (some name non-vertices), answers
        # as fresh copies do.
        rng, map_rng = random.Random(53), random.Random(54)
        found = 0
        for i in range(10_000):
            eog = random_instance(
                rng, rng.randint(3, 12), rng.uniform(0.2, 0.8),
                force_input_xy=rng.random() < 0.5,
            )
            found += assert_same_finder(eog) is not None
            if i % 2 == 0:
                g = find_gflow(eog)
                assert_memo_transparent(eog, g or random_map(map_rng, eog))
        assert found > 500

    def test_permuted_grids(self):
        rng = random.Random(59)
        for w, h in ((2, 1), (3, 2), (6, 3), (8, 4), (12, 5)):
            eog, _ = grid_cluster(rng, w, h)
            assert assert_same_finder(eog) is not None

    def test_wide_grid_contract(self):
        # 80 x 8 = 640 vertices: every vertex in column x lands in round
        # w - 1 - x, the maximally delayed layering.
        w, h = 80, 8
        eog, vid = grid_cluster(random.Random(61), w, h)
        g, rounds = _find_gflow_rounds(eog)
        assert g is not None
        assert find_gflow(eog) == g
        assert verify_gflow(eog, g).valid
        assert rounds == {
            vid(x, y): w - 1 - x for x in range(w - 1) for y in range(h)
        }


class TestSigmaFinder:
    """The finder with sigma-NF rows against the reference's; the census
    pass is in `test_bitmask_core.py`."""

    def test_census(self):
        assert_census("sigma")

    def test_census_without_gflow(self):
        for eog in all_instances(3):
            if find_gflow(eog) is None:
                for sigma in AXES:
                    assert _find_gflow_rounds(eog, sigma)[0] is None

    def test_random_instances(self):
        rng = random.Random(67)
        found = dict.fromkeys(AXES, 0)
        for _ in range(3_000):
            eog = random_instance(rng, rng.randint(5, 8), force_input_xy=True)
            has_gflow = find_gflow(eog) is not None
            for sigma in AXES:
                hit = assert_sigma_finder(eog, sigma)
                assert has_gflow or not hit
                found[sigma] += hit
        assert min(found.values()) > 300
