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
    verify_gflow,
)
from conftest import PATH_DOC, set_to_mask
from test_bitmask_core import assert_memo_transparent, random_map
from gflownf.gflow import AXES, Gflow
from gflownf.opengraph import odd_mask, parse_open_graph_document
from gflownf.search import _find_gflow_rounds, _odd_table
from gflownf.instances import all_instances, random_instance


def mask_to_set(mask):
    """The bit positions set in ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def grid_cluster(rng, w, h):
    """A w x h cluster: inputs left, outputs right, all XY, ids a seeded permutation.

    Returns the instance and vid, the map from grid position (x, y) to id.
    """
    ids = list(range(w * h))
    rng.shuffle(ids)

    def vid(x, y):
        return ids[x * h + y]

    edges = [(vid(x, y), vid(x + 1, y)) for x in range(w - 1) for y in range(h)]
    edges += [(vid(x, y), vid(x, y + 1)) for x in range(w) for y in range(h - 1)]
    eog = ExtendedOpenGraph(
        Graph(frozenset(ids), frozenset(edges)),
        frozenset(vid(0, y) for y in range(h)),
        frozenset(vid(w - 1, y) for y in range(h)),
        {vid(x, y): Plane.XY for x in range(w - 1) for y in range(h)},
    )
    return eog, vid


# Reference finder: one fresh GF(2) system per unsolved vertex per round.
# The shared elimination in _find_gflow_rounds must reproduce its gflows
# and rounds bit for bit.


def _oracle_gf2_solve(rows, col_mask):
    work = [list(r) for r in rows]
    pivot_rows = []
    used = set()
    m = col_mask
    while m:
        b = m & -m
        m ^= b
        idx = None
        for i, (mask, _) in enumerate(work):
            if i not in used and mask & b:
                idx = i
                break
        if idx is None:
            continue
        used.add(idx)
        pivot_rows.append((b, idx))
        pm, pr = work[idx]
        for j, (mask, rhs) in enumerate(work):
            if j != idx and mask & b:
                work[j][0] = mask ^ pm
                work[j][1] = rhs ^ pr
    for mask, rhs in work:
        if mask == 0 and rhs:
            return None
    sol = 0
    for b, i in pivot_rows:
        if work[i][1]:
            sol |= b
    return sol


def _oracle_solve_corrector_set(eog, u, c_mask, i_mask, v_mask):
    plane = eog.planes[u]
    ubit = 1 << u
    force_u = plane is not Plane.XY
    if force_u and ubit & i_mask:
        return None
    cols = c_mask & ~i_mask
    adj = eog.graph.adjacency_masks
    rows = []
    outside = v_mask & ~(c_mask | ubit)
    m = outside
    while m:
        b = m & -m
        m ^= b
        w = b.bit_length() - 1
        coeff = adj[w] & cols
        rhs = (adj[w] >> u) & 1 if force_u else 0
        if coeff == 0:
            if rhs:
                return None
        else:
            rows.append((coeff, rhs))
    rhs_u = 1 if plane in (Plane.XY, Plane.XZ) else 0
    coeff_u = adj[u] & cols
    if coeff_u == 0:
        if rhs_u:
            return None
    else:
        rows.append((coeff_u, rhs_u))
    sol = _oracle_gf2_solve(rows, cols)
    if sol is None:
        return None
    return sol | ubit if force_u else sol


def oracle_find_gflow_rounds(eog):
    measured = sorted(eog.measured)
    i_mask = set_to_mask(eog.inputs)
    v_mask = set_to_mask(eog.vertices)
    c_mask = set_to_mask(eog.outputs)
    unsolved = list(measured)
    assignment = {}
    rounds = {}
    round_no = 0
    while unsolved:
        solved = []
        for u in unsolved:
            k = _oracle_solve_corrector_set(eog, u, c_mask, i_mask, v_mask)
            if k is not None:
                assignment[u] = k
                solved.append(u)
        if not solved:
            return None, rounds
        round_no += 1
        for u in solved:
            rounds[u] = round_no
            c_mask |= 1 << u
        unsolved = [u for u in unsolved if u not in assignment]
    gflow = Gflow({u: mask_to_set(k) for u, k in assignment.items()})
    return gflow, rounds


def assert_same_as_oracle(eog):
    got_g, got_rounds = _find_gflow_rounds(eog)
    want_g, want_rounds = oracle_find_gflow_rounds(eog)
    assert (got_g is None) == (want_g is None)
    if want_g is not None:
        assert got_g.assignments == want_g.assignments
    assert got_rounds == want_rounds
    return want_g is not None


def assert_sigma_finder_as_oracle(eog, sigma):
    """The sigma finder's verdict is the NF-restricted oracle's, and its gflow
    is a valid sigma-NF gflow."""
    g, _ = _find_gflow_rounds(eog, sigma)
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
    """The one-elimination-per-round finder against the per-vertex oracle."""

    def test_census(self):
        found = sum(assert_same_as_oracle(eog) for eog in all_instances(4))
        assert found > 0

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
            found += assert_same_as_oracle(eog)
            if i % 2 == 0:
                g = find_gflow(eog)
                assert_memo_transparent(eog, g or random_map(map_rng, eog))
        assert found > 500

    def test_permuted_grids(self):
        rng = random.Random(59)
        for w, h in ((2, 1), (3, 2), (6, 3), (8, 4), (12, 5)):
            eog, _ = grid_cluster(rng, w, h)
            assert assert_same_as_oracle(eog)

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
    """The finder with sigma-NF rows against the NF-restricted oracle."""

    def test_census(self, small_sweep):
        for sigma in AXES:
            found = sum(
                assert_sigma_finder_as_oracle(eog, sigma) for eog, _ in small_sweep
            )
            assert 0 < found < len(small_sweep)

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
                hit = assert_sigma_finder_as_oracle(eog, sigma)
                assert has_gflow or not hit
                found[sigma] += hit
        assert min(found.values()) > 300
