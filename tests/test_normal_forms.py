import random

import pytest

from gflownf import (
    ExtendedOpenGraph,
    Gflow,
    Graph,
    Plane,
    brute_force_enumerate,
    check_balanced_nf,
    check_normal_form,
    check_defect_bound,
    exists_normal_form,
    find_gflow,
    focus,
    odd_neighbourhood,
    promote_all,
    promote_input_y,
    promote_input_z,
    verify_gflow,
)
from gflownf.instances import all_instances, random_instance


def find_nf_instance(rng, sigma, *, max_tries=20_000):
    """Random instance with a sigma-NF gflow and an off-sigma measured non-input."""
    off_plane = Plane.XZ if sigma == "Y" else Plane.XY
    keep = {"Y": (Plane.XY, Plane.YZ), "Z": (Plane.XZ, Plane.YZ)}[sigma]
    for _ in range(max_tries):
        n = rng.randint(3, 6)
        verts = frozenset(range(n))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        outputs = frozenset(rng.sample(range(n), rng.randint(2, n - 1)))
        measured = sorted(verts - outputs)
        inputs = frozenset(
            v for v in measured if rng.random() < 0.3 and len(measured) > 1
        )
        if len(outputs) - len(inputs) < 1:
            continue
        eligible = [v for v in measured if v not in inputs]
        if not eligible:
            continue
        u0 = rng.choice(eligible)
        planes = {}
        for v in measured:
            if v == u0:
                planes[v] = off_plane
            elif v in inputs:
                planes[v] = Plane.XY
            else:
                planes[v] = rng.choice(keep)
        eog = ExtendedOpenGraph(Graph(verts, edges), inputs, outputs, planes)
        enum = brute_force_enumerate(eog, 100_000, nf_sigma=sigma, stop_after=1)
        if enum.gflows:
            return eog, enum.gflows[0], u0
    raise AssertionError(f"no {sigma}-NF promotion instance found")


def _triangle():
    """K3 with one output and both measured vertices in the XZ plane."""
    graph = Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (0, 2), (1, 2)}))
    return ExtendedOpenGraph(
        graph, frozenset(), frozenset({0}), {1: Plane.XZ, 2: Plane.XZ}
    )


class TestFocus:
    def test_path_x(self, path_eog):
        g = Gflow({1: {2, 3}, 2: {3}})
        assert focus(path_eog, g, "X").assignments == {
            1: frozenset({2}),
            2: frozenset({3}),
        }

    def test_path_y(self, path_eog, path_gflow):
        focused = focus(path_eog, path_gflow, "Y")
        assert focused.assignments == {1: frozenset({2, 3}), 2: frozenset({3})}
        assert check_normal_form(path_eog, focused, "Y")

    def test_fixed_point(self, path_eog, path_gflow):
        assert check_normal_form(path_eog, path_gflow, "X")
        assert focus(path_eog, path_gflow, "X") == path_gflow

    def test_hypothesis_violation_names_vertex(self, star_eog):
        g = find_gflow(star_eog)
        assert g is not None
        # vertex 2 is measured YZ, so X-focusing must refuse
        with pytest.raises(ValueError, match="vertex 2"):
            focus(star_eog, g, "X")

    def test_rejects_invalid_gflow(self, path_eog):
        # g(1) = {3} breaks the XY condition at 1
        g = Gflow({1: {3}, 2: {3}})
        for sigma in "XY":
            with pytest.raises(ValueError, match="not a valid gflow: plane-XY"):
                focus(path_eog, g, sigma)

    def test_rejects_cyclic_map(self):
        # every plane condition holds, but f(1) and f(2) each hold the other
        graph = Graph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))
        eog = ExtendedOpenGraph(
            graph, frozenset(), frozenset({3}), {1: Plane.XY, 2: Plane.XY}
        )
        g = Gflow({1: {2}, 2: {1}})
        assert [v.condition for v in verify_gflow(eog, g).violations] == [
            "extensivity"
        ]
        with pytest.raises(ValueError, match="not a valid gflow: extensivity"):
            focus(eog, g, "X")

    def test_soundness_exhaustive_small(self):
        # Every |V| <= 3 instance with a gflow, every admissible sigma.
        for eog in all_instances(3):
            g = find_gflow(eog)
            if g is None:
                continue
            for sigma in "XYZ":
                if not all(
                    eog.planes[u].contains(sigma) for u in eog.measured_non_inputs
                ):
                    continue
                focused = focus(eog, g, sigma)
                assert verify_gflow(eog, focused).valid
                assert check_normal_form(eog, focused, sigma)

    def test_preserves_self_membership(self):
        rng = random.Random(7)
        seen = 0
        while seen < 80:
            eog = random_instance(rng, rng.randint(1, 5), force_input_xy=True)
            g = find_gflow(eog)
            if g is None:
                continue
            for sigma in "XYZ":
                if not all(
                    eog.planes[u].contains(sigma) for u in eog.measured_non_inputs
                ):
                    continue
                seen += 1
                focused = focus(eog, g, sigma)
                for u in eog.measured:
                    assert (u in focused[u]) == (u in g[u])
                    odd_f = odd_neighbourhood(eog.graph, focused[u])
                    odd_g = odd_neighbourhood(eog.graph, g[u])
                    assert (u in odd_f) == (u in odd_g)


class TestPromotions:
    def test_z_promotion_trivial_case(self):
        # u0 appears in nobody's corrector set: only the input set changes.
        graph = Graph(frozenset({1, 2}), frozenset({(1, 2)}))
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({2}), {1: Plane.XY})
        g = Gflow({1: {2}})
        assert verify_gflow(eog, g).valid and check_normal_form(eog, g, "Z")
        result = promote_input_z(eog, g, 1)
        assert result.gflow == g
        assert result.rewritten.inputs == {1}
        assert result.added_vertex is None

    @pytest.mark.parametrize("sigma", ["Z", "Y"])
    def test_randomized_promotions(self, sigma):
        rng = random.Random(101 if sigma == "Z" else 202)
        promote = promote_input_z if sigma == "Z" else promote_input_y
        for _ in range(25):
            eog, g, u0 = find_nf_instance(rng, sigma)
            count0, defect0, _ = check_defect_bound(eog, sigma)
            result = promote(eog, g, u0)
            new = result.rewritten
            assert verify_gflow(new, result.gflow).valid
            assert check_normal_form(new, result.gflow, sigma)
            count1, defect1, _ = check_defect_bound(new, sigma)
            assert count1 == count0 - 1
            assert defect1 == defect0 - 1

    def test_y_promotion_adds_dangling_vertex(self):
        rng = random.Random(303)
        eog, g, u0 = find_nf_instance(rng, "Y")
        result = promote_input_y(eog, g, u0)
        u1 = result.added_vertex
        assert u1 == max(eog.vertices) + 1
        assert result.rewritten.graph.neighbours(u1) == {u0}
        assert result.rewritten.planes[u0] is Plane.XY
        assert result.rewritten.planes[u1] is Plane.YZ
        assert result.gflow[u1] == result.gflow[u0] | {u1}

    def test_promotion_count_bounded_by_defect(self, probe):
        rng = random.Random(404)
        eog, g, _ = find_nf_instance(rng, "Z")
        defect = eog.input_defect
        calls = probe.calls("normal_forms.promote_input_z")
        _, _, steps = promote_all(eog, g, "Z")
        assert 1 <= len(steps) <= defect
        assert len(calls) == len(steps)  # each step is a call the probe sees

    def test_one_odd_mask_per_measured_vertex(self, probe):
        # The validity check and the Z-NF inclusion share each Odd(g(u)).
        rng = random.Random(505)
        eog, g, u0 = find_nf_instance(rng, "Z")
        while len(eog.measured) != 2:
            eog, g, u0 = find_nf_instance(rng, "Z")
        calls = probe.calls("opengraph.odd_mask")
        promote_input_z(eog, g, u0)
        assert len(calls) == 2

    def test_precondition_errors(self, path_eog, path_gflow):
        # path gflow is not Z-NF
        with pytest.raises(ValueError):
            promote_input_z(path_eog, path_gflow, 2)

    def test_input_not_promoted(self):
        # g(1) = {2} is a Z-NF gflow, but vertex 1 is an input already
        graph = Graph(frozenset({1, 2}), frozenset({(1, 2)}))
        eog = ExtendedOpenGraph(graph, frozenset({1}), frozenset({2}), {1: Plane.XY})
        with pytest.raises(ValueError, match="vertex 1 is not a measured non-input"):
            promote_input_z(eog, Gflow({1: {2}}), 1)

    def test_y_promotion_blocked_by_off_plane_neighbour(self):
        # Complete 3-vertex graph, one output, both measured vertices XZ:
        # the two XZ vertices are neighbours, so neither can be promoted.
        eog = _triangle()
        g = Gflow({1: {0, 1}, 2: {0, 2}})
        assert verify_gflow(eog, g).valid and check_normal_form(eog, g, "Y")
        with pytest.raises(ValueError, match="neighbour"):
            promote_input_y(eog, g, 1)


class TestDefectBound:
    def test_path_z(self, path_eog):
        # vertex 1 is an input, so only vertex 2 counts against the bound
        assert check_defect_bound(path_eog, "Z") == (1, 0, False)

    def test_all_planes_contain_sigma(self, star_eog):
        assert check_defect_bound(star_eog, "Z") == (0, 0, True)

    def test_sigma_x_rejected(self, path_eog):
        with pytest.raises(ValueError):
            check_defect_bound(path_eog, "X")

    def test_y_bound_not_necessary(self):
        # The Y comparison is diagnostic only: this instance exceeds the
        # bound yet carries a Y-NF gflow (empty symmetric differences).
        eog = _triangle()
        g = Gflow({1: {0, 1}, 2: {0, 2}})
        assert verify_gflow(eog, g).valid
        assert check_normal_form(eog, g, "Y")
        assert check_defect_bound(eog, "Y") == (2, 1, False)
        assert exists_normal_form(eog, "Y") is True

    def test_z_bound_sound_exhaustive(self):
        # No |V| <= 3 instance with a Z-NF gflow exceeds the bound.
        for eog in all_instances(3):
            count, defect, within = check_defect_bound(eog, "Z")
            if within:
                continue
            hit = brute_force_enumerate(eog, 100_000, nf_sigma="Z", stop_after=1)
            assert not hit.gflows
            assert hit.exhausted  # a search cut off by its limit decides nothing

    def test_z_bound_holds_on_random_instances(self):
        # Every Z-NF gflow the finder decides on 5-30 vertices keeps the bound.
        rng = random.Random(73)
        decided = 0
        for _ in range(2_000):
            n = rng.randint(5, 30)
            eog = random_instance(rng, n, rng.uniform(0.1, 0.6), force_input_xy=True)
            if exists_normal_form(eog, "Z"):
                decided += 1
                assert check_defect_bound(eog, "Z")[2]
        assert decided > 100

    def test_four_vertex_non_necessity_shape(self):
        # Search the 4-vertex family for an instance with one XZ-measured
        # non-input, defect 1, admitting a Y-NF gflow.
        found = None
        for eog in all_instances(4):
            if len(eog.vertices) < 4 or len(eog.inputs) != 1 or len(eog.outputs) != 2:
                continue
            off = [u for u in eog.measured_non_inputs if eog.planes[u] is Plane.XZ]
            if len(off) != 1:
                continue
            count, defect, ok = check_defect_bound(eog, "Y")
            if not (count == 1 and defect == 1 and ok):
                continue
            enum = brute_force_enumerate(eog, 100_000, nf_sigma="Y", stop_after=1)
            if enum.gflows:
                found = (eog, enum.gflows[0])
                break
        assert found is not None
        eog, g = found
        assert verify_gflow(eog, g).valid
        assert check_normal_form(eog, g, "Y")


class TestBalancedDecision:
    def test_path_z_false(self, path_eog):
        assert check_balanced_nf(path_eog, "Z") is False

    def test_path_y_true_with_witness(self, path_eog, path_gflow):
        assert check_balanced_nf(path_eog, "Y") is True
        focused = focus(path_eog, path_gflow, "Y")
        assert verify_gflow(path_eog, focused).valid
        assert check_normal_form(path_eog, focused, "Y")

    def test_star_x_exception(self, star_eog):
        # X-NF gflow exists although a non-input is measured off-X; the
        # equal-input-output equivalence is specific to Y and Z.
        g = Gflow({1: {3}, 2: {2, 3}})
        assert verify_gflow(star_eog, g).valid
        assert check_normal_form(star_eog, g, "X")
        assert exists_normal_form(star_eog, "X") is True

    def test_unbalanced_rejected(self):
        graph = Graph(frozenset({1, 2}), frozenset({(1, 2)}))
        eog = ExtendedOpenGraph(graph, frozenset(), frozenset({2}), {1: Plane.XY})
        with pytest.raises(ValueError):
            check_balanced_nf(eog, "Z")

    def test_instance_without_gflow_rejected(self):
        # one input, one output, no edge: Odd(g(1)) never holds vertex 1
        graph = Graph(frozenset({1, 2}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset({1}), frozenset({2}), {1: Plane.XY})
        with pytest.raises(ValueError, match="no gflow"):
            check_balanced_nf(eog, "Z")

    def test_matches_nf_existence_small(self):
        for eog in all_instances(3):
            if len(eog.inputs) != len(eog.outputs):
                continue
            if find_gflow(eog) is None:
                continue
            for sigma in ("Y", "Z"):
                assert check_balanced_nf(eog, sigma) == (
                    exists_normal_form(eog, sigma) is True
                )

    def test_matches_nf_existence_random(self):
        # Balanced instances on 5-30 vertices: the plane test is the finder's
        # sigma-NF verdict, which comes out both ways for Y and for Z.
        rng = random.Random(79)
        verdicts = set()
        for _ in range(8_000):
            n = rng.randint(5, 30)
            eog = random_instance(rng, n, rng.uniform(0.1, 0.6), force_input_xy=True)
            if len(eog.inputs) != len(eog.outputs) or find_gflow(eog) is None:
                continue
            for sigma in ("Y", "Z"):
                exists = exists_normal_form(eog, sigma)
                assert check_balanced_nf(eog, sigma) == exists
                verdicts.add((sigma, exists))
        assert len(verdicts) == 4
