import ast
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gflownf import (
    BranchLimitError,
    BranchResult,
    ExtendedOpenGraph,
    Gflow,
    Graph,
    Plane,
    Statevector,
    apply_correction,
    basis_state,
    check_determinism,
    extract_isometry,
    find_gflow,
    focus,
    measure,
    pattern_from_gflow,
    prepare,
    run_all_branches,
    strip_corrections,
)
import gflownf.sim as sim
from gflownf.sim import Pattern
from gflownf.gflow import CorrectiveMaps
from gflownf.instances import random_instance

import dense_reference as ref


def path_pattern(path_eog, path_gflow, angles):
    return pattern_from_gflow(path_eog, angles, path_gflow)


def path_graph(ids):
    return Graph(frozenset(ids), frozenset(zip(ids, ids[1:])))


def wide_path_pattern(k, n=20):
    """An XY path of n qubits, input 0, the first k measured."""
    eog = ExtendedOpenGraph(
        path_graph(list(range(n))), frozenset({0}), frozenset(range(k, n)),
        {u: Plane.XY for u in range(k)},
    )
    gflow = Gflow({u: {u + 1} for u in range(k)})
    return pattern_from_gflow(eog, {u: 0.3 + u for u in range(k)}, gflow)


class TestPrepare:
    def test_all_inputs_still_entangled(self):
        # no fresh qubits, but the edge phase still acts on the input pair
        graph = Graph(frozenset({0, 1}), frozenset({(0, 1)}))
        inp = Statevector((0, 1), np.array([0.5, 0.5, 0.5, -0.5]))
        out = prepare(graph, {0, 1}, inp)
        assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_single_plus_state(self):
        graph = Graph(frozenset({0}), frozenset())
        out = prepare(graph, frozenset(), Statevector((), [1.0]))
        assert np.allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_two_qubit_graph_state(self):
        graph = Graph(frozenset({0, 1}), frozenset({(0, 1)}))
        out = prepare(graph, frozenset(), Statevector((), [1.0]))
        assert np.allclose(out.amplitudes, np.array([1, 1, 1, -1]) / 2)

    def test_qubit_mismatch_rejected(self):
        graph = Graph(frozenset({0, 1}), frozenset())
        with pytest.raises(ValueError):
            prepare(graph, {0}, Statevector((1,), np.array([1.0, 0.0])))


class TestMeasure:
    def test_plus_state_x_measurement(self):
        state = Statevector((0,), np.array([1, 1]) / math.sqrt(2))
        prob, post = measure(state, 0, Plane.XY, 0.0, 0)
        assert prob == pytest.approx(1.0)
        assert post.qubits == ()

    def test_zero_state_z_measurement(self):
        state = basis_state((0,), 0)
        prob, _ = measure(state, 0, Plane.XZ, math.pi / 2, 0)
        assert prob == pytest.approx(1.0)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = Statevector((0, 1, 2), amps / np.linalg.norm(amps))
        for plane in Plane:
            alpha = rng.uniform(0, math.tau)
            p0, _ = measure(state, 1, plane, alpha, 0)
            p1, _ = measure(state, 1, plane, alpha, 1)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome_marks_empty_branch(self):
        state = basis_state((0,), 0)
        prob, post = measure(state, 0, Plane.XZ, math.pi / 2, 1)
        assert prob == 0.0 and post is None

    def test_absent_qubit_rejected(self):
        with pytest.raises(ValueError):
            measure(basis_state((0,), 0), 5, Plane.XY, 0.0, 0)


class TestApplyCorrection:
    def test_zero_signal_is_identity(self):
        state = basis_state((0, 1), 2)
        assert apply_correction(state, "X", {0}, 0) is state

    def test_x_flips_target_bit(self):
        state = basis_state((0, 1), 0b10)
        out = apply_correction(state, "X", {1}, 1)
        assert np.allclose(out.amplitudes, basis_state((0, 1), 0b11).amplitudes)

    def test_xz_anticommute_up_to_phase(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = Statevector((0, 1), amps / np.linalg.norm(amps))
        zx = apply_correction(apply_correction(state, "X", {0}, 1), "Z", {0}, 1)
        xz = apply_correction(apply_correction(state, "Z", {0}, 1), "X", {0}, 1)
        assert np.allclose(zx.amplitudes, -xz.amplitudes)
        assert np.linalg.norm(zx.amplitudes) == pytest.approx(1.0)

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError):
            apply_correction(basis_state((0,), 0), "Z", {3}, 1)



class TestPatternAngles:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, path_eog, path_gflow, bad):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.3, 2: 1.1})
        with pytest.raises(ValueError, match="angle of vertex 2"):
            Pattern(
                pattern.eog, {1: 0.3, 2: bad}, pattern.corrections, pattern.schedule
            )
        with pytest.raises(ValueError, match="angle of vertex 1"):
            pattern_from_gflow(path_eog, {1: bad, 2: 1.1}, path_gflow)


class TestArgumentChecks:
    """Malformed arguments of the simulator's entry points raise ValueError.
    Each call gets the path pattern, which measures 1 then 2 and corrects
    x(1) = {2}, z(1) = {3} and x(2) = {3}."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: Pattern(p.eog, p.angles, p.corrections, (1,)),
             "schedule must order"),
            (lambda p: Pattern(p.eog, {1: 0.3}, p.corrections, p.schedule),
             "angles must cover"),
            (lambda p: Pattern(
                p.eog, p.angles, CorrectiveMaps({1: {9}, 2: {3}}, p.corrections.z),
                p.schedule),
             "corrector 9 of 1 is not a vertex"),
            (lambda p: Pattern(p.eog, p.angles, p.corrections, (2, 1)),
             "corrector 2 of 1 would already"),
            (lambda p: Statevector((0, 1), [1.0, 0.0]), "length 2 does not match"),
            (lambda p: measure(basis_state((0,), 0), 0, Plane.XY, 0.0, 2),
             "signal must be 0 or 1"),
            (lambda p: measure(Statevector((0,), [0, 0]), 0, Plane.XY, 0.0, 0),
             "cannot measure a zero state"),
            (lambda p: apply_correction(basis_state((0,), 0), "Y", {0}, 1), "X or Z"),
            (lambda p: check_determinism([]), "no branch results"),
            (lambda p: check_determinism(
                [BranchResult({}, 0.0, basis_state((3,), 0))] * 2),
             "every branch has zero probability"),
            (lambda p: check_determinism(
                [BranchResult({}, 0.5, basis_state((q,), 0)) for q in (3, 4)]),
             "different registers"),
        ],
        ids=["bad-schedule", "missing-angle", "non-vertex-corrector",
             "measured-corrector", "statevector-shape", "signal-2", "zero-state",
             "pauli-Y", "no-results", "all-zero-branches", "mixed-registers"],
    )
    def test_rejected(self, path_eog, path_gflow, call, message):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.3, 2: 1.1})
        with pytest.raises(ValueError, match=message):
            call(pattern)


class TestRunAllBranches:
    def test_no_measurements(self):
        graph = Graph(frozenset({0}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset({0}), frozenset({0}), {})
        pattern = Pattern(eog, {}, CorrectiveMaps({}, {}), ())
        [result] = run_all_branches(pattern, basis_state((0,), 1))
        assert result.signals == {}
        assert result.probability == pytest.approx(1.0)
        assert np.allclose(result.output_state.amplitudes, [0, 1])

    def test_path_pattern_uniform_branches(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.0, 2: 0.0})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert len(results) == 4
        for result in results:
            assert result.probability == pytest.approx(0.25, abs=1e-9)

    def test_branch_probabilities_sum_to_one(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-9)

    def test_branches_share_no_signals_dict(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.4, 2: 1.3})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert len({id(r.signals) for r in results}) == len(results) == 4
        assert [r.signals for r in results] == [
            {1: a, 2: b} for a in (0, 1) for b in (0, 1)
        ]


class TestSchedule:
    """Every pattern is ordered by ``extensivity_order`` on its x(u) | z(u);
    tests/test_bitmask_core.py checks that order, and the schedules of gflow
    patterns, against the set reference."""

    def test_map_missing_a_measured_vertex(self, path_eog):
        maps = CorrectiveMaps({1: {2}}, {1: {3}, 2: set()})
        with pytest.raises(ValueError) as info:
            Pattern(path_eog, {1: 0.0, 2: 0.0}, maps, (1, 2))
        message = str(info.value)
        assert "must assign exactly the measured vertices [1, 2]" in message
        assert "got [1]" in message


class TestDeterminism:
    def test_gflow_pattern_deterministic(self, path_eog, path_gflow):
        rng = random.Random(9)
        for _ in range(5):
            angles = {1: rng.uniform(0.2, 6.0), 2: rng.uniform(0.2, 6.0)}
            pattern = path_pattern(path_eog, path_gflow, angles)
            report = check_determinism(
                run_all_branches(pattern, basis_state((1,), 0)), 1e-9
            )
            assert report.deterministic and report.strong

    def test_uncorrected_pattern_not_deterministic(self, path_eog, path_gflow):
        pattern = strip_corrections(
            path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        )
        report = check_determinism(
            run_all_branches(pattern, basis_state((1,), 0)), 1e-9
        )
        assert not report.deterministic

    def test_no_measurements_trivially_deterministic(self):
        graph = Graph(frozenset({0}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset({0}), frozenset({0}), {})
        pattern = Pattern(eog, {}, CorrectiveMaps({}, {}), ())
        report = check_determinism(run_all_branches(pattern, basis_state((0,), 0)))
        assert report.deterministic and report.strong

    def test_phase_invariance(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        results = run_all_branches(pattern, basis_state((1,), 0))
        rotated = [
            type(r)(
                r.signals,
                r.probability,
                Statevector(
                    r.output_state.qubits,
                    r.output_state.amplitudes * np.exp(1j * i),
                ),
            )
            for i, r in enumerate(results)
        ]
        assert check_determinism(results).to_dict() == check_determinism(
            rotated
        ).to_dict()

    @staticmethod
    def two_branches(a, b):
        qubits = tuple(range(a.size.bit_length() - 1))
        return [
            BranchResult({9: s}, 0.5, Statevector(qubits, amps))
            for s, amps in ((0, a), (1, b))
        ]

    def test_phase_aligned_distance_gated(self):
        # b is 1e-6 from a in norm, so 1 - |<a|b>| is only about 5e-13: the
        # overlap alone passes at 1e-9, the phase-aligned distance does not.
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([1.0, 1e-6j]) / math.hypot(1.0, 1e-6) * np.exp(0.7j)
        report = check_determinism(self.two_branches(a, b), 1e-9)
        assert report.max_state_deviation < 1e-12
        assert not report.deterministic
        assert check_determinism(self.two_branches(a, b), 2e-6).deterministic

    def test_phase_aligned_distance_has_no_rounding_floor(self):
        # sqrt(2 - 2|<a|b>|) would read about 1e-8 whenever rounding leaves
        # |<a|b>| one ulp below 1; the direct distance stays near 1e-16.
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=8) + 1j * rng.normal(size=8)
            a /= np.linalg.norm(a)
            b = a * np.exp(1j * rng.uniform(0, math.tau))
            assert check_determinism(self.two_branches(a, b), 1e-12).deterministic

    def test_orthogonal_outputs_not_deterministic(self):
        # <a|b> = 0 leaves the aligning phase undefined; no 0/0 may occur
        a, b = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        with np.errstate(all="raise"):
            report = check_determinism(self.two_branches(a, b), 1e-9)
        assert report.max_state_deviation == 1.0 and not report.deterministic

    def test_schedule_independence(self):
        # Two linear extensions of the order give the same outputs up to phase.
        # On the path 0 - 2 - 3 - 1 each input's corrections reach the other's
        # neighbour, but neither input depends on the other.
        eog = ExtendedOpenGraph(
            path_graph([0, 2, 3, 1]), frozenset({0, 1}), frozenset({2, 3}),
            {0: Plane.XY, 1: Plane.XY},
        )
        p1 = pattern_from_gflow(eog, {0: 1.1, 1: 0.4}, Gflow({0: {2}, 1: {3}}))
        p2 = Pattern(p1.eog, p1.angles, p1.corrections, (1, 0))
        assert p1.schedule == (0, 1) and p1.corrections.z == {0: {3}, 1: {2}}
        inp = random_input((0, 1), np.random.default_rng(5))
        first = run_all_branches(p1, inp)
        second = {frozenset(r.signals.items()): r for r in run_all_branches(p2, inp)}
        ref = first[0].output_state.amplitudes
        for r in first:
            other = second[frozenset(r.signals.items())]
            assert other.probability == pytest.approx(r.probability, abs=1e-12)
            for out in (r.output_state, other.output_state):
                assert out.qubits == (2, 3)
                assert abs(np.vdot(ref, out.amplitudes)) == pytest.approx(1.0, abs=1e-9)

    def test_branch_bound(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.0, 2: 0.0})
        with pytest.raises(BranchLimitError):
            run_all_branches(pattern, basis_state((1,), 0), branch_bound=1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_tolerance_must_be_finite_and_non_negative(self, path_eog, path_gflow, tol):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert check_determinism(results, 0.0).tolerance == 0.0
        with pytest.raises(ValueError, match="tolerance"):
            check_determinism(results, tol)


class TestIsometry:
    def test_retired_members_gone(self, path_eog, path_gflow):
        # no caller set a tolerance: the isometry certifies at STATE_TOL alone
        pattern = path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        with pytest.raises(TypeError):
            extract_isometry(pattern, 1e-9)
        assert not hasattr(Statevector, "norm")

    def test_identity_pattern(self):
        graph = Graph(frozenset({0, 1}), frozenset({(0, 1)}))
        eog = ExtendedOpenGraph(graph, frozenset({0, 1}), frozenset({0, 1}), {})
        pattern = Pattern(eog, {}, CorrectiveMaps({}, {}), ())
        # preparation applies the entangling phase between the two inputs,
        # so the implemented map is the diagonal phase gate, an isometry
        matrix = extract_isometry(pattern)
        assert np.allclose(matrix.conj().T @ matrix, np.eye(4), atol=1e-9)

    def test_cz_map_up_to_global_phase(self):
        graph = Graph(frozenset({0, 1}), frozenset({(0, 1)}))
        eog = ExtendedOpenGraph(graph, frozenset({0, 1}), frozenset({0, 1}), {})
        matrix = extract_isometry(Pattern(eog, {}, CorrectiveMaps({}, {}), ()))
        phase = matrix[0, 0]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(matrix, phase * np.diag([1, 1, 1, -1]), atol=1e-12)

    def test_matrix_maps_inputs_as_the_branches_do(self):
        # U @ psi equals every branch output of the reference on psi up to
        # one global phase, so the columns carry their relative phases.
        rng = random.Random(37)
        nrng = np.random.default_rng(37)
        checked = 0
        while checked < 200:
            eog = random_instance(rng, rng.randint(2, 7), force_input_xy=True)
            g = find_gflow(eog)
            if not 1 <= len(eog.inputs) <= 3 or g is None:
                continue
            checked += 1
            angles = {u: rng.uniform(0.1, 6.2) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            inp = random_input(tuple(sorted(eog.inputs)), nrng)
            mapped = extract_isometry(pattern) @ inp.amplitudes
            for _, _, amps in ref.branches(pattern, inp.amplitudes):
                assert_same_state(mapped, amps, 1e-12)

    def test_path_pattern_unitary(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.7, 2: 1.3})
        matrix = extract_isometry(pattern)
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix.conj().T @ matrix, np.eye(2), atol=1e-9)

    def test_focus_invariance(self, path_eog, path_gflow):
        angles = {1: 0.7, 2: 1.3}
        u_plain = extract_isometry(path_pattern(path_eog, path_gflow, angles))
        focused = focus(path_eog, path_gflow, "Y")
        u_focus = extract_isometry(pattern_from_gflow(path_eog, angles, focused))
        ref = u_focus.flat[np.argmax(np.abs(u_plain))]
        phase = ref / u_plain.flat[np.argmax(np.abs(u_plain))]
        assert np.allclose(u_focus, phase * u_plain, atol=1e-8)

    def test_non_deterministic_rejected(self, path_eog, path_gflow):
        pattern = strip_corrections(
            path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        )
        with pytest.raises(ValueError):
            extract_isometry(pattern)

    def test_random_gflow_instances_give_isometries(self):
        rng = random.Random(31)
        built = 0
        while built < 8:
            eog = random_instance(rng, rng.randint(2, 5), force_input_xy=True)
            if not 1 <= len(eog.measured) <= 4 or len(eog.inputs) > 2:
                continue
            g = find_gflow(eog)
            if g is None:
                continue
            built += 1
            angles = {u: rng.uniform(0.2, 6.0) for u in eog.measured}
            matrix = extract_isometry(pattern_from_gflow(eog, angles, g))
            dim_in = 2 ** len(eog.inputs)
            assert np.allclose(
                matrix.conj().T @ matrix, np.eye(dim_in), atol=1e-8
            )

    def test_certifies_the_walk_without_branch_results(
        self, probe, path_eog, path_gflow
    ):
        # inputs 0 and 1, joined, each on an XY-measured path to its own output
        edges = frozenset({(0, 1), (0, 2), (2, 4), (1, 3), (3, 5)})
        eog = ExtendedOpenGraph(
            Graph(frozenset(range(6)), edges), frozenset({0, 1}), frozenset({4, 5}),
            {u: Plane.XY for u in range(4)},
        )
        patterns = [
            path_pattern(path_eog, path_gflow, {1: 0.7, 2: 1.3}),
            pattern_from_gflow(eog, {0: 0.4, 1: 2.9, 2: 1.7, 3: 5.1}, find_gflow(eog)),
        ]
        want = [extract_isometry(p) for p in patterns]
        assert want[1].shape == (4, 4)
        probe.refuse("sim.BranchResult", "extract_isometry built a branch result")
        for pattern, matrix in zip(patterns, want):
            assert np.array_equal(extract_isometry(pattern), matrix)

    def test_branch_bound_checked_before_prepare(self, probe):
        # a 14-vertex XY path: 13 measured qubits, one past the default 12
        pattern = wide_path_pattern(13, n=14)
        probe.refuse("sim._prepare_rows", "prepare reached past the branch bound")
        with pytest.raises(BranchLimitError) as info:
            extract_isometry(pattern)
        assert info.value.limit == {"measured": 13, "branch_bound": 12}


def replay(pattern, state, signals):
    """One branch through the public kernels, looked up on the module so a
    test can swap them: measure u, then on outcome 1 apply X, then Z."""
    prob = 1.0
    for u in pattern.schedule:
        s = signals[u]
        p, state = sim.measure(state, u, pattern.eog.planes[u], pattern.angles[u], s)
        if state is None:
            out = tuple(sorted(pattern.eog.outputs))
            return BranchResult(signals, 0.0, Statevector(out, np.zeros(2 ** len(out))))
        if s:
            state = sim.apply_correction(state, "X", pattern.corrections.x[u], s)
            state = sim.apply_correction(state, "Z", pattern.corrections.z[u], s)
        prob *= p
    return BranchResult(signals, prob, state)


def assert_bit_identical(results, expected):
    assert len(results) == len(expected)
    for r, e in zip(results, expected):
        assert list(r.signals.items()) == list(e.signals.items())
        assert r.probability == e.probability
        assert r.output_state.qubits == e.output_state.qubits
        assert np.array_equal(r.output_state.amplitudes, e.output_state.amplitudes)


def assert_same_state(got, want, tol):
    """``got`` turned by its global phase against ``want`` is within ``tol``
    of it, amplitude by amplitude."""
    overlap = np.vdot(got, want)
    turned = got * (overlap / abs(overlap))
    assert np.max(np.abs(turned - want)) <= tol


def assert_reference_branch(result, want, tol=1e-12):
    """A `BranchResult` against the reference's (probability, qubits, state):
    the probability within ``tol``, the same zero-probability verdict, and a
    live output equal up to global phase within ``tol``."""
    prob, qubits, amps = want
    assert abs(result.probability - prob) <= tol
    assert result.output_state.qubits == qubits
    assert (amps is None) == (result.probability == 0.0)
    if amps is None:
        assert not result.output_state.amplitudes.any()
    else:
        assert_same_state(result.output_state.amplitudes, amps, tol)


def assert_matches_reference(results, pattern, input_state):
    """Every branch of the walk against the reference's run of it."""
    want = ref.branches(pattern, input_state.amplitudes)
    assert len(results) == len(want)
    for result, branch in zip(results, want):
        assert_reference_branch(result, branch)


def random_input(in_qubits, rng):
    re, im = rng.normal(size=(2, 2 ** len(in_qubits)))
    amps = re + 1j * im
    return Statevector(in_qubits, amps / np.linalg.norm(amps))


@pytest.fixture
def zero_branch_pattern():
    """Isolated input 0 in |0> measured along Z: outcome 1 never occurs."""
    graph = Graph(frozenset({0, 1, 2}), frozenset({(1, 2)}))
    eog = ExtendedOpenGraph(
        graph, frozenset({0}), frozenset({2}), {0: Plane.XZ, 1: Plane.XY}
    )
    empty = {0: frozenset(), 1: frozenset()}
    pattern = Pattern(
        eog, {0: math.pi / 2, 1: 0.7}, CorrectiveMaps(empty, dict(empty)), (0, 1)
    )
    return pattern, basis_state((0,), 0)


class TestSharedPrefixWalk:
    PAULI_ANGLES = (0.0, math.pi / 2, math.pi)

    def test_matches_reference_on_random_patterns(self):
        rng = random.Random(17)
        nrng = np.random.default_rng(17)
        checked = 0
        while checked < 120:
            eog = random_instance(rng, rng.randint(2, 7), force_input_xy=True)
            if len(eog.inputs) > 3:
                continue
            g = find_gflow(eog)
            if g is None:
                continue
            checked += 1
            pauli = checked % 2 == 0
            angles = {
                u: rng.choice(self.PAULI_ANGLES) if pauli else rng.uniform(0.1, 6.2)
                for u in eog.measured
            }
            pattern = pattern_from_gflow(eog, angles, g)
            in_qubits = tuple(sorted(eog.inputs))
            for p in (pattern, strip_corrections(pattern)):
                for inp in (basis_state(in_qubits, 0), random_input(in_qubits, nrng)):
                    results = run_all_branches(p, inp)
                    assert_matches_reference(results, p, inp)

    def test_zero_probability_subtree(self, zero_branch_pattern):
        pattern, inp = zero_branch_pattern
        results = run_all_branches(pattern, inp)
        assert_matches_reference(results, pattern, inp)
        zero = [tuple(r.signals.values()) for r in results if r.probability == 0.0]
        assert zero == [(1, 0), (1, 1)]
        for r in results[2:]:
            assert r.output_state.qubits == (2,)
            assert not r.output_state.amplitudes.any()

    def test_row_kernel_calls_per_level(self, probe):
        # one call per outcome per measured qubit, over every prefix at once
        graph = Graph(
            frozenset(range(5)), frozenset((i, i + 1) for i in range(4))
        )
        eog = ExtendedOpenGraph(
            graph, frozenset({0}), frozenset({4}), {u: Plane.XY for u in range(4)}
        )
        angles = {0: 0.3, 1: 1.1, 2: 2.5, 3: 4.0}
        pattern = pattern_from_gflow(eog, angles, find_gflow(eog))
        calls = probe.calls("sim._measure_rows")
        results = run_all_branches(pattern, basis_state((0,), 0))
        assert len(results) == 16
        assert all(r.probability > 0 for r in results)
        assert [len(rows) for rows, *_ in calls] == [1, 1, 2, 2, 4, 4, 8, 8]

    def test_zero_rows_take_no_extra_calls(self, probe, zero_branch_pattern):
        pattern, inp = zero_branch_pattern
        calls = probe.calls("sim._measure_rows")
        run_all_branches(pattern, inp)
        assert [len(rows) for rows, *_ in calls] == [1, 1, 2, 2]

    @pytest.mark.parametrize("k", [10, 12])
    def test_matches_reference_deep(self, k):
        # deeper than any benchmark pattern: an XY path with one input
        rng = random.Random(k)
        planes = {u: Plane.XY for u in range(k)}
        eog = ExtendedOpenGraph(
            path_graph(list(range(k + 1))), frozenset({0}), frozenset({k}), planes
        )
        angles = {u: rng.uniform(0.1, 6.2) for u in range(k)}
        pattern = pattern_from_gflow(eog, angles, find_gflow(eog))
        inp = random_input((0,), np.random.default_rng(k))
        results = run_all_branches(pattern, inp)
        assert len(results) == 2**k
        assert_matches_reference(results, pattern, inp)

    def test_batched_rows_end_as_walks_of_their_own(self):
        # Without outputs the last level leaves one amplitude per row, and
        # numpy rounds a run of one-element products unlike each alone. The
        # bra of outcome 0 at this XY angle, measured last, has a complex
        # leading entry, which shows the difference in the last bit.
        alpha = 1.9502076290814576
        assert sim._bras(Plane.XY, alpha)[0][2].imag != 0
        rng = random.Random(61)
        plus = Statevector((0,), [math.sqrt(0.5)] * 2)
        inputs = (basis_state((0,), 0), basis_state((0,), 1), plus)
        for _ in range(40):
            n = rng.randint(1, 7)
            pairs = list(itertools.combinations(range(n), 2))
            edges = frozenset(rng.sample(pairs, len(pairs) // 2))
            planes = {u: rng.choice(list(Plane)) for u in range(n - 1)}
            eog = ExtendedOpenGraph(
                Graph(frozenset(range(n)), edges), frozenset({0}), frozenset(),
                {**planes, n - 1: Plane.XY},
            )
            angles = {u: rng.uniform(0.1, 6.2) for u in range(n - 1)}
            empty = {u: frozenset() for u in range(n)}
            maps = CorrectiveMaps(empty, empty)
            pattern = Pattern(eog, {**angles, n - 1: alpha}, maps, tuple(range(n)))
            _, probs, rows = sim._walk(pattern, inputs)
            m = 2**n
            for r, inp in enumerate(inputs):
                _, want_probs, want_rows = sim._walk(pattern, (inp,))
                assert probs[r * m : (r + 1) * m].tobytes() == want_probs.tobytes()
                assert rows[r * m : (r + 1) * m].tobytes() == want_rows.tobytes()
                assert_matches_reference(run_all_branches(pattern, inp), pattern, inp)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_peak_memory_under_three_registers(self, k):
        # two level buffers and a half-size scratch buffer, whatever k is
        n = 20
        pattern = wide_path_pattern(k, n)
        inp = basis_state((0,), 1)
        tracemalloc.start()
        try:
            results = run_all_branches(pattern, inp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 2**k
        assert peak < 3 * 16 * 2**n

    def test_input_state_unchanged(self, path_eog, path_gflow):
        pattern = pattern_from_gflow(path_eog, {1: 0.3, 2: 1.1}, path_gflow)
        inp = random_input((1,), np.random.default_rng(67))
        before = inp.amplitudes.copy()
        run_all_branches(pattern, inp)
        assert np.array_equal(inp.amplitudes, before)


class TestTensorPrepare:
    """prepare equals the reference's register byte for byte: the level
    walk's bit-identity depends even on the sign of an exact zero, which
    np.array_equal ignores."""

    @staticmethod
    def assert_same(graph, inputs, input_state):
        got = prepare(graph, inputs, input_state)
        qubits, want = ref.register(
            graph.vertices, graph.edges, inputs, input_state.amplitudes
        )
        assert got.qubits == qubits
        assert got.amplitudes.tobytes() == want.tobytes()

    def test_census_graphs(self):
        nrng = np.random.default_rng(41)
        checked = 0
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for edge_bits in range(1 << len(pairs)):
                graph = Graph(
                    frozenset(range(n)),
                    frozenset(p for i, p in enumerate(pairs) if edge_bits >> i & 1),
                )
                for r in range(n + 1):
                    for inputs in itertools.combinations(range(n), r):
                        for x in range(2**r):
                            self.assert_same(graph, inputs, basis_state(inputs, x))
                        self.assert_same(graph, inputs, random_input(inputs, nrng))
                        checked += 1
        assert checked == 1 + 2 + 2 * 4 + 8 * 8 + 64 * 16

    def test_random_instances_with_permuted_ids(self):
        rng = random.Random(43)
        nrng = np.random.default_rng(43)
        for _ in range(1000):
            eog = random_instance(rng, rng.randint(0, 10))
            # non-contiguous ids in an order unrelated to the drawn one
            ids = rng.sample(range(100), len(eog.vertices))
            relabel = dict(zip(sorted(eog.vertices), ids))
            graph = Graph(
                frozenset(relabel.values()),
                frozenset((relabel[u], relabel[v]) for u, v in eog.graph.edges),
            )
            inputs = tuple(sorted(relabel[v] for v in eog.inputs))
            self.assert_same(graph, inputs, random_input(inputs, nrng))
            x = rng.randrange(2 ** len(inputs))
            self.assert_same(graph, inputs, basis_state(inputs, x))

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_wide_paths(self, n):
        rng = random.Random(n)
        ids = rng.sample(range(3 * n), n)
        graph = path_graph(ids)
        inputs = tuple(sorted(rng.sample(ids, 2)))
        self.assert_same(graph, inputs, basis_state(inputs, 1))
        self.assert_same(graph, inputs, random_input(inputs, np.random.default_rng(n)))

    def test_peak_memory_is_one_register(self):
        graph = path_graph(list(range(20)))
        inp = basis_state((0,), 0)
        state_bytes = 16 * 2**20
        tracemalloc.start()
        try:
            prepare(graph, (0,), inp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the register and its 2**n-byte parity table: 1 + 1/16 registers
        assert peak < 1.125 * state_bytes

    def test_unallocatable_parity_table(self, no_parity_table):
        with pytest.raises(BranchLimitError, match="3 qubits") as err:
            prepare(path_graph([0, 1, 2]), (0,), basis_state((0,), 1))
        assert err.value.limit == {"qubits": 3}

    @pytest.mark.parametrize("n", [62, 64])
    def test_register_numpy_cannot_represent(self, n):
        # numpy refuses 2**n amplitudes with ValueError before allocating
        with pytest.raises(BranchLimitError, match=f"{n} qubits") as err:
            prepare(path_graph(list(range(n))), (0,), basis_state((0,), 0))
        assert err.value.limit == {"qubits": n}

    def test_width_bound_checked_before_prepare(self, probe):
        # 40 qubits, one measured: the register would take 16 * 2**40 bytes
        n = 40
        eog = ExtendedOpenGraph(
            path_graph(list(range(n))),
            frozenset(),
            frozenset(range(1, n)),
            {0: Plane.XY},
        )
        pattern = pattern_from_gflow(eog, {0: 0.4}, Gflow({0: {1}}))
        probe.refuse("sim._prepare_rows", "prepare reached past the width bound")
        with pytest.raises(BranchLimitError, match="40 qubits"):
            run_all_branches(pattern, basis_state((), 0))
        with pytest.raises(BranchLimitError):
            extract_isometry(pattern)
        with pytest.raises(BranchLimitError):
            run_all_branches(pattern, basis_state((), 0), max_qubits=n - 1)
        assert sim.DEFAULT_MAX_QUBITS == 24


class TestWalkRows:
    """The walk's rows as they come in and out: one parity table signs the
    register of every input as the reference signs each, and
    `run_all_branches` wraps each output row unchecked, exactly as a checked
    `Statevector` would hold it."""

    @staticmethod
    def assert_wrapped(pattern, results):
        qubits = results[0].output_state.qubits
        assert qubits == tuple(sorted(pattern.eog.outputs))
        for r in results:
            state = r.output_state
            assert state.qubits is qubits  # one tuple, shared by every result
            assert state.amplitudes.dtype == np.complex128
            assert state.amplitudes.shape == (2 ** len(qubits),)
            checked = Statevector(state.qubits, state.amplitudes)
            assert checked.qubits == state.qubits
            assert checked.amplitudes.tobytes() == state.amplitudes.tobytes()

    def test_random_patterns(self):
        rng = random.Random(103)
        nrng = np.random.default_rng(103)
        checked = 0
        while checked < 200:
            eog = random_instance(rng, rng.randint(1, 8), force_input_xy=True)
            g = find_gflow(eog)
            if g is None or len(eog.inputs) > 4:
                continue
            checked += 1
            angles = {u: rng.uniform(0.1, 6.2) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            inp = random_input(tuple(sorted(eog.inputs)), nrng)
            for p in (pattern, strip_corrections(pattern)):
                self.assert_wrapped(p, run_all_branches(p, inp))

    @pytest.mark.parametrize("n_inputs", range(4))
    def test_rows_match_the_reference(self, n_inputs):
        rng = random.Random(107 + n_inputs)
        nrng = np.random.default_rng(107 + n_inputs)
        for _ in range(40):
            ids = rng.sample(range(50), rng.randint(max(n_inputs, 1), 9))
            pairs = list(itertools.combinations(ids, 2))
            edges = frozenset(p for p in pairs if rng.random() < 0.4)
            graph = Graph(frozenset(ids), edges)
            inputs = tuple(sorted(rng.sample(ids, n_inputs)))
            states = [basis_state(inputs, x) for x in range(2**n_inputs)]
            states += [random_input(inputs, nrng) for _ in range(2)]
            rows = sim._prepare_rows(graph, inputs, states)
            assert rows.shape == (len(states), 2 ** len(ids))
            for row, state in zip(rows, states):
                _, want = ref.register(ids, edges, inputs, state.amplitudes)
                assert row.tobytes() == want.tobytes()

    def test_rows_refuse_a_state_off_the_inputs(self):
        graph = path_graph([0, 1, 2])
        states = [basis_state((0,), 1), basis_state((1,), 0)]
        with pytest.raises(ValueError, match="exactly on the input qubits"):
            sim._prepare_rows(graph, (0,), states)


def isometry_or_error(pattern):
    """extract_isometry's matrix, or the message of the ValueError it raises."""
    try:
        return extract_isometry(pattern)
    except ValueError as err:
        return str(err)


def assert_same_isometry(monkeypatch, pattern):
    """extract_isometry equals its walk of one input at a time, with
    ``sim._BATCH`` at 1, byte for byte, or raises the same error."""
    got = isometry_or_error(pattern)
    with monkeypatch.context() as m:
        m.setattr(sim, "_BATCH", 1)
        want = isometry_or_error(pattern)
    if isinstance(want, str):
        assert isinstance(got, str) and got == want
        return False
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return True


class TestRowBatchedIsometry:
    """extract_isometry walks its inputs as rows of as few walks as fit in
    sim._BATCH amplitudes, bit for bit as one walk per input, which a
    ``_BATCH`` of 1 gives."""

    def test_matches_per_input_walks_on_random_patterns(self, monkeypatch):
        rng = random.Random(73)
        per_inputs = dict.fromkeys(range(4), 0)
        passed = 0
        while min(per_inputs.values()) < 40:
            eog = random_instance(rng, rng.randint(1, 7), force_input_xy=True)
            if len(eog.inputs) > 3 or per_inputs[len(eog.inputs)] >= 40:
                continue
            g = find_gflow(eog)
            if g is None:
                continue
            per_inputs[len(eog.inputs)] += 1
            pauli = sum(per_inputs.values()) % 2 == 0
            angles = {
                u: rng.choice(TestSharedPrefixWalk.PAULI_ANGLES)
                if pauli else rng.uniform(0.1, 6.2)
                for u in eog.measured
            }
            pattern = pattern_from_gflow(eog, angles, g)
            passed += assert_same_isometry(monkeypatch, pattern)
            assert_same_isometry(monkeypatch, strip_corrections(pattern))
        assert passed == 160  # every corrected pattern is an isometry

    def test_zero_probability_rows(self, monkeypatch, zero_branch_pattern):
        pattern, _ = zero_branch_pattern
        assert not assert_same_isometry(monkeypatch, pattern)
        # X on output 2 corrects vertex 1; vertex 0 is measured away, so
        # each basis input certifies on a subset of its rows
        none = {0: frozenset(), 1: frozenset()}
        x = {0: frozenset(), 1: frozenset({2})}
        pattern = Pattern(
            pattern.eog, pattern.angles, CorrectiveMaps(x, none), pattern.schedule
        )
        for bits in (0, 1):
            probs = sim._walk(pattern, (basis_state((0,), bits),))[1]
            assert probs.tolist().count(0.0) == 2
        assert assert_same_isometry(monkeypatch, pattern)

    def test_without_outputs(self, monkeypatch):
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randint(1, 7)
            pairs = list(itertools.combinations(range(n), 2))
            graph = Graph(frozenset(range(n)), frozenset(rng.sample(pairs, len(pairs) // 2)))
            inputs = frozenset(rng.sample(range(n), rng.randint(0, min(n, 3))))
            planes = {u: Plane.XY if u in inputs else rng.choice(list(Plane)) for u in range(n)}
            eog = ExtendedOpenGraph(graph, inputs, frozenset(), planes)
            empty = {u: frozenset() for u in range(n)}
            angles = {u: rng.uniform(0.1, 6.2) for u in range(n)}
            pattern = Pattern(eog, angles, CorrectiveMaps(empty, empty), tuple(range(n)))
            # one amplitude per row: every output is the same state up to phase
            assert assert_same_isometry(monkeypatch, pattern)

    def test_chunk_boundary_splits_the_inputs(self, monkeypatch, probe):
        rng = random.Random(71)
        walks = probe.calls("sim._walk")
        checked = 0
        while checked < 12:
            n = 12 + checked % 2
            draw = random_instance(rng, n)
            inputs = frozenset(rng.sample(range(n), 2 + checked % 3 // 2))
            if not draw.outputs or len(draw.outputs) < n - sim.DEFAULT_BRANCH_BOUND:
                continue
            planes = {u: Plane.XY if u in inputs else p for u, p in draw.planes.items()}
            eog = ExtendedOpenGraph(draw.graph, inputs, draw.outputs, planes)
            g = find_gflow(eog)
            if g is None:
                continue
            checked += 1
            angles = {u: rng.uniform(0.1, 6.2) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            assert assert_same_isometry(monkeypatch, pattern)
            assert_same_isometry(monkeypatch, strip_corrections(pattern))
            walks.clear()
            extract_isometry(pattern)
            sizes = [len(states) for _, states, *_ in walks]
            per_walk = sim._BATCH >> n  # 4 inputs of 2**12 amplitudes, 2 of 2**13
            assert len(sizes) > 1 and sum(sizes) == 2 ** len(inputs) + 1
            assert sizes[:-1] == [per_walk] * (len(sizes) - 1)

    def test_one_walk_on_small_registers(self, probe):
        # inputs 0 and 1, joined, each on an XY-measured path to its own output
        edges = frozenset({(0, 1), (0, 2), (2, 4), (1, 3), (3, 5)})
        eog = ExtendedOpenGraph(
            Graph(frozenset(range(6)), edges), frozenset({0, 1}), frozenset({4, 5}),
            {u: Plane.XY for u in range(4)},
        )
        pattern = pattern_from_gflow(eog, {0: 0.4, 1: 2.9, 2: 1.7, 3: 5.1}, find_gflow(eog))
        walks = probe.calls("sim._walk")
        calls = probe.calls("sim._measure_rows")
        extract_isometry(pattern)
        # one walk of the four basis inputs and the superposition
        assert [len(states) for _, states, *_ in walks] == [5]
        assert [len(rows) for rows, *_ in calls] == [5, 5, 10, 10, 20, 20, 40, 40]

    def test_wide_register_walks_one_input_at_a_time(self, probe):
        walks = probe.calls("sim._walk")
        calls = probe.calls("sim._measure_rows")
        extract_isometry(wide_path_pattern(2))
        assert [len(states) for _, states, *_ in walks] == [1, 1, 1]
        assert [len(rows) for rows, *_ in calls] == [1, 1, 2, 2] * 3

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_peak_memory_on_a_wide_register(self, k):
        # two level buffers, a half-size scratch buffer and the columns, but
        # no copy of the live rows, which took 3.5 registers at k = 2
        pattern = wide_path_pattern(k)
        tracemalloc.start()
        try:
            extract_isometry(pattern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * 16 * 2**20

    def test_refused_on_the_superposition_alone(self):
        # deterministic on |0> and on |1>, but not on |+>: without its
        # corrections the outcome-1 branch differs by a phase that depends
        # on the input
        eog = ExtendedOpenGraph(
            path_graph([0, 1]), frozenset({0}), frozenset({1}), {0: Plane.XY}
        )
        pattern = strip_corrections(pattern_from_gflow(eog, {0: 0.7}, Gflow({0: {1}})))
        for x in (0, 1):
            report = check_determinism(run_all_branches(pattern, basis_state((0,), x)))
            assert report.deterministic
        with pytest.raises(ValueError, match="not deterministic on a superposed input"):
            extract_isometry(pattern)


def bras_eigenvectors(plane, alpha):
    """`_bras`'s eigenvectors, unconjugated, as arrays: outcome 0, then 1."""
    cols = []
    for i, r, c in sim._bras(plane, alpha):
        col = [0j, 0j]
        col[i], col[1 - i] = c, r * c
        cols.append(np.conj(col))
    return cols


class TestClosedFormBases:
    """`_bras`'s closed-form eigenvectors against `np.linalg.eigh`'s.

    Each column is a unit eigenvector of the plane observable for the
    eigenvalue (-1)**s of its outcome, and spans eigh's eigenvector for that
    eigenvalue, each within 1e-15; the phase is the closed form's own. The
    sweep covers generic angles, every multiple of pi/2 and its neighbours,
    where eigh splits the observable into basis vectors, YZ angles with
    cos < 0, and the subnormal angles next to 0.
    """

    def test_matches_eigh(self):
        rng = random.Random(89)
        angles = [rng.uniform(0, math.tau) for _ in range(2000)]
        for k in range(-4, 9):
            m = k * math.pi / 2
            angles.append(m)
            for d in (1e-9, 1e-12, 1e-15):
                angles += [m - d, m + d]
            up = down = m
            for _ in range(3 if k else 0):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                angles += [up, down]
        tiny = [math.ulp(0.0) * j for j in (1, 2, 3, 2**20)] + [2.0**-1022, 1e-310]
        angles += tiny + [-a for a in tiny]
        cos_negative = [rng.uniform(math.pi / 2, 3 * math.pi / 2) for _ in range(500)]
        residual = norm_error = misalign = 0.0
        checked = 0
        for plane in Plane:
            for alpha in angles + (cos_negative if plane is Plane.YZ else []):
                observable = ref.plane_observable(plane, alpha)
                cols = ref.eigh_eigenvectors(plane, alpha)
                for s, got in enumerate(bras_eigenvectors(plane, alpha)):
                    step = observable @ got - (-1) ** s * got
                    residual = max(residual, np.max(np.abs(step)))
                    norm_error = max(norm_error, abs(np.linalg.norm(got) - 1))
                    misalign = max(misalign, 1 - abs(np.vdot(cols[s], got)))
                    checked += 1
        assert checked == 2 * (3 * len(angles) + 500)
        assert residual <= 1e-15
        assert norm_error <= 1e-15
        assert misalign <= 1e-15


class TestLeanKernels:
    """`measure` and `apply_correction` against the reference, step by step.

    Measurements agree to 1e-14 in probability and, once the post state is
    turned by its global phase against the reference's, per amplitude, with
    the same zero-probability verdicts; corrections agree exactly, since the
    Pauli matrices only move and negate amplitudes. Kernel and reference
    read the same input state, which the kernel must leave unchanged.
    """

    ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)

    @staticmethod
    def check_measure(state, u, plane, alpha, s, counts):
        before = state.amplitudes.copy()
        prob, post = measure(state, u, plane, alpha, s)
        want_prob, qubits, want = ref.project(
            state.qubits, state.amplitudes, u, plane, alpha, s
        )
        assert np.array_equal(state.amplitudes, before)
        assert (post is None) == (want is None)
        assert abs(prob - want_prob) <= 1e-14
        counts["measure"] += 1
        if post is None:
            assert prob == 0.0
            counts["zero"] += 1
        else:
            assert post.qubits == qubits
            assert_same_state(post.amplitudes, want, 1e-14)
        return prob, post

    @staticmethod
    def check_correction(state, pauli, targets, s, counts):
        before = state.amplitudes.copy()
        out = apply_correction(state, pauli, targets, s)
        want = ref.correct(state.qubits, state.amplitudes, pauli, targets if s else ())
        assert np.array_equal(state.amplitudes, before)
        assert out.qubits == state.qubits
        assert np.array_equal(out.amplitudes, want)
        counts[pauli] += bool(s and targets)
        return out

    def test_random_states(self):
        rng = random.Random(59)
        nrng = np.random.default_rng(59)
        counts = dict.fromkeys(("measure", "zero", "X", "Z"), 0)
        for i in range(1000):
            n = 2 + i % 10
            qubits = tuple(sorted(rng.sample(range(30), n)))
            amps = nrng.normal(size=2**n) + 1j * nrng.normal(size=2**n)
            p = rng.randrange(n)
            if i % 3 == 0:  # qubit p in |0>: its Z measurement has a zero outcome
                amps.reshape(2**p, 2, -1)[:, 1] = 0
            state = Statevector(qubits, amps / np.linalg.norm(amps))
            for s in (0, 1):
                self.check_measure(state, qubits[p], Plane.XZ, math.pi / 2, s, counts)
                for u in qubits:
                    plane = rng.choice(list(Plane))
                    alpha = rng.choice(self.ANGLES + (rng.uniform(0, math.tau),))
                    self.check_measure(state, u, plane, alpha, s, counts)
            for pauli in "XZ":
                targets = rng.sample(qubits, rng.randint(0, n))
                for s in (0, 1):
                    self.check_correction(state, pauli, targets, s, counts)
        assert min(counts.values()) > 300, counts


def test_census_patterns(monkeypatch, small_sweep):
    """One pass over every |V| <= 4 pattern, each built once with Pauli
    angles. The walk's rows are wrapped as checked states would hold them.
    One random branch, replayed through `measure` and `apply_correction`
    with each step checked against the reference, equals its walk row bit
    for bit, and the reference's own run of it within 1e-12; every 16th
    pattern matches the reference on every branch. A gflow makes every
    outcome live."""
    counts = dict.fromkeys(("measure", "zero", "X", "Z"), 0)
    kernels = TestLeanKernels
    monkeypatch.setattr(
        sim, "measure", lambda *args: kernels.check_measure(*args, counts)
    )
    monkeypatch.setattr(
        sim, "apply_correction", lambda *args: kernels.check_correction(*args, counts)
    )
    rng = random.Random(53)
    for i, (eog, g) in enumerate(small_sweep):
        angles = {u: rng.choice(kernels.ANGLES) for u in eog.measured}
        pattern = pattern_from_gflow(eog, angles, g)
        inp = basis_state(tuple(sorted(eog.inputs)), 0)
        results = run_all_branches(pattern, inp)
        TestWalkRows.assert_wrapped(pattern, results)
        one = results[rng.randrange(len(results))]
        prepared = prepare(eog.graph, eog.inputs, inp)
        assert_bit_identical([replay(pattern, prepared, one.signals)], [one])
        if i % 16:
            start = ref.prepared(pattern, inp.amplitudes)
            assert_reference_branch(one, ref.branch(pattern, start, one.signals))
        else:
            assert_matches_reference(results, pattern, inp)
    assert len(small_sweep) == 15962
    assert counts["zero"] == 0
    assert min(counts["measure"], counts["X"], counts["Z"]) > 1000, counts


def test_reference_imports_only_math_and_numpy():
    # a reference that imported the simulator could share the kernels it checks
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"math", "numpy"}
