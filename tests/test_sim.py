import functools
import itertools
import math
import random
import tracemalloc
from dataclasses import replace

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
    brute_force_enumerate,
    check_determinism,
    extract_isometry,
    find_gflow,
    focus,
    measure,
    pattern_from_gflow,
    prepare,
    run_all_branches,
    run_branch,
    strip_corrections,
)
import gflownf.sim as sim
from gflownf.sim import Pattern
from gflownf.gflow import CorrectiveMaps, _valid
from gflownf.instances import all_instances, random_instance


def path_pattern(path_eog, path_gflow, angles):
    return pattern_from_gflow(path_eog, angles, path_gflow)


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
        assert zx.norm() == pytest.approx(1.0)

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError):
            apply_correction(basis_state((0,), 0), "Z", {3}, 1)



class TestPatternAngles:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, path_eog, path_gflow, bad):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.3, 2: 1.1})
        with pytest.raises(ValueError, match="angle of vertex 2"):
            replace(pattern, angles={1: 0.3, 2: bad})
        with pytest.raises(ValueError, match="angle of vertex 1"):
            pattern_from_gflow(path_eog, {1: bad, 2: 1.1}, path_gflow)


class TestRunBranch:
    def test_no_measurements(self):
        graph = Graph(frozenset({0}), frozenset())
        eog = ExtendedOpenGraph(graph, frozenset({0}), frozenset({0}), {})
        pattern = Pattern(eog, {}, CorrectiveMaps({}, {}), ())
        result = run_branch(pattern, basis_state((0,), 1), {})
        assert result.probability == pytest.approx(1.0)
        assert np.allclose(result.output_state.amplitudes, [0, 1])

    def test_path_pattern_uniform_branches(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.0, 2: 0.0})
        inp = basis_state((1,), 0)
        for signals in ({1: 0, 2: 0}, {1: 0, 2: 1}, {1: 1, 2: 0}, {1: 1, 2: 1}):
            result = run_branch(pattern, inp, signals)
            assert result.probability == pytest.approx(0.25, abs=1e-9)

    def test_branch_probabilities_sum_to_one(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-9)

    def test_signal_mismatch_rejected(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.0, 2: 0.0})
        with pytest.raises(ValueError):
            run_branch(pattern, basis_state((1,), 0), {1: 0})

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_signal_outside_zero_one_rejected(self, path_eog, path_gflow, bad):
        # the walk indexes each outcome's bra by its signal, so both must be refused
        pattern = path_pattern(path_eog, path_gflow, {1: 0.0, 2: 0.0})
        with pytest.raises(ValueError, match="signal must be 0 or 1"):
            run_branch(pattern, basis_state((1,), 0), {1: bad, 2: 0})

    def test_result_keeps_its_own_signals(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.4, 2: 1.3})
        signals = {1: 1, 2: 0}
        result = run_branch(pattern, basis_state((1,), 0), signals)
        signals[1] = 0
        del signals[2]
        assert result.signals == {1: 1, 2: 0}

    def test_branches_share_no_signals_dict(self, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.4, 2: 1.3})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert len({id(r.signals) for r in results}) == len(results) == 4
        assert [r.signals for r in results] == [
            {1: a, 2: b} for a in (0, 1) for b in (0, 1)
        ]

    def test_width_bound_read_at_call_time(self, monkeypatch, path_eog, path_gflow):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.0, 2: 0.0})
        monkeypatch.setattr(sim, "DEFAULT_MAX_QUBITS", 2)
        with pytest.raises(BranchLimitError) as info:
            run_branch(pattern, basis_state((1,), 0), {1: 0, 2: 0})
        assert info.value.limit == {"qubits": 3, "max_qubits": 2}


class TestSchedule:
    """Every built pattern is ordered by x(u) | z(u); for a gflow's maps that
    is f(u) \\ {u}, so the schedule is the one its own order gives."""

    @staticmethod
    def assert_gflow_order(eog, g):
        pattern = pattern_from_gflow(eog, dict.fromkeys(eog.measured, 0.5), g)
        assert pattern.schedule == _valid(eog, g)[1].schedule(eog.measured)

    def test_every_gflow_up_to_three_vertices(self):
        checked = 0
        for eog in all_instances(3):
            for g in brute_force_enumerate(eog).gflows:
                self.assert_gflow_order(eog, g)
                checked += 1
        assert checked > 0

    def test_census(self, small_sweep):
        for eog, g in small_sweep:
            self.assert_gflow_order(eog, g)

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
        p2 = replace(p1, schedule=(1, 0))
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
    def test_tolerance_must_be_finite_and_non_negative(
        self, monkeypatch, path_eog, path_gflow, tol
    ):
        pattern = path_pattern(path_eog, path_gflow, {1: 0.9, 2: 2.2})
        results = run_all_branches(pattern, basis_state((1,), 0))
        assert check_determinism(results, 0.0).tolerance == 0.0
        with pytest.raises(ValueError, match="tolerance"):
            check_determinism(results, tol)

        def refuse(*args):
            raise AssertionError("a branch ran before the tolerance was checked")

        monkeypatch.setattr(sim, "_prepare_rows", refuse)
        with pytest.raises(ValueError, match="tolerance"):
            extract_isometry(pattern, tol)


class TestIsometry:
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
        # U @ psi equals the branch output on psi up to one global phase, so
        # the columns carry their relative phases.
        rng = random.Random(37)
        nrng = np.random.default_rng(37)
        checked = 0
        while checked < 200:
            eog = random_instance(rng, rng.randint(2, 6), force_input_xy=True)
            g = find_gflow(eog)
            if not 1 <= len(eog.inputs) <= 2 or g is None:
                continue
            checked += 1
            angles = {u: rng.uniform(0.1, 6.2) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            inp = random_input(tuple(sorted(eog.inputs)), nrng)
            branch = next(r for r in run_all_branches(pattern, inp) if r.probability)
            out = branch.output_state.amplitudes
            want = extract_isometry(pattern) @ inp.amplitudes
            phase = np.vdot(want, out)
            assert abs(abs(phase) - 1) < 1e-9
            assert np.max(np.abs(out - phase * want)) < 1e-9

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
        self, monkeypatch, path_eog, path_gflow
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

        def refuse(*args):
            raise AssertionError("extract_isometry built a branch result")

        monkeypatch.setattr(sim, "BranchResult", refuse)
        for pattern, matrix in zip(patterns, want):
            assert np.array_equal(extract_isometry(pattern), matrix)

    def test_branch_bound_checked_before_prepare(self, monkeypatch):
        # a 14-vertex XY path: 13 measured qubits, one past the default 12
        n = 14
        eog = ExtendedOpenGraph(
            path_graph(list(range(n))), frozenset({0}), frozenset({n - 1}),
            {u: Plane.XY for u in range(n - 1)},
        )
        gflow = Gflow({u: {u + 1} for u in range(n - 1)})
        pattern = pattern_from_gflow(eog, dict.fromkeys(range(n - 1), 0.3), gflow)

        def refuse(*args):
            raise AssertionError("prepare reached past the branch bound")

        monkeypatch.setattr(sim, "_prepare_rows", refuse)
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


def flat_replay(pattern, input_state):
    """Every branch replayed from the prepared state, in binary-counter order."""
    prepared = prepare(pattern.eog.graph, pattern.eog.inputs, input_state)
    k = len(pattern.schedule)
    return [
        replay(
            pattern,
            prepared,
            {u: (code >> (k - 1 - i)) & 1 for i, u in enumerate(pattern.schedule)},
        )
        for code in range(2**k)
    ]


def assert_bit_identical(results, expected):
    assert len(results) == len(expected)
    for r, e in zip(results, expected):
        assert list(r.signals.items()) == list(e.signals.items())
        assert r.probability == e.probability
        assert r.output_state.qubits == e.output_state.qubits
        assert np.array_equal(r.output_state.amplitudes, e.output_state.amplitudes)


def random_input(in_qubits, rng):
    amps = rng.normal(size=2 ** len(in_qubits)) + 1j * rng.normal(
        size=2 ** len(in_qubits)
    )
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

    def test_matches_flat_replay_on_random_patterns(self):
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
                    assert_bit_identical(
                        run_all_branches(p, inp), flat_replay(p, inp)
                    )

    def test_matches_flat_replay_on_census(self, small_sweep):
        rng = random.Random(23)
        for eog, g in small_sweep[::16]:
            angles = {u: rng.choice(self.PAULI_ANGLES) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            inp = basis_state(tuple(sorted(eog.inputs)), 0)
            assert_bit_identical(
                run_all_branches(pattern, inp), flat_replay(pattern, inp)
            )

    def test_zero_probability_subtree(self, zero_branch_pattern):
        pattern, inp = zero_branch_pattern
        results = run_all_branches(pattern, inp)
        assert_bit_identical(results, flat_replay(pattern, inp))
        zero = [tuple(r.signals.values()) for r in results if r.probability == 0.0]
        assert zero == [(1, 0), (1, 1)]
        for r in results[2:]:
            assert r.output_state.qubits == (2,)
            assert not r.output_state.amplitudes.any()

    @staticmethod
    def count_rows(monkeypatch):
        """Row counts of the calls of the projection kernel, one per call."""
        calls = []
        original = sim._measure_rows

        def counting(rows, *args):
            calls.append(len(rows))
            return original(rows, *args)

        monkeypatch.setattr(sim, "_measure_rows", counting)
        return calls

    def test_row_kernel_calls_per_level(self, monkeypatch):
        # one call per outcome per measured qubit, over every prefix at once
        graph = Graph(
            frozenset(range(5)), frozenset((i, i + 1) for i in range(4))
        )
        eog = ExtendedOpenGraph(
            graph, frozenset({0}), frozenset({4}), {u: Plane.XY for u in range(4)}
        )
        angles = {0: 0.3, 1: 1.1, 2: 2.5, 3: 4.0}
        pattern = pattern_from_gflow(eog, angles, find_gflow(eog))
        calls = self.count_rows(monkeypatch)
        results = run_all_branches(pattern, basis_state((0,), 0))
        assert len(results) == 16
        assert all(r.probability > 0 for r in results)
        assert calls == [1, 1, 2, 2, 4, 4, 8, 8]
        calls.clear()
        run_branch(pattern, basis_state((0,), 0), {0: 1, 1: 0, 2: 1, 3: 1})
        assert calls == [1, 1, 1, 1]

    def test_zero_rows_take_no_extra_calls(self, monkeypatch, zero_branch_pattern):
        pattern, inp = zero_branch_pattern
        calls = self.count_rows(monkeypatch)
        run_all_branches(pattern, inp)
        assert calls == [1, 1, 2, 2]

    @pytest.mark.parametrize("k", [10, 12])
    def test_matches_flat_replay_deep(self, k):
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
        assert_bit_identical(results, flat_replay(pattern, inp))

    def test_matches_flat_replay_without_outputs(self):
        # the last level has one amplitude per row, where numpy rounds a
        # product of one element unlike a run of them
        rng = random.Random(61)
        nrng = np.random.default_rng(61)
        for _ in range(40):
            n = rng.randint(1, 7)
            pairs = list(itertools.combinations(range(n), 2))
            edges = frozenset(rng.sample(pairs, len(pairs) // 2))
            graph = Graph(frozenset(range(n)), edges)
            eog = ExtendedOpenGraph(
                graph, frozenset({0}), frozenset(),
                {u: rng.choice(list(Plane)) for u in range(n)},
            )
            empty = {u: frozenset() for u in range(n)}
            angles = {u: rng.uniform(0.1, 6.2) for u in range(n)}
            maps = CorrectiveMaps(empty, empty)
            pattern = Pattern(eog, angles, maps, tuple(range(n)))
            inp = random_input((0,), nrng)
            assert_bit_identical(
                run_all_branches(pattern, inp), flat_replay(pattern, inp)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_peak_memory_under_three_registers(self, k):
        # two level buffers and a half-size scratch buffer, whatever k is
        n = 20
        eog = ExtendedOpenGraph(
            path_graph(list(range(n))), frozenset({0}), frozenset(range(k, n)),
            {u: Plane.XY for u in range(k)},
        )
        gflow = Gflow({u: {u + 1} for u in range(k)})
        pattern = pattern_from_gflow(eog, {u: 0.3 + u for u in range(k)}, gflow)
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
        run_branch(pattern, inp, {1: 1, 2: 1})
        assert np.array_equal(inp.amplitudes, before)


def index_array_prepare(graph, inputs, input_state):
    """The index-array build the tensor prepare replaced, kept as its oracle.

    One int64 bit array of length 2**n per qubit, a gathered input index and
    a product of edge signs, all of length 2**n.
    """
    inputs = frozenset(inputs)
    qubits = tuple(sorted(graph.vertices))
    n = len(qubits)
    pos = {v: i for i, v in enumerate(qubits)}
    idx = np.arange(2**n)
    bit = {v: (idx >> (n - 1 - pos[v])) & 1 for v in qubits}
    in_index = np.zeros(2**n, dtype=np.int64)
    for v in input_state.qubits:
        in_index = (in_index << 1) | bit[v]
    sign = np.ones(2**n)
    for u, v in graph.edges:
        sign *= 1.0 - 2.0 * (bit[u] & bit[v])
    amps = input_state.amplitudes[in_index] * sign / math.sqrt(2 ** (n - len(inputs)))
    return Statevector(qubits, amps)


def index_array_rows(graph, inputs, input_states):
    """The walk's starting rows, one index-array build per input state."""
    rows = [index_array_prepare(graph, inputs, s).amplitudes for s in input_states]
    return np.stack(rows)


def strided_prepare(graph, inputs, input_state):
    """The per-edge build the parity table replaced, kept as its oracle.

    The broadcast input amplitudes are copied into the register once, and
    each edge then negates in place the strided slice where both of its
    endpoints are set.
    """
    qubits, pos = graph.ids, graph.index
    n = len(qubits)
    spread = input_state.amplitudes.reshape([2 if v in inputs else 1 for v in qubits])
    amps = spread / math.sqrt(2 ** (n - len(inputs)))
    amps = np.broadcast_to(amps, (2,) * n).copy()
    for u, v in graph.edges:
        both = [slice(None)] * n
        both[pos[u]] = both[pos[v]] = slice(1, 2)  # a view even when n == 2
        flip = amps[tuple(both)]
        np.negative(flip, out=flip)
    return Statevector(qubits, amps.reshape(-1))


def path_graph(ids):
    return Graph(frozenset(ids), frozenset(zip(ids, ids[1:])))


class TestTensorPrepare:
    """prepare equals the index-array oracle value for value, and the
    per-edge build byte for byte.

    Against the index-array oracle only the sign of an exact zero may
    differ, which np.array_equal ignores; the level walk's bit-identity
    depends on it, so the per-edge build is compared with tobytes().
    """

    @staticmethod
    def assert_same(graph, inputs, input_state):
        got = prepare(graph, inputs, input_state)
        want = index_array_prepare(graph, inputs, input_state)
        assert got.qubits == want.qubits
        assert np.array_equal(got.amplitudes, want.amplitudes)
        strided = strided_prepare(graph, inputs, input_state)
        assert got.amplitudes.tobytes() == strided.amplitudes.tobytes()

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

    def test_branches_and_isometries_on_gflow_patterns(self, monkeypatch):
        rng = random.Random(47)
        nrng = np.random.default_rng(47)
        checked = 0
        while checked < 200:
            eog = random_instance(rng, rng.randint(2, 7), force_input_xy=True)
            if len(eog.inputs) > 3:
                continue
            g = find_gflow(eog)
            if g is None:
                continue
            checked += 1
            angles = {u: rng.uniform(0.1, 6.2) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            inp = random_input(tuple(sorted(eog.inputs)), nrng)
            results, matrix = run_all_branches(pattern, inp), extract_isometry(pattern)
            with monkeypatch.context() as m:
                m.setattr(sim, "_prepare_rows", index_array_rows)
                assert_bit_identical(results, run_all_branches(pattern, inp))
                assert np.array_equal(matrix, extract_isometry(pattern))

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

    def test_width_bound_checked_before_prepare(self, monkeypatch):
        # 40 qubits, one measured: the register would take 16 * 2**40 bytes
        n = 40
        eog = ExtendedOpenGraph(
            path_graph(list(range(n))),
            frozenset(),
            frozenset(range(1, n)),
            {0: Plane.XY},
        )
        pattern = pattern_from_gflow(eog, {0: 0.4}, Gflow({0: {1}}))

        def refuse(*args):
            raise AssertionError("prepare reached past the width bound")

        monkeypatch.setattr(sim, "_prepare_rows", refuse)
        with pytest.raises(BranchLimitError, match="40 qubits"):
            run_all_branches(pattern, basis_state((), 0))
        with pytest.raises(BranchLimitError):
            extract_isometry(pattern)
        with pytest.raises(BranchLimitError):
            run_all_branches(pattern, basis_state((), 0), max_qubits=n - 1)
        assert sim.DEFAULT_MAX_QUBITS == 24


class TestWalkRows:
    """The walk's rows as they come in and out: one parity table signs the
    register of every input, and `run_all_branches` wraps each output row
    unchecked, exactly as a checked `Statevector` would hold it."""

    @staticmethod
    def assert_wrapped(pattern, input_state):
        results = run_all_branches(pattern, input_state)
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

    def test_census_patterns(self, small_sweep):
        rng = random.Random(101)
        for eog, g in small_sweep:
            pauli = TestSharedPrefixWalk.PAULI_ANGLES
            angles = {u: rng.choice(pauli) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            self.assert_wrapped(pattern, basis_state(tuple(sorted(eog.inputs)), 0))

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
            self.assert_wrapped(pattern, inp)
            self.assert_wrapped(strip_corrections(pattern), inp)

    @pytest.mark.parametrize("n_inputs", range(4))
    def test_rows_match_prepare(self, n_inputs):
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
                want = prepare(graph, inputs, state).amplitudes
                assert np.array_equal(row, want)
                assert row.tobytes() == want.tobytes()

    def test_rows_refuse_a_state_off_the_inputs(self):
        graph = path_graph([0, 1, 2])
        states = [basis_state((0,), 1), basis_state((1,), 0)]
        with pytest.raises(ValueError, match="exactly on the input qubits"):
            sim._prepare_rows(graph, (0,), states)


def per_input_isometry(pattern, tol=sim.STATE_TOL):
    """The one-input-per-walk isometry the row-batched walks replaced, kept
    as their oracle: each basis input, then the superposition, in a walk of
    its own, certified on a copy of its live rows."""
    in_qubits = tuple(sorted(pattern.eog.inputs))
    n_in = len(in_qubits)

    def output(state, what):
        _, probs, rows = sim._walk(pattern, (state,))
        live = rows[probs > 0]
        if not sim._certify(live, tol)[0]:
            raise ValueError(f"pattern is not deterministic on {what}")
        return live[0] / np.linalg.norm(live[0])

    basis = range(2**n_in)
    cols = [output(basis_state(in_qubits, x), f"basis input {x}") for x in basis]
    matrix = np.stack(cols, axis=1)
    if n_in > 0:
        amps = np.full(2**n_in, 2 ** (-n_in / 2), dtype=complex)
        sup = output(Statevector(in_qubits, amps), "a superposed input")
        matrix = matrix * np.exp(1j * np.angle(matrix.conj().T @ sup))
    lead = matrix.flat[np.flatnonzero(np.abs(matrix) > 1e-12)[0]]
    return matrix * (abs(lead) / lead)


def assert_same_isometry(pattern):
    """extract_isometry equals the oracle byte for byte, or raises its error."""
    try:
        want = per_input_isometry(pattern)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            extract_isometry(pattern)
        assert str(got.value) == str(err)
        return False
    got = extract_isometry(pattern)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return True


def wide_path_pattern(k, n=20):
    """An XY path of n qubits, input 0, the first k measured."""
    eog = ExtendedOpenGraph(
        path_graph(list(range(n))), frozenset({0}), frozenset(range(k, n)),
        {u: Plane.XY for u in range(k)},
    )
    gflow = Gflow({u: {u + 1} for u in range(k)})
    return pattern_from_gflow(eog, {u: 0.3 + u for u in range(k)}, gflow)


class TestRowBatchedIsometry:
    """extract_isometry walks its inputs as rows of as few walks as fit in
    sim._BATCH amplitudes, bit for bit as one walk per input."""

    @staticmethod
    def count_walks(monkeypatch):
        """The number of input states of each walk, one entry per walk."""
        walks = []
        original = sim._walk

        def counting(pattern, input_states, *args):
            walks.append(len(input_states))
            return original(pattern, input_states, *args)

        monkeypatch.setattr(sim, "_walk", counting)
        return walks

    def test_matches_per_input_walks_on_random_patterns(self):
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
            passed += assert_same_isometry(pattern)
            assert_same_isometry(strip_corrections(pattern))
        assert passed == 160  # every corrected pattern is an isometry

    def test_zero_probability_rows(self, zero_branch_pattern):
        pattern, _ = zero_branch_pattern
        assert not assert_same_isometry(pattern)
        # X on output 2 corrects vertex 1; vertex 0 is measured away, so
        # each basis input certifies on a subset of its rows
        none = {0: frozenset(), 1: frozenset()}
        x = {0: frozenset(), 1: frozenset({2})}
        pattern = replace(pattern, corrections=CorrectiveMaps(x, none))
        for bits in (0, 1):
            probs = sim._walk(pattern, (basis_state((0,), bits),))[1]
            assert probs.tolist().count(0.0) == 2
        assert assert_same_isometry(pattern)

    def test_without_outputs(self):
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
            assert assert_same_isometry(pattern)

    def test_chunk_boundary_splits_the_inputs(self, monkeypatch):
        rng = random.Random(71)
        walks = self.count_walks(monkeypatch)
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
            assert assert_same_isometry(pattern)
            assert_same_isometry(strip_corrections(pattern))
            walks.clear()
            extract_isometry(pattern)
            per_walk = sim._BATCH >> n  # 4 inputs of 2**12 amplitudes, 2 of 2**13
            assert len(walks) > 1 and sum(walks) == 2 ** len(inputs) + 1
            assert walks[:-1] == [per_walk] * (len(walks) - 1)

    def test_one_walk_on_small_registers(self, monkeypatch):
        # inputs 0 and 1, joined, each on an XY-measured path to its own output
        edges = frozenset({(0, 1), (0, 2), (2, 4), (1, 3), (3, 5)})
        eog = ExtendedOpenGraph(
            Graph(frozenset(range(6)), edges), frozenset({0, 1}), frozenset({4, 5}),
            {u: Plane.XY for u in range(4)},
        )
        pattern = pattern_from_gflow(eog, {0: 0.4, 1: 2.9, 2: 1.7, 3: 5.1}, find_gflow(eog))
        walks = self.count_walks(monkeypatch)
        calls = TestSharedPrefixWalk.count_rows(monkeypatch)
        extract_isometry(pattern)
        assert walks == [5]  # four basis inputs and the superposition
        assert calls == [5, 5, 10, 10, 20, 20, 40, 40]

    def test_wide_register_walks_one_input_at_a_time(self, monkeypatch):
        walks = self.count_walks(monkeypatch)
        calls = TestSharedPrefixWalk.count_rows(monkeypatch)
        extract_isometry(wide_path_pattern(2))
        assert walks == [1, 1, 1]
        assert calls == [1, 1, 2, 2] * 3

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


PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def plane_observable(plane, alpha):
    a1, a2 = plane.value
    return math.cos(alpha) * PAULI[a1] + math.sin(alpha) * PAULI[a2]


@functools.lru_cache(maxsize=None)
def eigh_eigenvectors(plane, alpha):
    """The kernels' eigenvectors as arrays: outcome 0 (+1), then 1 (-1)."""
    vals, vecs = np.linalg.eigh(plane_observable(plane, alpha))
    plus = int(np.argmax(vals))
    return vecs[:, plus], vecs[:, 1 - plus]


def bras_eigenvectors(plane, alpha):
    """`_bras`'s eigenvectors, unconjugated, as arrays: outcome 0, then 1."""
    cols = []
    for i, r, c in sim._bras.__wrapped__(plane, alpha):
        col = [0j, 0j]
        col[i], col[1 - i] = c, r * c
        cols.append(np.conj(col))
    return cols


class TestClosedFormBases:
    """`_bras`'s closed-form eigenvectors against `np.linalg.eigh`'s.

    Every entry agrees within 1e-15, so every entry above 1e-15 has eigh's
    sign: the closed form follows LAPACK's phase, not just its eigenspaces.
    The sweep covers generic angles, every multiple of pi/2 and its
    neighbours, where eigh splits the observable into basis vectors, and
    YZ angles with cos < 0, where numpy's observable carries a signed zero.
    It leaves out the subnormal angles next to 0: there eigh's YZ signs do
    not follow its own rule, and a sign there only turns a branch's output
    by a global phase.
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
        cos_negative = [rng.uniform(math.pi / 2, 3 * math.pi / 2) for _ in range(500)]
        got, want, split = [], [], 0
        for plane in Plane:
            for alpha in angles + (cos_negative if plane is Plane.YZ else []):
                got += bras_eigenvectors(plane, alpha)
                cols = eigh_eigenvectors.__wrapped__(plane, alpha)
                want += cols
                split += any(c[0] == 0 for c in cols)
        got, want = np.array(got), np.array(want)
        assert len(got) == 2 * (3 * len(angles) + 500)
        assert split == 4  # XZ and YZ at +-pi/2, the doubles nearest
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.array_equal(np.sign(got[:, 0].real), np.sign(want[:, 0].real))


def tensordot_measure(state, u, plane, alpha, s):
    """The tensordot `measure` the two-slice contraction replaced, as oracle."""
    n = len(state.qubits)
    p = state.qubits.index(u)
    phi = eigh_eigenvectors(plane, alpha)[s]
    block = state.amplitudes.reshape(2**p, 2, 2 ** (n - 1 - p))
    rest = np.tensordot(phi.conj(), block, axes=([0], [1])).reshape(-1)
    total = float(np.vdot(state.amplitudes, state.amplitudes).real)
    weight = float(np.vdot(rest, rest).real)
    if weight < 1e-24:
        return 0.0, None
    post = Statevector(
        tuple(q for q in state.qubits if q != u), rest / math.sqrt(weight)
    )
    return weight / total, post


def per_target_correction(state, pauli, targets, s):
    """The per-target `apply_correction` (one copy per target), as oracle."""
    if s == 0:
        return state
    n = len(state.qubits)
    amps = state.amplitudes
    for t in sorted(targets):
        p = state.qubits.index(t)
        block = amps.reshape(2**p, 2, 2 ** (n - 1 - p)).copy()
        if pauli == "X":
            block = block[:, ::-1, :]
        else:
            block[:, 1, :] *= -1
        amps = block.reshape(-1)
    return Statevector(state.qubits, amps)


class TestLeanKernels:
    """`measure` and `apply_correction` against the kernels they replaced.

    Measurements agree to 1e-14 per amplitude and in probability, with the
    same zero-probability verdicts; corrections agree exactly, since both
    only move and negate amplitudes. Kernel and oracle read the same input
    state, which the kernel must leave unchanged.
    """

    ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)

    @staticmethod
    def check_measure(state, u, plane, alpha, s, counts):
        before = state.amplitudes.copy()
        prob, post = measure(state, u, plane, alpha, s)
        want_prob, want = tensordot_measure(state, u, plane, alpha, s)
        assert np.array_equal(state.amplitudes, before)
        assert (post is None) == (want is None)
        assert abs(prob - want_prob) <= 1e-14
        counts["measure"] += 1
        if post is None:
            assert prob == 0.0
            counts["zero"] += 1
        else:
            assert post.qubits == want.qubits
            assert np.max(np.abs(post.amplitudes - want.amplitudes)) <= 1e-14
        return prob, post

    @staticmethod
    def check_correction(state, pauli, targets, s, counts):
        before = state.amplitudes.copy()
        out = apply_correction(state, pauli, targets, s)
        want = per_target_correction(state, pauli, targets, s)
        assert np.array_equal(state.amplitudes, before)
        assert out.qubits == want.qubits
        assert np.array_equal(out.amplitudes, want.amplitudes)
        counts[pauli] += bool(s and targets)
        return out

    def test_census_branches(self, monkeypatch, small_sweep):
        # each step of one branch, with random signals, on every |V| <= 4
        # pattern with Pauli angles; a gflow makes every outcome live
        counts = dict.fromkeys(("measure", "zero", "X", "Z"), 0)
        monkeypatch.setattr(
            sim, "measure", lambda *args: self.check_measure(*args, counts)
        )
        monkeypatch.setattr(
            sim, "apply_correction", lambda *args: self.check_correction(*args, counts)
        )
        rng = random.Random(53)
        for eog, g in small_sweep:
            angles = {u: rng.choice(self.ANGLES) for u in eog.measured}
            pattern = pattern_from_gflow(eog, angles, g)
            signals = {u: rng.randrange(2) for u in eog.measured}
            inp = basis_state(tuple(sorted(eog.inputs)), 0)
            got = replay(pattern, prepare(eog.graph, eog.inputs, inp), signals)
            assert_bit_identical([got], [run_branch(pattern, inp, signals)])
        assert len(small_sweep) == 15962
        assert counts["zero"] == 0
        assert min(counts["measure"], counts["X"], counts["Z"]) > 1000, counts

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
