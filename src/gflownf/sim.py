"""Exhaustive branch simulation of measurement patterns with corrections.

States live on an ordered qubit register (first qubit is the most
significant bit). The prepared graph state is a single 2**n complex array:
the input amplitudes broadcast over |+> on the other qubits, then one
in-place sign flip of a strided slice per CZ edge. Measured qubits are
factored out immediately, so memory stays at 2**(alive qubits). The 2**k
signal assignments of k measurements form a binary tree over the schedule:
a depth-first walk takes each prefix state through one `_step` (measure,
then X, then Z on outcome 1) per outcome and shares it with both subtrees,
so all branches cost 2**(k+1) - 2 measurements instead of k * 2**k; a
one-branch replay takes the same step. Branches come out in binary-counter
order and their outputs are compared up to global phase.

The per-step kernels run 2**(k+1) - 2 times per walk, on registers of at
most a few thousand amplitudes, where numpy's per-call overhead outweighs
the arithmetic. So `measure` contracts the outcome axis as two weighted
slices, and `apply_correction` makes one copy of the register per
correction. A kernel writes in place only on arrays it allocated, so a
prefix state shared by both subtrees of the walk is never changed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .opengraph import ExtendedOpenGraph, Graph, Plane
from .gflow import CorrectiveMaps, Gflow, _check_domain
from .gflow import corrective_maps, extensivity_order

STATE_TOL = 1e-9
DEFAULT_BRANCH_BOUND = 12
DEFAULT_MAX_QUBITS = 24

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class BranchLimitError(RuntimeError):
    """Too many measured qubits, or too wide a register, to run every branch.

    ``limit`` holds the count that broke a bound and the bound itself.
    """

    def __init__(self, message: str, limit: Mapping[str, int]):
        super().__init__(message)
        self.limit = dict(limit)


@dataclass
class Statevector:
    qubits: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        self.qubits = tuple(self.qubits)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2 ** len(self.qubits),):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.size} does not "
                f"match {len(self.qubits)} qubits"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "Statevector":
        return Statevector(self.qubits, self.amplitudes.copy())


def basis_state(qubits, bits: int) -> Statevector:
    amps = np.zeros(2 ** len(tuple(qubits)), dtype=complex)
    amps[bits] = 1.0
    return Statevector(tuple(qubits), amps)


def inner(a: Statevector, b: Statevector) -> complex:
    if a.qubits != b.qubits:
        raise ValueError("states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def prepare(graph: Graph, inputs, input_state: Statevector) -> Statevector:
    """Entangle the input state: append |+> on the rest, CZ per edge.

    The register is one complex tensor with an axis per qubit: the input
    amplitudes, broadcast uniformly over the non-input axes, are copied in
    once, and each edge then negates in place the slice where both of its
    endpoints are set.
    """
    inputs = frozenset(inputs)
    if input_state.qubits != tuple(sorted(inputs)):
        raise ValueError("input state must be defined exactly on the input qubits")
    qubits, pos = graph.ids, graph.index
    n = len(qubits)
    # Inputs and register are both sorted, so the input axes are in order.
    spread = input_state.amplitudes.reshape([2 if v in inputs else 1 for v in qubits])
    amps = spread / math.sqrt(2 ** (n - len(inputs)))
    try:
        amps = np.broadcast_to(amps, (2,) * n).copy()
    except MemoryError:  # within max_qubits, but more than the host can hold
        msg = f"a register of {n} qubits cannot be allocated"
        raise BranchLimitError(msg, {"qubits": n}) from None
    for u, v in graph.edges:
        both = [slice(None)] * n
        both[pos[u]] = both[pos[v]] = slice(1, 2)  # a view even when n == 2
        flip = amps[tuple(both)]
        np.negative(flip, out=flip)
    return Statevector(qubits, amps.reshape(-1))


def plane_observable(plane: Plane, alpha: float) -> np.ndarray:
    a1, a2 = plane.value
    return math.cos(alpha) * PAULI[a1] + math.sin(alpha) * PAULI[a2]


@lru_cache(maxsize=4096)
def _bras(plane: Plane, alpha: float):
    """Per outcome s=0 (eigenvalue +1), then s=1: the conjugated eigenvector
    (c0, c1) of the plane observable as (i, r, c) with c = c_i its larger
    entry and r = c_{1-i} / c_i, all Python numbers.
    """
    vals, vecs = np.linalg.eigh(plane_observable(plane, alpha))
    plus = int(np.argmax(vals))
    out = []
    for col in (plus, 1 - plus):
        c0, c1 = (complex(c) for c in vecs[:, col].conj())
        out.append((0, c1 / c0, c0) if abs(c0) >= abs(c1) else (1, c0 / c1, c1))
    return tuple(out)


def measure(state: Statevector, u: int, plane: Plane, alpha: float, s: int):
    """Project qubit u onto the (-1)^s eigenspace of the plane observable.

    Returns (probability, post state with u factored out); a numerically
    zero projection yields (0.0, None). The outcome axis is contracted as
    two weighted slices, c0 * block[:, 0] + c1 * block[:, 1], with (c0, c1)
    the conjugated eigenvector. It is computed as c_i * (block[:, i] +
    r * block[:, 1 - i]) around the larger entry c_i: one product into a
    fresh array and one in-place add, with c_i folded into the in-place
    normalisation. At these widths that beats a general contraction, whose
    set-up outweighs its arithmetic, and it needs no temporary. The input
    state is only read.
    """
    if u not in state.qubits:
        raise ValueError(f"qubit {u} not present in the register")
    if s not in (0, 1):
        raise ValueError("signal must be 0 or 1")
    n = len(state.qubits)
    p = state.qubits.index(u)
    i, r, c = _bras(plane, alpha)[s]
    block = state.amplitudes.reshape(2**p, 2, 2 ** (n - 1 - p))
    rest = block[:, 1 - i] * r
    rest += block[:, i]
    total = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if total <= 0.0:
        raise ValueError("cannot measure a zero state")
    weight = float(np.vdot(rest, rest).real) * abs(c) ** 2
    prob = weight / total
    if weight < 1e-24:
        return 0.0, None
    rest *= c / math.sqrt(weight)
    return prob, Statevector(state.qubits[:p] + state.qubits[p + 1 :], rest.reshape(-1))


def apply_correction(state: Statevector, pauli: str, targets, s: int) -> Statevector:
    """X or Z on every target, conditioned on the signal bit.

    One copy of the register either way: X flips every target axis in one
    view and copies it, and Z negates, in its own copy, the 1 slice of each
    target axis.
    """
    if pauli not in ("X", "Z"):
        raise ValueError("correction operators are X or Z")
    targets = frozenset(targets)
    missing = targets - set(state.qubits)
    if missing:
        raise ValueError(f"correction targets {sorted(missing)} not in register")
    if s == 0 or not targets:
        return state
    axes = [state.qubits.index(t) for t in targets]
    if pauli == "X":
        # the view np.flip builds, without its argument handling
        flip = [slice(None)] * len(state.qubits)
        for p in axes:
            flip[p] = slice(None, None, -1)
        amps = state.amplitudes.reshape((2,) * len(state.qubits))[tuple(flip)]
        return Statevector(state.qubits, amps.copy().reshape(-1))
    amps = state.amplitudes.copy()
    for p in axes:
        one = amps.reshape(2**p, 2, -1)[:, 1]
        np.negative(one, out=one)
    return Statevector(state.qubits, amps)


@dataclass(frozen=True)
class Pattern:
    """Extended open graph with angles, corrections and a measurement order."""

    eog: ExtendedOpenGraph
    angles: Mapping[int, float]
    corrections: CorrectiveMaps
    schedule: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", dict(self.angles))
        object.__setattr__(self, "schedule", tuple(self.schedule))
        measured = self.eog.measured
        if frozenset(self.schedule) != measured or len(self.schedule) != len(measured):
            raise ValueError("schedule must order the measured vertices exactly")
        if not measured <= frozenset(self.angles):
            raise ValueError("angles must cover every measured vertex")
        _check_maps(self.eog, self.corrections)
        position = {u: i for i, u in enumerate(self.schedule)}
        for u in self.schedule:
            for v in self.corrections.x[u] | self.corrections.z[u]:
                if v not in self.eog.vertices:
                    raise ValueError(f"corrector {v} of {u} is not a vertex")
                if v in position and position[v] <= position[u]:
                    raise ValueError(
                        f"corrector {v} of {u} would already be measured"
                    )


def _check_maps(eog: ExtendedOpenGraph, maps: CorrectiveMaps) -> None:
    for side, keyed in (("x", maps.x), ("z", maps.z)):
        _check_domain(eog, keyed, f'corrective map "{side}"')


def _no_corrections(eog: ExtendedOpenGraph) -> CorrectiveMaps:
    empty = {u: frozenset() for u in eog.measured}
    return CorrectiveMaps(empty, empty)


def _scheduled(eog, angles, maps) -> Pattern:
    """The pattern measured in the order of x(u) | z(u), ties broken by id:
    for a gflow's maps, x(u) | z(u) = f(u) \\ {u}, so its own order."""
    _check_maps(eog, maps)
    f = {u: maps.x[u] | maps.z[u] for u in eog.measured}
    order = extensivity_order(eog.graph, eog.outputs, f)
    return Pattern(eog, angles, maps, order.schedule(eog.measured))


def pattern_from_gflow(
    eog: ExtendedOpenGraph, angles: Mapping[int, float], g: Gflow
) -> Pattern:
    """Corrections from the gflow, schedule from its dependency layers."""
    return _scheduled(eog, angles, corrective_maps(eog, g))


def strip_corrections(pattern: Pattern) -> Pattern:
    return replace(pattern, corrections=_no_corrections(pattern.eog))


@dataclass(frozen=True)
class BranchResult:
    signals: Mapping[int, int]
    probability: float
    output_state: Statevector

    def __post_init__(self):
        object.__setattr__(self, "signals", dict(self.signals))


def _step(pattern: Pattern, state: Statevector, u: int, s: int):
    """`measure` u with outcome s, then on s = 1 apply u's X, then its Z."""
    p, post = measure(state, u, pattern.eog.planes[u], pattern.angles[u], s)
    if post is not None and s:
        post = apply_correction(post, "X", pattern.corrections.x[u], s)
        post = apply_correction(post, "Z", pattern.corrections.z[u], s)
    return p, post


def _zero_branch(pattern: Pattern, signals) -> BranchResult:
    """Probability 0.0 and a zero vector on the sorted outputs."""
    out = tuple(sorted(pattern.eog.outputs))
    return BranchResult(signals, 0.0, Statevector(out, np.zeros(2 ** len(out))))


def _run_measurements(pattern: Pattern, state: Statevector, signals) -> BranchResult:
    prob = 1.0
    for u in pattern.schedule:
        p, state = _step(pattern, state, u, signals[u])
        if state is None:
            return _zero_branch(pattern, signals)
        prob *= p
    return BranchResult(signals, prob, state)


def run_branch(pattern: Pattern, input_state: Statevector, signals) -> BranchResult:
    """Run one signal assignment end to end, within ``DEFAULT_MAX_QUBITS``."""
    if frozenset(signals) != pattern.eog.measured:
        raise ValueError("signals must be given for exactly the measured vertices")
    _check_bounds(pattern.eog, math.inf, DEFAULT_MAX_QUBITS)
    state = prepare(pattern.eog.graph, pattern.eog.inputs, input_state)
    return _run_measurements(pattern, state, dict(signals))


def _check_bounds(eog: ExtendedOpenGraph, branch_bound: float, max_qubits: int) -> None:
    k = len(eog.measured)
    if k > branch_bound:
        raise BranchLimitError(
            f"{k} measured qubits exceed the branch bound {branch_bound}",
            {"measured": k, "branch_bound": branch_bound},
        )
    n = len(eog.vertices)
    if n > max_qubits:
        raise BranchLimitError(
            f"a register of {n} qubits exceeds the bound of {max_qubits} qubits",
            {"qubits": n, "max_qubits": max_qubits},
        )


def run_all_branches(
    pattern: Pattern,
    input_state: Statevector,
    branch_bound: int = DEFAULT_BRANCH_BOUND,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> list[BranchResult]:
    """One branch per signal assignment, ordered as a binary counter.

    A depth-first walk over the schedule, outcome 0 first: each prefix
    state is measured once for s=0 and once for s=1 and reused by both
    subtrees, 2**(k+1) - 2 `measure` calls in all. A zero-probability
    outcome is not descended; every branch below it gets probability 0.0
    and a zero vector on the sorted outputs. Each result equals the one
    `run_branch` gives for its signals, bit for bit. Both bounds are
    checked before the register is allocated: at most ``branch_bound``
    measured qubits and at most ``max_qubits`` qubits in all.
    """
    _check_bounds(pattern.eog, branch_bound, max_qubits)
    schedule = pattern.schedule
    k = len(schedule)
    prepared = prepare(pattern.eog.graph, pattern.eog.inputs, input_state)
    if k == 0:
        return [BranchResult({}, 1.0, prepared)]
    results = []
    # Pending measurements: the state before schedule[len(bits) - 1], the
    # probability of the prefix, and the signal bits with the outcome last.
    stack = [(prepared, 1.0, (1,)), (prepared, 1.0, (0,))]
    while stack:
        state, prob, bits = stack.pop()
        depth = len(bits) - 1
        p, post = _step(pattern, state, schedule[depth], bits[-1])
        if post is None:
            for tail in itertools.product((0, 1), repeat=k - 1 - depth):
                results.append(_zero_branch(pattern, dict(zip(schedule, bits + tail))))
            continue
        prob *= p
        if depth + 1 == k:
            results.append(BranchResult(dict(zip(schedule, bits)), prob, post))
        else:
            stack.append((post, prob, bits + (1,)))
            stack.append((post, prob, bits + (0,)))
    return results


@dataclass(frozen=True)
class DeterminismReport:
    deterministic: bool
    max_state_deviation: float
    probabilities: tuple[float, ...]
    strong: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "deterministic": self.deterministic,
            "max_state_deviation": self.max_state_deviation,
            "probabilities": list(self.probabilities),
            "strong": self.strong,
            "tolerance": self.tolerance,
        }


def _check_tolerance(tol: float) -> None:
    """Refuse a NaN, infinite or negative tolerance with ``ValueError``.

    A NaN would fail every comparison and would not serialise as JSON.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


def check_determinism(results, tol: float = STATE_TOL) -> DeterminismReport:
    """Compare branch outputs up to global phase and probabilities to 2**-k.

    Every live output b must lie within ``tol`` of the first, a, twice: by
    the reported deviation 1 - |<a|b>|, and by the phase-aligned distance
    min_phi ||a - e^{i phi} b||. The first alone is quadratic in the state
    error and would pass states about sqrt(2 tol) apart. ``tol`` must be
    finite and non-negative.
    """
    _check_tolerance(tol)
    if not results:
        raise ValueError("no branch results given")
    live = [r for r in results if r.probability > 0]
    if not live:
        raise ValueError("every branch has zero probability")
    k = len(live[0].signals)
    ref = live[0].output_state
    if any(r.output_state.qubits != ref.qubits for r in live):
        raise ValueError("states live on different registers")
    others = np.stack([r.output_state.amplitudes for r in live])[1:]
    overlap = others @ ref.amplitudes.conj()  # <a|b> per row b
    size = np.abs(overlap)
    max_dev = float(np.max(1.0 - size, initial=0.0))
    # Turn each b by <b|a>/|<b|a>| and measure ||a - b|| directly: the
    # closed form sqrt(2 - 2|<a|b>|) reads about 1e-8 from rounding alone.
    others *= (overlap.conj() / np.where(size > 0, size, 1.0))[:, None]
    others -= ref.amplitudes
    flat = others.view(float)  # re, im side by side: |row|^2 is row . row
    max_dist = math.sqrt(np.max(flat[:, None, :] @ flat[:, :, None], initial=0.0))
    uniform = 2.0**-k
    probs = tuple(r.probability for r in results)
    strong = all(abs(p - uniform) <= tol for p in probs)
    deterministic = max_dev <= tol and max_dist <= tol
    return DeterminismReport(deterministic, max_dev, probs, strong, tol)


def extract_isometry(
    pattern: Pattern,
    tol: float = STATE_TOL,
    branch_bound: int = DEFAULT_BRANCH_BOUND,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """The implemented input-to-output map as a 2^|O| x 2^|I| matrix, up to
    one global phase.

    Column x is the unit-norm branch output on basis input x, turned by the
    phase of its overlap with the branch output on the uniform superposition
    (e^{i theta_x} / sqrt(2^|I|) for an isometry), so all columns share one
    phase; that phase makes the first nonzero entry real and positive.
    Determinism is certified on every basis input and on the superposition;
    a non-deterministic pattern raises. The bounds are those of
    `run_all_branches`; they and ``tol`` are checked before the matrix is
    allocated.
    """
    _check_tolerance(tol)
    _check_bounds(pattern.eog, branch_bound, max_qubits)
    in_qubits = tuple(sorted(pattern.eog.inputs))
    n_in = len(in_qubits)

    def output(state, what):
        results = run_all_branches(pattern, state, branch_bound, max_qubits)
        if not check_determinism(results, tol).deterministic:
            raise ValueError(f"pattern is not deterministic on {what}")
        out = next(r.output_state for r in results if r.probability > 0).amplitudes
        return out / np.linalg.norm(out)

    basis = range(2**n_in)
    cols = [output(basis_state(in_qubits, x), f"basis input {x}") for x in basis]
    matrix = np.stack(cols, axis=1)
    if n_in > 0:
        amps = np.full(2**n_in, 2 ** (-n_in / 2), dtype=complex)
        sup = output(Statevector(in_qubits, amps), "a superposed input")
        matrix = matrix * np.exp(1j * np.angle(matrix.conj().T @ sup))
    lead = matrix.flat[np.flatnonzero(np.abs(matrix) > 1e-12)[0]]
    return matrix * (abs(lead) / lead)
