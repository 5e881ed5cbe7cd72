"""Exhaustive branch simulation of measurement patterns with corrections.

States live on an ordered qubit register (first qubit is the most
significant bit). The prepared graph state is a single 2**n complex array:
the input amplitudes broadcast over |+> on the other qubits, negated in
place, in one masked pass, wherever a 2**n-byte table of the CZ parity
q(x) = sum of x_u x_v over the edges (mod 2) reads 1; a walk from several
input states builds that table once and signs all of their registers with
it. Measured qubits are factored out at once, against eigenvectors written
in closed form from the Bloch angles of the measurement direction, so no
eigensolver runs. After d measurements the 2**d signal prefixes all
live on the same qubits, so one level walk keeps them as the rows of one
array, in binary-counter order: each measured qubit takes one row kernel
call per outcome over every row, 2k calls for all 2**k branches, and the
levels take turns in two buffers whatever k is. The walk may also start
from several prepared input states, one row each; the kernels work row by
row, so each input's rows come out as in a walk of its own. Only
`run_all_branches`, which passes one input, wraps rows as `BranchResult`s;
their states share the walk's qubit tuple and skip the checks
`Statevector` runs on outside input. `extract_isometry` walks its basis
inputs and the uniform superposition as the rows of as few walks as fit
in ``_BATCH`` amplitudes, one walk for a small register, and certifies
each input's rows as they are, by the arithmetic `check_determinism` runs
on its stacked results, comparing outputs up to global phase. `measure`,
`apply_correction` and `prepare` are one-row calls of the walk's kernels
and builder, bit for bit; the tests check each against a dense reference,
`tests/dense_reference.py`, that imports nothing from this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from .opengraph import ExtendedOpenGraph, Graph, Plane, _Record
from .gflow import CorrectiveMaps, Gflow, _check_domain, corrective_maps
from .gflow import extensivity_order

STATE_TOL = 1e-9
DEFAULT_BRANCH_BOUND = 12
DEFAULT_MAX_QUBITS = 24
_BATCH = 2**14  # amplitudes in one walk of several isometry inputs: 256 KiB


class BranchLimitError(RuntimeError):
    """Too many measured qubits, or too wide a register, to run every branch.

    ``limit`` holds the count that broke a bound and the bound itself.
    """

    def __init__(self, message: str, limit: Mapping[str, int]):
        super().__init__(message)
        self.limit = dict(limit)


class Statevector(_Record):
    _fields = ("qubits", "amplitudes")

    def __init__(self, qubits: Iterable[int], amplitudes: np.ndarray):
        qubits = tuple(qubits)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (2 ** len(qubits),):
            raise ValueError(
                f"amplitude vector of length {amplitudes.size} does not "
                f"match {len(qubits)} qubits"
            )
        self.__dict__.update(qubits=qubits, amplitudes=amplitudes)


def _row_state(qubits: tuple[int, ...], row: np.ndarray) -> Statevector:
    """A walk's row as a `Statevector`, without `__init__`'s checks: the
    walk made ``row`` a complex vector of length 2**len(qubits)."""
    state = object.__new__(Statevector)
    object.__setattr__(state, "qubits", qubits)
    object.__setattr__(state, "amplitudes", row)
    return state


def basis_state(qubits, bits: int) -> Statevector:
    amps = np.zeros(2 ** len(tuple(qubits)), dtype=complex)
    amps[bits] = 1.0
    return Statevector(tuple(qubits), amps)


def prepare(graph: Graph, inputs, input_state: Statevector) -> Statevector:
    """Entangle the input state: append |+> on the rest, CZ per edge.

    The one-row call of `_prepare_rows`.
    """
    return Statevector(graph.ids, _prepare_rows(graph, inputs, (input_state,))[0])


def _prepare_rows(graph: Graph, inputs, input_states) -> np.ndarray:
    """The prepared register of each input state, as the rows of one array.

    Each input's amplitudes, divided by sqrt(2**(n - |I|)) for the |+>
    states and broadcast over the non-input qubits, are copied into its
    row. The CZs together multiply amplitude x by (-1)**q(x), where q(x) is
    the parity of the edges with both endpoints set in x, and one table of
    one byte per amplitude holds q for every row. For each qubit p, from
    the last to the first, the table doubles: its new half, where p is set,
    is a copy of the old one, and each later neighbour of p XORs one
    strided bit pattern into it. One masked negation where q is 1 then
    signs all rows, each amplitude at most once.
    """
    inputs = frozenset(inputs)
    in_qubits = tuple(sorted(inputs))
    if any(state.qubits != in_qubits for state in input_states):
        raise ValueError("input state must be defined exactly on the input qubits")
    qubits, pos = graph.ids, graph.index
    n = len(qubits)
    later = [[] for _ in qubits]
    for u, v in graph.edges:
        p, q = sorted((pos[u], pos[v]))
        later[p].append(q)
    try:
        amps = np.empty((len(input_states), 2**n), dtype=complex)
        parity = np.empty(2**n, dtype=np.uint8)
    except (MemoryError, ValueError):  # more than the host, or numpy, can hold
        msg = f"a register of {n} qubits cannot be allocated"
        raise BranchLimitError(msg, {"qubits": n}) from None
    # Inputs and register are both sorted, so the input axes are in order.
    spread = [2 if v in inputs else 1 for v in qubits]
    scale = math.sqrt(2 ** (n - len(inputs)))
    for row, state in zip(amps, input_states):
        np.copyto(row.reshape((2,) * n), state.amplitudes.reshape(spread) / scale)
    parity[0] = 0
    for p in reversed(range(n)):
        size = 2 ** (n - 1 - p)
        half = parity[size : 2 * size]
        half[:] = parity[:size]
        for q in later[p]:
            ones = half.reshape(-1, 2, 2 ** (n - 1 - q))[:, 1]
            ones ^= 1
    np.negative(amps, out=amps, where=parity.view(bool))
    return amps


def _bras(plane: Plane, alpha: float):
    """Per outcome s=0 (eigenvalue +1), then s=1: the conjugated eigenvector
    (c0, c1) of the plane observable as (i, r, c) with c = c_i its larger
    entry and r = c_{1-i} / c_i, all Python numbers.

    cos(alpha) P1 + sin(alpha) P2 points along the Bloch angles (theta, phi):
    theta = pi/2, phi = alpha in XY; theta = pi/2 - alpha in XZ (phi = 0)
    and in YZ (phi = pi/2). Its +1 eigenvector is (cos theta/2, e^{i phi}
    sin theta/2) and its -1 eigenvector (sin theta/2, -e^{i phi} cos theta/2).
    """
    if plane is Plane.XY:
        cos = sin = math.sqrt(0.5)
        phase = complex(math.cos(alpha), math.sin(alpha))
    else:
        half = math.pi / 4 - alpha / 2
        cos, sin = math.cos(half), math.sin(half)
        phase = 1 if plane is Plane.XZ else 1j
    out = []
    for v0, v1 in ((cos, phase * sin), (sin, -phase * cos)):
        c0, c1 = complex(v0), complex(v1).conjugate()
        out.append((0, c1 / c0, c0) if abs(c0) >= abs(c1) else (1, c0 / c1, c1))
    return tuple(out)


def _measure_rows(rows, p: int, bra, totals, out) -> np.ndarray:
    """Project each row, of squared norm ``totals``, on the bra at qubit p.

    ``out`` gets the rows with that qubit factored out, normalised; each
    row's probability is returned, 0.0 with a zero row where numerically 0.
    The bra (c0, c1) contracts as c_i * (block[:, i] + r * block[:, 1 - i])
    around its larger entry c_i, folded into the normalisation.
    """
    i, r, c = bra
    n = len(rows)
    block = rows.reshape(n, 2**p, 2, -1)
    rest = out.reshape(n, 2**p, -1)
    np.multiply(block[:, :, 1 - i], r, out=rest)
    rest += block[:, :, i]
    weight = np.vecdot(out, out).real * abs(c) ** 2
    live = weight >= 1e-24
    root = np.sqrt(weight, out=np.full(n, np.inf), where=live)
    scale = np.empty(n, dtype=complex)  # c / root part by part, as Python divides
    scale.real, scale.imag = c.real / root, c.imag / root
    if out.shape[1] > 1:
        out *= scale[:, None]
    else:  # numpy rounds a run of one-element products unlike each alone,
        # so a row of a batched walk ends as in a walk of its own
        for row, f in zip(out, scale):
            row *= complex(f)
    return np.divide(weight, totals, out=np.zeros(n), where=live)


def _flip_rows(rows, axes, out) -> None:
    """X on the qubits at ``axes``: one copy of the rows, reversed there."""
    shape = (len(rows),) + (2,) * (rows.shape[1].bit_length() - 1)
    flip = [slice(None, None, -1 if q - 1 in axes else 1) for q in range(len(shape))]
    np.copyto(out.reshape(shape), rows.reshape(shape)[tuple(flip)])


def _negate_rows(rows, axes) -> None:
    """Z on the qubits at ``axes``, in place: negate each row's 1 slices."""
    for p in axes:
        one = rows.reshape(len(rows), 2**p, 2, -1)[:, :, 1]
        np.negative(one, out=one)


def measure(state: Statevector, u: int, plane: Plane, alpha: float, s: int):
    """Project qubit u onto the (-1)^s eigenspace of the plane observable.

    Returns (probability, post state with u factored out); a numerically
    zero projection yields (0.0, None). The input state is only read.
    """
    if u not in state.qubits:
        raise ValueError(f"qubit {u} not present in the register")
    if s not in (0, 1):
        raise ValueError("signal must be 0 or 1")
    rows = state.amplitudes.reshape(1, -1)
    totals = np.vecdot(rows, rows).real
    if totals[0] <= 0.0:
        raise ValueError("cannot measure a zero state")
    p = state.qubits.index(u)
    out = np.empty((1, rows.shape[1] // 2), dtype=complex)
    prob = float(_measure_rows(rows, p, _bras(plane, alpha)[s], totals, out)[0])
    post = Statevector(state.qubits[:p] + state.qubits[p + 1 :], out[0])
    return (prob, post) if prob else (0.0, None)


def apply_correction(state: Statevector, pauli: str, targets, s: int) -> Statevector:
    """X or Z on every target, conditioned on the signal bit; one copy."""
    if pauli not in ("X", "Z"):
        raise ValueError("correction operators are X or Z")
    targets = frozenset(targets)
    missing = targets - set(state.qubits)
    if missing:
        raise ValueError(f"correction targets {sorted(missing)} not in register")
    if s == 0 or not targets:
        return state
    axes = [state.qubits.index(t) for t in targets]
    rows = state.amplitudes.reshape(1, -1)
    out = np.empty_like(rows)
    _flip_rows(rows, axes if pauli == "X" else (), out)
    _negate_rows(out, axes if pauli == "Z" else ())
    return Statevector(state.qubits, out[0])


class Pattern(_Record):
    """Extended open graph with angles, corrections and a measurement order."""

    _fields = ("eog", "angles", "corrections", "schedule")

    def __init__(
        self,
        eog: ExtendedOpenGraph,
        angles: Mapping[int, float],
        corrections: CorrectiveMaps,
        schedule: Iterable[int],
    ):
        angles = dict(angles)
        schedule = tuple(schedule)
        measured = eog.measured
        if frozenset(schedule) != measured or len(schedule) != len(measured):
            raise ValueError("schedule must order the measured vertices exactly")
        if not measured <= frozenset(angles):
            raise ValueError("angles must cover every measured vertex")
        for u, a in angles.items():
            if not math.isfinite(a):
                raise ValueError(f"angle of vertex {u} must be finite, got {a}")
        _check_maps(eog, corrections)
        position = {u: i for i, u in enumerate(schedule)}
        for u in schedule:
            for v in corrections.x[u] | corrections.z[u]:
                if v not in eog.vertices:
                    raise ValueError(f"corrector {v} of {u} is not a vertex")
                if v in position and position[v] <= position[u]:
                    raise ValueError(
                        f"corrector {v} of {u} would already be measured"
                    )
        self.__dict__.update(
            eog=eog, angles=angles, corrections=corrections, schedule=schedule
        )


def _check_maps(eog: ExtendedOpenGraph, maps: CorrectiveMaps) -> None:
    for side, keyed in (("x", maps.x), ("z", maps.z)):
        _check_domain(eog, keyed, f'corrective map "{side}"')


def _no_corrections(eog: ExtendedOpenGraph) -> CorrectiveMaps:
    empty = {u: frozenset() for u in eog.measured}
    return CorrectiveMaps(empty, empty)


def _scheduled(eog, angles, maps) -> Pattern:
    """The pattern measured in the order of x(u) | z(u), ties broken by id:
    the one path from corrections to a pattern, for a gflow's maps, a map
    document or no corrections."""
    _check_maps(eog, maps)
    f = {u: maps.x[u] | maps.z[u] for u in eog.measured}
    order = extensivity_order(eog.graph, eog.outputs, f)
    return Pattern(eog, angles, maps, order.schedule(eog.measured))


def pattern_from_gflow(
    eog: ExtendedOpenGraph, angles: Mapping[int, float], g: Gflow
) -> Pattern:
    """The pattern of g's corrective maps, whose x(u) | z(u) is
    f(u) \\ {u}, so each u is measured before the vertices it corrects."""
    return _scheduled(eog, angles, corrective_maps(eog, g))


def strip_corrections(pattern: Pattern) -> Pattern:
    eog = pattern.eog
    return Pattern(eog, pattern.angles, _no_corrections(eog), pattern.schedule)


class BranchResult(_Record):
    _fields = ("signals", "probability", "output_state")

    def __init__(
        self, signals: Mapping[int, int], probability: float, output_state: Statevector
    ):
        self.__dict__.update(
            signals=signals, probability=probability, output_state=output_state
        )


def _walk(pattern: Pattern, input_states):
    """Every branch from each of the prepared ``input_states``.

    The walk starts with one row per input state, all built by one
    `_prepare_rows` call over one parity table.
    Level by level, each scheduled u projects every row once per outcome,
    outcome s of row j into row 2j + s, then gives the outcome-1 rows u's X
    and then its Z; a zero-probability row stays a zero row. X is one
    flipped copy out of a half-size scratch buffer. Every kernel works row
    by row, so a row's arithmetic does not depend on the rows beside it.
    Returns the output qubits, the rows' probabilities and the rows: branch
    j of input r ends at row r * 2**k + j, and j's signals are its bits in
    schedule order, most significant first.
    """
    graph = pattern.eog.graph
    rows = _prepare_rows(graph, pattern.eog.inputs, input_states)
    level, probs = rows.reshape(-1), np.ones(len(rows))
    maps, qubits = pattern.corrections, graph.ids
    spare = np.empty(level.size if pattern.schedule else 0, dtype=complex)
    scratch = np.empty(level.size // 2 if any(maps.x.values()) else 0, dtype=complex)
    for u in pattern.schedule:
        bras = _bras(pattern.eog.planes[u], pattern.angles[u])
        p = qubits.index(u)
        qubits = qubits[:p] + qubits[p + 1 :]
        n, half = rows.shape[0], rows.shape[1] // 2
        nxt = spare[: rows.size].reshape(n, 2, half)
        totals = np.vecdot(rows, rows).real
        step = np.empty((n, 2))
        for s in (0, 1):
            x, z = (maps.x[u], maps.z[u]) if s else ((), ())
            out = scratch[: n * half].reshape(n, half) if x else nxt[:, s]
            step[:, s] = _measure_rows(rows, p, bras[s], totals, out)
            if x:
                _flip_rows(out, [qubits.index(t) for t in x], nxt[:, s])
            _negate_rows(nxt[:, s], [qubits.index(t) for t in z])
        rows, probs = nxt.reshape(-1, half), (probs[:, None] * step).reshape(-1)
        level, spare = spare, level
    return qubits, probs, rows


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

    Branch j's signals are the bits of j in schedule order, most significant
    first. A zero-probability outcome gives every branch below it
    probability 0.0 and a zero vector on the sorted outputs. Both bounds
    are checked before the register is allocated: at most ``branch_bound``
    measured qubits and at most ``max_qubits`` qubits in all.
    """
    _check_bounds(pattern.eog, branch_bound, max_qubits)
    qubits, probs, rows = _walk(pattern, (input_state,))
    signals = [{}]
    for u in pattern.schedule:  # each prefix's dict, copied once per level
        level = []
        for one in signals:
            zero = one.copy()
            zero[u], one[u] = 0, 1
            level += (zero, one)
        signals = level
    return [
        BranchResult(s, p, _row_state(qubits, row))
        for s, p, row in zip(signals, probs.tolist(), rows)
    ]


class DeterminismReport(_Record):
    _fields = (
        "deterministic", "max_state_deviation", "probabilities", "strong", "tolerance"
    )

    def __init__(
        self,
        deterministic: bool,
        max_state_deviation: float,
        probabilities: tuple[float, ...],
        strong: bool,
        tolerance: float,
    ):
        self.__dict__.update(
            deterministic=deterministic,
            max_state_deviation=max_state_deviation,
            probabilities=probabilities,
            strong=strong,
            tolerance=tolerance,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


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
    ref = live[0].output_state
    if any(r.output_state.qubits != ref.qubits for r in live):
        raise ValueError("states live on different registers")
    rows = np.stack([r.output_state.amplitudes for r in live])
    deterministic, max_dev = _certify(rows, tol)
    probs = tuple(r.probability for r in results)
    uniform = 2.0 ** -len(live[0].signals)
    strong = all(abs(p - uniform) <= tol for p in probs)
    return DeterminismReport(deterministic, max_dev, probs, strong, tol)


def _certify(live, tol: float) -> tuple[bool, float]:
    """Whether the ``live`` outputs, rows of one array, pass `check_determinism`'s
    two tests, and their largest deviation; every row but the first is overwritten."""
    ref, others = live[0], live[1:]
    overlap = others @ ref.conj()  # <a|b> per row b
    size = np.abs(overlap)
    max_dev = float(np.max(1.0 - size, initial=0.0))
    # Turn each b by <b|a>/|<b|a>| and measure ||a - b|| directly: the
    # closed form sqrt(2 - 2|<a|b>|) reads about 1e-8 from rounding alone.
    others *= (overlap.conj() / np.where(size > 0, size, 1.0))[:, None]
    others -= ref
    flat = others.view(float)  # re, im side by side: |row|^2 is row . row
    max_dist = math.sqrt(np.max(np.vecdot(flat, flat), initial=0.0))
    return max_dev <= tol and max_dist <= tol, max_dev


def extract_isometry(pattern: Pattern) -> np.ndarray:
    """The implemented input-to-output map as a 2^|O| x 2^|I| matrix, up to
    one global phase.

    Column x is the unit-norm branch output on basis input x, turned by the
    phase of its overlap with the branch output on the uniform superposition
    (e^{i theta_x} / sqrt(2^|I|) for an isometry), so all columns share one
    phase; that phase makes the first nonzero entry real and positive.
    The 2^|I| basis inputs and the superposition are the starting rows of
    as few walks as hold at most ``_BATCH`` amplitudes each, or one input
    per walk from 14 qubits up. Each input's rows are certified, in input
    order, by the two tests of `check_determinism` at ``STATE_TOL`` (1e-9);
    a non-deterministic pattern raises. The default bounds of
    `run_all_branches` are checked once, before any register is allocated.
    """
    _check_bounds(pattern.eog, DEFAULT_BRANCH_BOUND, DEFAULT_MAX_QUBITS)
    in_qubits = tuple(sorted(pattern.eog.inputs))
    n_in = len(in_qubits)
    states = [basis_state(in_qubits, x) for x in range(2**n_in)]
    names = [f"basis input {x}" for x in range(2**n_in)]
    if n_in > 0:
        amps = np.full(2**n_in, 2 ** (-n_in / 2), dtype=complex)
        states.append(Statevector(in_qubits, amps))
        names.append("a superposed input")

    per_walk = max(1, _BATCH >> len(pattern.eog.vertices))

    def certified(start):
        """One walk of up to ``per_walk`` inputs, from ``start``: each input's
        output, once its rows are certified. The walk's buffers are freed on
        return, before the next walk allocates its own."""
        batch = states[start : start + per_walk]
        _, probs, rows = _walk(pattern, batch)
        blocks = rows.reshape(len(batch), -1, rows.shape[1])
        cols = []
        for what, p, block in zip(names[start:], probs.reshape(len(batch), -1), blocks):
            # never empty: a row's two outcomes sum to 1
            live = block if p.all() else block[p > 0]
            if not _certify(live, STATE_TOL)[0]:
                raise ValueError(f"pattern is not deterministic on {what}")
            cols.append(live[0] / np.linalg.norm(live[0]))
        return cols

    outs = [col for i in range(0, len(states), per_walk) for col in certified(i)]
    matrix = np.stack(outs[: 2**n_in], axis=1)
    if n_in > 0:
        matrix = matrix * np.exp(1j * np.angle(matrix.conj().T @ outs[-1]))
    lead = matrix.flat[np.flatnonzero(np.abs(matrix) > 1e-12)[0]]
    return matrix * (abs(lead) / lead)
