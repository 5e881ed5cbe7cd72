"""A dense statevector reference for the branch simulator's tests. It
imports only math and numpy, so it shares no kernel with `gflownf.sim`.

Registers are ordered by qubit id, the first the most significant bit.
`register` gathers each amplitude from the input index its bits name and
negates it where the CZ parity of its index is odd; `project` contracts the
measured axis with the bra of `np.linalg.eigh`'s eigenvector of the plane
observable; `correct` applies a 2x2 Pauli matrix on each target's axis; and
`branches` runs every branch on its own from one prepared register, with X
then Z on outcome 1. Patterns are read by attribute only.
"""

import math

import numpy as np

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_BASES = {}


def plane_observable(plane, alpha):
    a1, a2 = plane.value
    return math.cos(alpha) * PAULI[a1] + math.sin(alpha) * PAULI[a2]


def eigh_eigenvectors(plane, alpha):
    """eigh's eigenvectors of the plane observable: outcome 0 (+1), then 1
    (-1), each with LAPACK's phase; kept per (plane, alpha), read-only, so
    every caller gets the same vectors."""
    key = (plane, alpha)
    if key not in _BASES:
        vals, vecs = np.linalg.eigh(plane_observable(plane, alpha))
        vecs.setflags(write=False)
        plus = int(np.argmax(vals))
        _BASES[key] = vecs[:, plus], vecs[:, 1 - plus]
    return _BASES[key]


def register(vertices, edges, inputs, input_amplitudes):
    """The prepared graph state as (qubits, amplitudes): amplitude x is the
    input amplitude at x's input bits over sqrt(2**(n - |I|)), negated where
    the count of edges with both ends set in x is odd."""
    qubits = tuple(sorted(vertices))
    n = len(qubits)
    index = np.arange(2**n)
    bit = {v: index >> (n - 1 - p) & 1 for p, v in enumerate(qubits)}
    gather = np.zeros(2**n, dtype=np.int64)
    for v in sorted(inputs):
        gather = gather << 1 | bit[v]
    parity = np.zeros(2**n, dtype=np.int64)
    for u, v in edges:
        parity ^= bit[u] & bit[v]
    amps = np.asarray(input_amplitudes, dtype=complex)[gather]
    amps = amps / math.sqrt(2 ** (n - len(inputs)))
    odd = parity == 1
    amps[odd] = -amps[odd]
    return qubits, amps


def _on_axis(matrix, amps, p):
    """``matrix``, of two columns, applied on axis p of the register ``amps``."""
    return (matrix @ amps.reshape(2**p, 2, -1)).reshape(-1)


def project(qubits, amps, u, plane, alpha, s):
    """Outcome s of measuring qubit u: (probability, the other qubits, the
    normalised post-measurement state), with None for the state when the
    projection is numerically zero."""
    p = qubits.index(u)
    rest = _on_axis(eigh_eigenvectors(plane, alpha)[s].conj()[None], amps, p)
    weight = np.vdot(rest, rest).real
    others = qubits[:p] + qubits[p + 1 :]
    if weight < 1e-24:
        return 0.0, others, None
    return weight / np.vdot(amps, amps).real, others, rest / math.sqrt(weight)


def correct(qubits, amps, pauli, targets):
    """The Pauli matrix ``pauli`` applied on the axis of every target."""
    for t in targets:
        amps = _on_axis(PAULI[pauli], amps, qubits.index(t))
    return amps


def branch(pattern, prepared, signals):
    """(probability, output qubits, output state) of the branch ``signals``
    names, run from the ``prepared`` register; the state is None from the
    first numerically zero projection on."""
    qubits, amps = prepared
    eog, prob = pattern.eog, 1.0
    for u in pattern.schedule:
        s = signals[u]
        plane, alpha = eog.planes[u], pattern.angles[u]
        step, qubits, amps = project(qubits, amps, u, plane, alpha, s)
        if amps is None:
            return 0.0, tuple(sorted(eog.outputs)), None
        prob *= step
        if s:
            amps = correct(qubits, amps, "X", pattern.corrections.x[u])
            amps = correct(qubits, amps, "Z", pattern.corrections.z[u])
    return prob, qubits, amps


def prepared(pattern, input_amplitudes):
    """`register` of the pattern's graph on the given input amplitudes."""
    graph = pattern.eog.graph
    return register(graph.vertices, graph.edges, pattern.eog.inputs, input_amplitudes)


def branches(pattern, input_amplitudes):
    """Every branch, each run from one prepared register, in binary-counter
    order: branch j's signals are the bits of j in schedule order, most
    significant first."""
    start, schedule = prepared(pattern, input_amplitudes), pattern.schedule
    k = len(schedule)
    codes = [
        {u: j >> (k - 1 - i) & 1 for i, u in enumerate(schedule)} for j in range(2**k)
    ]
    return [branch(pattern, start, signals) for signals in codes]
