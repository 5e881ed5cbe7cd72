"""Gflow discovery: layered GF(2) finder plus a brute-force oracle.

The finder works backwards from the outputs, one round per layer; each
round runs one GF(2) elimination for every unsolved vertex at once, with
sigma-NF rows when asked. The enumerator keeps, per vertex, the corrector
masks passing the plane condition (and the sigma-NF inclusion when asked),
checks every combination with the shared Kahn peel, and serves as the
correctness oracle. Both use the gflow rules of ``gflow.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .opengraph import ExtendedOpenGraph, odd_mask
from .gflow import _PLANE_BITS, Gflow, _check_sigma, _nf_excess, _peel, _plane_holds


@dataclass(frozen=True)
class GflowEnumeration:
    instance: ExtendedOpenGraph
    gflows: tuple[Gflow, ...]
    exhausted: bool

    @property
    def count(self) -> int:
        return len(self.gflows)


def _local_candidates(eog, i, allowed_mask, out_mask, nf_sigma=None):
    """All (g, Odd g) pairs passing the plane (and optional NF) condition at bit i."""
    graph = eog.graph
    plane = eog.planes[graph.ids[i]]
    cands = []
    k = allowed_mask
    while True:
        odd = odd_mask(graph, k)
        if _plane_holds(plane, i, k, odd):
            if nf_sigma is None or not _nf_excess(nf_sigma, i, k, odd, out_mask):
                cands.append((k, odd))
        if k == 0:
            break
        k = (k - 1) & allowed_mask
    cands.reverse()
    return cands


def brute_force_enumerate(
    eog: ExtendedOpenGraph,
    limit: int = 1_000_000,
    *,
    nf_sigma: str | None = None,
    stop_after: int | None = None,
) -> GflowEnumeration:
    """Enumerate every valid gflow of the instance.

    Per-vertex candidates are pre-filtered by the local plane condition;
    surviving combinations are checked for extensivity. When more than
    ``limit`` combinations would need examining, a partial enumeration is
    returned with ``exhausted`` False. ``nf_sigma`` restricts candidates
    to the sigma normal form; ``stop_after`` stops early once that many
    gflows are collected (also marking the run non-exhausted).
    """
    if nf_sigma is not None:
        _check_sigma(nf_sigma)
    graph = eog.graph
    measured = sorted(map(graph.index.__getitem__, eog.planes))  # the measured
    if not measured:
        return GflowEnumeration(eog, (Gflow({}),), True)
    allowed = ((1 << len(graph.ids)) - 1) & ~graph.mask(eog.inputs)
    out_mask = graph.mask(eog.outputs)
    per_vertex = []
    for i in measured:
        cands = _local_candidates(eog, i, allowed, out_mask, nf_sigma)
        if not cands:
            return GflowEnumeration(eog, (), True)
        # f(u) \ {u} among the measured: the arcs the peel reads
        per_vertex.append([(k, (k | odd) & ~(out_mask | 1 << i)) for k, odd in cands])
    found = []
    examined = 0
    exhausted = True
    for combo in itertools.product(*per_vertex):
        examined += 1
        if examined > limit:
            exhausted = False
            break
        deps = {i: d for i, (_, d) in zip(measured, combo)}
        if not _peel(deps)[1]:
            g = {graph.ids[i]: graph.members(k) for i, (k, _) in zip(measured, combo)}
            found.append(Gflow(g))
            if stop_after is not None and len(found) >= stop_after:
                exhausted = False
                break
    return GflowEnumeration(eog, tuple(found), exhausted)


def _find_gflow_rounds(eog: ExtendedOpenGraph, sigma: str | None = None):
    """Backward layered search; returns (gflow-or-None, rounds).

    rounds[u] counts from the outputs: round 1 holds the last-measured
    vertices, higher rounds are measured earlier.

    Each round runs one GF(2) elimination for all unsolved vertices. With
    C the outputs plus the vertices solved so far, u is solvable when some
    K inside C minus the inputs, joined by u itself when u is not XY
    (``force``), has an odd neighbourhood that meets the unsolved vertices
    only at u, and at u exactly when u is XY or XZ (``rhs1``), both read
    from ``_PLANE_BITS``. The matrix, row w = adj[w] & cols for each
    unsolved w, is the same for every u; only the right-hand side depends
    on u, so row w carries it as a vertex mask: u's bit is set when u is
    forced and adjacent to w, or when w = u lies in rhs1. A row reduced to
    zero fails every u in its right-hand side (bits of vertices solved
    earlier ride along unread). Each row pivots on its lowest set bit,
    which picks the lowest-first column basis, so u's solution with free
    variables 0 is the one a separate elimination for u gives.

    With ``sigma`` only sigma-NF correctors count. Z keeps ``cols`` at the
    outputs minus the inputs. X and Y add a row, same right-hand side, for
    each solved non-output w: w must miss Odd(K) (X), or lie in K exactly
    when in Odd(K) (Y, so the row also toggles w's own column). The
    inclusion is linear in K and blind to the order, so the maximally
    delayed layering (Mhalla and Perdrix, ICALP 2008) finds a sigma-NF
    gflow whenever one exists.
    """
    if sigma is not None:
        _check_sigma(sigma)
    graph = eog.graph
    adj, ids, index = graph.adjacency_masks, graph.ids, graph.index
    i_mask = graph.mask(eog.inputs)
    force = rhs1 = 0
    for u, plane in eog.planes.items():
        in_g, in_odd = _PLANE_BITS[plane]
        force |= in_g << index[u]
        rhs1 |= in_odd << index[u]
    unsolved = force | rhs1  # the measured vertices: each has a plane
    o_mask = c_mask = ((1 << len(ids)) - 1) & ~unsolved
    assignment: dict[int, int] = {}
    rounds: dict[int, int] = {}
    round_no = 0
    while unsolved:
        cols = (o_mask if sigma == "Z" else c_mask) & ~i_mask
        own = cols if sigma == "Y" else 0
        failed = force & i_mask
        pivots: dict[int, list[int]] = {}
        m = unsolved | (c_mask & ~o_mask) if sigma in ("X", "Y") else unsolved
        while m:
            b = m & -m
            m ^= b
            nbrs = adj[b.bit_length() - 1]
            coeff = nbrs & cols ^ b & own
            rhs = (nbrs & force) | (b & rhs1)
            for p, (pc, pr) in pivots.items():
                if coeff & p:
                    coeff ^= pc
                    rhs ^= pr
            if not coeff:
                failed |= rhs
                continue
            p = coeff & -coeff
            for row in pivots.values():
                if row[0] & p:
                    row[0] ^= coeff
                    row[1] ^= rhs
            pivots[p] = [coeff, rhs]
        solved = unsolved & ~failed
        if not solved:
            return None, rounds
        round_no += 1
        m = solved
        while m:
            b = m & -m
            m ^= b
            k = b & force
            for p, (_, pr) in pivots.items():
                if pr & b:
                    k |= p
            u = ids[b.bit_length() - 1]
            assignment[u] = k
            rounds[u] = round_no
        c_mask |= solved
        unsolved ^= solved
    gflow = Gflow({u: graph.members(k) for u, k in assignment.items()})
    return gflow, rounds


def find_gflow(eog: ExtendedOpenGraph, sigma: str | None = None) -> Gflow | None:
    """A valid gflow, in sigma-NF when ``sigma`` is given, or None when none exists."""
    return _find_gflow_rounds(eog, sigma)[0]


def exists_normal_form(eog: ExtendedOpenGraph, sigma: str) -> bool:
    """Whether the instance has a sigma-NF gflow, decided in polynomial time."""
    return _find_gflow_rounds(eog, sigma)[0] is not None
