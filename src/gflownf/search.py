"""Gflow discovery: layered GF(2) finder plus a brute-force oracle.

The finder works backwards from the outputs, one round per layer; each
round runs one GF(2) elimination for every unsolved vertex at once, with
sigma-NF rows when asked, and builds rows only for the unsolved vertices
next to its columns. The enumerator, the correctness oracle, builds one
(K, Odd(K)) table per instance, keeps per vertex the entries passing the
plane condition (and the sigma-NF inclusion when asked), and walks their
combinations depth first, pruning each partial assignment that closes a
cycle. Both use the gflow rules of ``gflow.py``.
"""

from __future__ import annotations

from .opengraph import ExtendedOpenGraph, _Record
from .gflow import _PLANE_BITS, Gflow, _check_sigma, _nf_excess, check_input_planes

ENUMERATION_LIMIT = 1_000_000  # combinations; `enumerate --limit` defaults to it


class GflowEnumeration(_Record):
    _fields = ("gflows", "exhausted")

    def __init__(self, gflows: tuple[Gflow, ...], exhausted: bool):
        self.__dict__.update(gflows=gflows, exhausted=exhausted)

    @property
    def count(self) -> int:
        return len(self.gflows)


def _odd_table(graph, allowed: int) -> list[tuple[int, int]]:
    """(K, Odd(K)) for every K within ``allowed``, ascending in K, one XOR each.

    Each allowed bit, lowest first, doubles the list: the new half adds the
    bit to every K so far, so it stays ascending.
    """
    adj = graph.adjacency_masks
    table = [(0, 0)]
    while allowed:
        b = allowed & -allowed
        allowed ^= b
        a = adj[b.bit_length() - 1]
        table += [(k | b, odd ^ a) for k, odd in table]
    return table


def brute_force_enumerate(
    eog: ExtendedOpenGraph,
    limit: int = ENUMERATION_LIMIT,
    *,
    nf_sigma: str | None = None,
    stop_after: int | None = None,
) -> GflowEnumeration:
    """Enumerate every valid gflow of the instance, in product order.

    A measured input outside XY must lie in its own g(u), which avoids the
    inputs, so such an instance has no gflow and returns at once. Otherwise
    one table holds (K, Odd(K)) for every K within the non-inputs, in
    ascending order of K, one XOR per entry, and each measured vertex keeps
    the entries that pass its plane condition (and the sigma-NF inclusion
    when ``nf_sigma`` is given). The combinations of these candidates are
    searched depth first in ``itertools.product`` order, vertices in
    ascending bit order. Each assigned vertex keeps the vertices it reaches
    through assigned vertices; a candidate whose arcs f(u) \\ {u} reach u
    again closes a cycle, and its subtree is pruned, since every completion
    keeps that cycle.

    ``limit`` counts combinations in product order, pruned ones included:
    only gflows among the first ``limit`` are collected, and the run is
    ``exhausted`` only when there are at most ``limit`` combinations.
    ``stop_after`` stops once that many gflows are collected, which also
    marks the run non-exhausted.
    """
    if nf_sigma is not None:
        _check_sigma(nf_sigma)
    if not check_input_planes(eog):
        return GflowEnumeration((), True)
    graph = eog.graph
    measured = sorted(map(graph.index.__getitem__, eog.planes))  # the measured
    if not measured:
        return GflowEnumeration((Gflow._of_bits(graph, {}),), True)
    table = _odd_table(graph, ((1 << len(graph.ids)) - 1) & ~graph.mask(eog.inputs))
    out_mask = graph.mask(eog.outputs)
    ids = graph.ids
    per_vertex = []
    for i in measured:
        bit = 1 << i
        in_g, in_odd = _PLANE_BITS[eog.planes[ids[i]]]
        want_g, want_odd = in_g << i, in_odd << i
        keep = ~(out_mask | bit)  # f(u) \ {u} among the measured: the arcs
        cands = [
            (k, (k | odd) & keep)
            for k, odd in table
            if k & bit == want_g
            and odd & bit == want_odd
            and (nf_sigma is None or not _nf_excess(nf_sigma, i, k, odd, out_mask))
        ]
        if not cands:
            return GflowEnumeration((), True)
        per_vertex.append(cands)
    n = len(measured)
    span = [1] * (n + 1)  # span[t]: the combinations below one choice at t - 1
    for t in range(n - 1, -1, -1):
        span[t] = span[t + 1] * len(per_vertex[t])
    chosen = [0] * n
    found = []

    def descend(t, rank, done, reach):
        """Assign positions t.. from product rank ``rank``; False to stop.

        ``done`` masks the vertices assigned so far and ``reach[j]`` is what
        assigned j reaches through them. With k non-inputs, an acyclic
        assignment holds at most k of them and at most k inputs (over its
        inputs, the matrix [v in Odd(g(u))] is unitriangular in a
        topological order and a product through k columns), so the
        recursion is at most 2k + 1 deep; the table already has 2^k entries.
        """
        i = measured[t]
        bit = 1 << i
        below = span[t + 1]
        for k, d in per_vertex[t]:
            if rank >= limit:
                return False
            r = d
            m = d & done
            while m:
                b = m & -m
                m ^= b
                r |= reach[b.bit_length() - 1]
            if not r & bit:
                chosen[t] = k
                if t + 1 == n:
                    found.append(Gflow._of_bits(graph, dict(zip(measured, chosen))))
                    if stop_after is not None and len(found) >= stop_after:
                        return False
                else:
                    grown = [x | r if x & bit else x for x in reach]
                    grown[i] = r
                    if not descend(t + 1, rank, done | bit, grown):
                        return False
            rank += below
        return True

    exhausted = descend(0, 0, 0, [0] * len(graph.ids)) and span[0] <= limit
    return GflowEnumeration(tuple(found), exhausted)


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

    Only the unsolved vertices with a neighbour among the columns
    (``touch``) have nonzero rows, and only they get rows, in the same
    ascending order, so the pivots are those of all the rows. ``touch``
    takes the neighbours of each column once, when it joins. The zero row
    of a ``quiet`` vertex w, outside ``touch``, would fail w when w lies
    in rhs1 and each forced u adjacent to w: both are read from masks. So
    a round costs its frontier rows, not one per unsolved vertex.

    With ``sigma`` only sigma-NF correctors count. Z keeps ``cols`` at the
    outputs minus the inputs, so its ``touch`` never grows. X and Y add a
    row, same right-hand side, for each solved non-output w: w must miss
    Odd(K) (X), or lie in K exactly when in Odd(K) (Y, so the row also
    toggles w's own column). The inclusion is linear in K and blind to the
    order, so the maximally delayed layering (Mhalla and Perdrix, ICALP
    2008) finds a sigma-NF gflow whenever one exists.
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
    fresh = o_mask & ~i_mask  # columns whose neighbours `touch` has yet to take
    touch = 0
    assignment: dict[int, int] = {}
    rounds: dict[int, int] = {}
    round_no = 0
    while unsolved:
        while fresh:
            b = fresh & -fresh
            fresh ^= b
            touch |= adj[b.bit_length() - 1]
        touch &= unsolved
        quiet = unsolved ^ touch
        cols = (o_mask if sigma == "Z" else c_mask) & ~i_mask
        own = cols if sigma == "Y" else 0
        failed = force & i_mask | quiet & rhs1
        m = force & unsolved & ~failed if quiet else 0
        while m:
            b = m & -m
            m ^= b
            if adj[b.bit_length() - 1] & quiet:
                failed |= b
        pivots: dict[int, list[int]] = {}
        m = touch | (c_mask & ~o_mask) if sigma in ("X", "Y") else touch
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
            i = b.bit_length() - 1
            assignment[i] = k
            rounds[ids[i]] = round_no
        c_mask |= solved
        if sigma != "Z":
            fresh = solved & ~i_mask
        unsolved ^= solved
    return Gflow._of_bits(graph, assignment), rounds


def find_gflow(eog: ExtendedOpenGraph, sigma: str | None = None) -> Gflow | None:
    """A valid gflow, in sigma-NF when ``sigma`` is given, or None when none exists."""
    return _find_gflow_rounds(eog, sigma)[0]


def exists_normal_form(eog: ExtendedOpenGraph, sigma: str) -> bool:
    """Whether the instance has a sigma-NF gflow, decided in polynomial time."""
    return _find_gflow_rounds(eog, sigma)[0] is not None
