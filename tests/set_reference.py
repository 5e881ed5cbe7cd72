"""A set-based reference for the gflow tests. It imports only the standard
library, so it shares no rule, bitmask or elimination with `gflownf`.

An instance is plain data: vertex ids (any non-negative integers, 10**12
included), edges, inputs, outputs and, for each measured vertex, a plane
"XY", "XZ" or "YZ". A gflow is a dict from each measured vertex to its
corrector set of ids. Each rule is written once, on frozensets:

- `odd`, Odd(K), and `plane_holds`, the condition that u's plane sets on
  u in g(u) and u in Odd(g(u)) (Browne, Kashefi, Mhalla and Perdrix, NJP
  2007);
- `in_normal_form`, the sigma-NF inclusion of Odd(K) (X), K ^ Odd(K) (Y) or
  K (Z) in {u} and the outputs;
- `layers`, the depth of each vertex under f(u) = g(u) | Odd(g(u)) with the
  outputs lifted to the top layer, or the lowest-vertex witness cycle, and
  `schedule`;
- `verify`, the report: codomain, then plane, then extensivity violations;
- `focus`, the sweep from the latest layer down;
- `enumerate_gflows`, every gflow in product order;
- `find`, the maximally delayed finder (Mhalla and Perdrix, ICALP 2008):
  one GF(2) system per vertex per round, solved on the lowest-first basis of
  its columns.

Vertices are ordered by id. Sets of ids are ordered as binary numbers, the
i-th smallest vertex standing for 2**i: K comes before K' when the largest
id in K ^ K' lies in K'.
"""

import itertools

# (u in g(u), u in Odd(g(u))) as the plane of u demands
PLANES = {"XY": (False, True), "XZ": (True, True), "YZ": (True, False)}


class OpenGraph:
    """An open graph with a plane for each measured (non-output) vertex."""

    def __init__(self, vertices, edges, inputs, outputs, planes):
        self.vertices = frozenset(vertices)
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        self.planes = dict(planes)
        self.measured = self.vertices - self.outputs
        self.nbrs = {v: set() for v in self.vertices}  # read, never written
        for u, v in edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)
        # what the functions below compute once per instance: Odd(K) by K,
        # `order` by gflow, candidates by sigma and acyclicity by arcs
        self.odds, self.orders, self.choices, self.acyclic = {}, {}, {}, {}


def odd(og, k):
    """Odd(K): the vertices with an odd number of neighbours in K."""
    if k not in og.odds:
        og.odds[k] = frozenset(v for v, n in og.nbrs.items() if len(n & k) % 2)
    return og.odds[k]


def plane_holds(plane, u, k, odd_k):
    return (u in k, u in odd_k) == PLANES[plane]


def in_normal_form(sigma, u, k, odd_k, outputs):
    sigma_set = {"X": odd_k, "Y": k ^ odd_k, "Z": k}[sigma]
    return sigma_set <= outputs | {u}


def normal_form(og, g, sigma):
    """Whether every corrector of g meets the sigma-NF inclusion."""
    return all(
        in_normal_form(sigma, u, g[u], odd(og, g[u]), og.outputs) for u in og.measured
    )


def layers(vertices, outputs, f):
    """({vertex: depth}, None), or (None, cycle) when the arcs u -> v, v in
    f(u) \\ {u}, have a cycle.

    The sources have depth 0; removing the vertices of depth d leaves the
    sources of depth d + 1. The outputs then move to the top depth. Vertices
    never removed each have a predecessor among them: from the lowest,
    stepping to the lowest such predecessor until a vertex repeats walks the
    cycle backwards.
    """
    succ = {v: set() for v in vertices}
    pred = {v: set() for v in vertices}
    for u, image in f.items():
        for v in image:
            if v != u:
                succ[u].add(v)
                pred[v].add(u)
    depth, d, left = {}, 0, set(vertices)
    sources = {v for v in left if not pred[v]}
    while sources:
        left -= sources
        depth.update(dict.fromkeys(sources, d))
        d += 1
        sources = {v for u in sources for v in succ[u] if not pred[v] & left}
    if left:
        path = [min(left)]
        while True:
            v = min(pred[path[-1]] & left)
            if v in path:
                return None, path[path.index(v) :][::-1]
            path.append(v)
    top = max(depth.values(), default=0)
    depth.update(dict.fromkeys(outputs, top))
    return depth, None


def order(og, g):
    """`layers` of f(u) = g(u) | Odd(g(u)) over the measured vertices."""
    key = frozenset(g.items())
    if key not in og.orders:
        f = {u: g[u] | odd(og, g[u]) for u in og.measured}
        og.orders[key] = layers(og.vertices, og.outputs, f)
    return og.orders[key]


def schedule(vertices, depth):
    """The vertices by depth, ties broken by id."""
    return tuple(sorted(vertices, key=lambda v: (depth[v], v)))


def verify(og, g):
    """(valid, violations), each violation (vertex, condition, witness):

    - "codomain" for each u whose g(u) leaves the non-inputs, witness the
      members outside them;
    - "plane-P" for each u, g(u) within the vertices, whose plane P fails,
      witness Odd(g(u));
    - one "extensivity" when every g(u) lies within the vertices and f has
      a cycle, at the cycle's first vertex, witness the cycle's vertices.

    Each kind in ascending order of u.
    """
    if set(g) != og.measured:
        raise ValueError("a gflow assigns exactly the measured vertices")
    measured = sorted(og.measured)
    non_inputs = og.vertices - og.inputs
    out = [(u, "codomain", g[u] - non_inputs) for u in measured if g[u] - non_inputs]
    for u in measured:
        if g[u] <= og.vertices:
            odd_k, plane = odd(og, g[u]), og.planes[u]
            if not plane_holds(plane, u, g[u], odd_k):
                out.append((u, "plane-" + plane, odd_k))
    if all(g[u] <= og.vertices for u in measured):
        cycle = order(og, g)[1]
        if cycle:
            out.append((cycle[0], "extensivity", frozenset(cycle)))
    return not out, out


def corrections(og, g):
    """The corrective maps (x, z): x(u) = g(u) \\ {u}, z(u) = Odd(g(u)) \\ {u}."""
    x = {u: g[u] - {u} for u in og.measured}
    z = {u: odd(og, g[u]) - {u} for u in og.measured}
    return x, z


def focus(og, g, sigma):
    """The sigma-NF gflow of the valid gflow g.

    From the latest layer down, ties by id, u's corrector becomes g(u) XOR
    the new correctors of its sigma-set outside {u} and the outputs, which
    lie in later layers. ValueError when a measured non-input's plane lacks
    sigma, naming the lowest.
    """
    for u in sorted(og.measured - og.inputs):
        if sigma not in og.planes[u]:
            raise ValueError(
                f"vertex {u} is measured in the {og.planes[u]} plane, "
                f"which does not contain {sigma}"
            )
    depth = order(og, g)[0]
    new = {}
    for u in sorted(og.measured, key=lambda v: (-depth[v], v)):
        k, odd_k = g[u], odd(og, g[u])
        sigma_set = {"X": odd_k, "Y": k ^ odd_k, "Z": k}[sigma]
        for v in sigma_set - og.outputs - {u}:
            k = k ^ new[v]
        new[u] = k
    return new


def enumerate_gflows(og, limit=1_000_000, *, nf_sigma=None, stop_after=None):
    """(gflows, exhausted): every gflow, in sigma-NF when nf_sigma is given.

    Each measured vertex, in ascending order, takes the subsets K of the
    non-inputs, in ascending order, that meet its plane condition (and the
    sigma-NF inclusion); the gflows are the combinations, in `itertools.product`
    order, whose f is acyclic. Only the first ``limit`` combinations are
    examined, and the run is exhausted when there are no more; stopping
    after ``stop_after`` gflows leaves it not exhausted.
    """
    measured = sorted(og.measured)
    if not measured:
        return [{}], True
    if nf_sigma not in og.choices:
        og.choices[nf_sigma] = _choices(og, measured, nf_sigma)
    choices = og.choices[nf_sigma]
    if not all(choices):
        return [], True
    found = []
    for n, combo in enumerate(itertools.product(*choices)):
        if n == limit:
            return found, False
        arcs = tuple(a for _, a in combo)
        if arcs not in og.acyclic:  # the outputs close no cycle
            f = dict(zip(measured, arcs))
            og.acyclic[arcs] = layers(measured, (), f)[1] is None
        if og.acyclic[arcs]:
            found.append({u: k for u, (k, _) in zip(measured, combo)})
            if len(found) == stop_after:
                return found, False
    return found, True


def _choices(og, measured, nf_sigma):
    """Each measured vertex's candidates (K, f(u) among the measured), in
    ascending K; a list stops at the first vertex that has none."""
    subsets = [frozenset()]
    for v in sorted(og.vertices - og.inputs):  # ascending, so each
        subsets += [k | {v} for k in subsets]  # doubling keeps the order
    table = [(k, odd(og, k)) for k in subsets]
    choices = []
    for u in measured:
        plane, cands = og.planes[u], []
        for k, odd_k in table:
            if plane_holds(plane, u, k, odd_k) and (
                nf_sigma is None or in_normal_form(nf_sigma, u, k, odd_k, og.outputs)
            ):
                cands.append((k, (k | odd_k) & og.measured))
        choices.append(cands)
        if not cands:
            break
    return choices


def _column_basis(columns):
    """The lowest-first basis of GF(2) columns, given as (id, rows) pairs in
    ascending id: {pivot row: (rows, ids)}, each entry a basis column's rows
    reduced by the earlier entries, and the ids whose columns XOR to it."""
    basis = {}
    for c, vec in columns:
        ids = frozenset({c})
        while vec:
            p = min(vec)
            if p not in basis:
                basis[p] = (vec, ids)
                break
            vec, ids = vec ^ basis[p][0], ids ^ basis[p][1]
    return basis


def _solve(basis, target):
    """The ids of basis columns whose XOR is ``target``, or None."""
    ids = frozenset()
    while target:
        p = min(target)
        if p not in basis:
            return None
        target, ids = target ^ basis[p][0], ids ^ basis[p][1]
    return ids


def find(og, sigma=None):
    """(gflow or None, rounds): the maximally delayed search, in sigma-NF
    when sigma is given.

    A round solves every unsolved u that it can, given C, the outputs and
    the vertices solved so far. u's corrector is K = K' | {u} when u's
    plane puts u in g(u), else K', with K' within C minus the inputs (the
    outputs minus the inputs for Z); so an input whose plane puts it in
    g(u) is never solved. K's rows are the unsolved vertices w: w in Odd(K)
    exactly when w is u and u's plane puts u in Odd(g(u)). X adds a row for
    each solved measured w, w not in Odd(K); Y one for w in K exactly when
    w in Odd(K). Of the solutions, K' is the one within the lowest-first
    basis of the columns (`_column_basis`), which every u of a round
    shares. rounds[u] counts from the outputs: round 1 is measured last.
    """
    gflow, rounds, r = {}, {}, 0
    unsolved = og.measured
    while unsolved:
        done = og.vertices - unsolved
        rows = unsolved | (done - og.outputs) if sigma in ("X", "Y") else unsolved
        columns = []
        for c in sorted((og.outputs if sigma == "Z" else done) - og.inputs):
            vec = og.nbrs[c] & rows
            if sigma == "Y" and c in rows:  # c in K, on c's Y row
                vec ^= {c}
            columns.append((c, vec))
        basis = _column_basis(columns)
        new = {}
        for u in unsolved:
            in_g, in_odd = PLANES[og.planes[u]]
            if in_g and u in og.inputs:
                continue
            target = og.nbrs[u] & rows if in_g else set()
            if in_odd:
                target ^= {u}
            k = _solve(basis, target)
            if k is not None:
                new[u] = k | {u} if in_g else k
        if not new:
            return None, rounds
        r += 1
        rounds.update(dict.fromkeys(new, r))
        gflow.update(new)
        unsolved = unsolved - new.keys()
    return gflow, rounds
