"""Every result is invariant under an order-keeping relabelling of the ids.

Bit i of a vertex mask stands for the i-th smallest id, so mapping the ids
of an instance by a strictly increasing injection maps every result, its
orders and tie-breaks included, by the same injection. The injections land
in [10**12, 10**13]: a mask with one bit per id would need over 100 GB.
"""

import random

from gflownf import (
    CycleError,
    ExtendedOpenGraph,
    Gflow,
    Graph,
    brute_force_enumerate,
    check_normal_form,
    corrective_maps,
    exists_normal_form,
    extensivity_order,
    find_gflow,
    focus,
    pattern_from_gflow,
    verify_gflow,
)
from gflownf.gflow import AXES
from gflownf.opengraph import set_to_mask
from gflownf.search import _find_gflow_rounds
from gflownf.instances import random_instance

LOW, HIGH = 10**12, 10**13


def relabel(eog, phi):
    """The instance with each id v replaced by phi[v]."""

    def m(vs):
        return frozenset(phi[v] for v in vs)

    edges = frozenset((phi[u], phi[v]) for u, v in eog.graph.edges)
    graph = Graph(m(eog.vertices), edges)
    planes = {phi[u]: p for u, p in eog.planes.items()}
    return ExtendedOpenGraph(graph, m(eog.inputs), m(eog.outputs), planes)


def outcomes(eog, g, bad, f, limit):
    """Every result on the instance, each id replaced by its rank."""
    rank = {v: i for i, v in enumerate(sorted(eog.vertices))}

    def s(vs):
        return frozenset(rank[v] for v in vs)

    def flow(h):
        return None if h is None else {rank[u]: s(k) for u, k in h.assignments.items()}

    def report(r):
        return r.valid, [(rank[v.vertex], v.condition, s(v.witness))
                         for v in r.violations]

    found, rounds = _find_gflow_rounds(eog)
    enum = brute_force_enumerate(eog, limit)
    maps = corrective_maps(eog, g)
    angles = dict.fromkeys(eog.measured, 0.5)
    out = [
        flow(found),
        {rank[u]: r for u, r in rounds.items()},
        [flow(h) for h in enum.gflows],
        enum.exhausted,
        report(verify_gflow(eog, g)),
        report(verify_gflow(eog, bad)),
        flow(Gflow(maps.x)),
        flow(Gflow(maps.z)),
        [rank[u] for u in pattern_from_gflow(eog, angles, g).schedule],
    ]
    for sigma in AXES:
        out.append(exists_normal_form(eog, sigma))
        out.append(check_normal_form(eog, g, sigma))
        if all(eog.planes[u].contains(sigma) for u in eog.measured_non_inputs):
            out.append(flow(focus(eog, g, sigma)))
    try:
        layers = extensivity_order(eog.graph, eog.outputs, f).layers
        out.append({rank[v]: d for v, d in layers.items()})
    except CycleError as exc:
        out.append([rank[v] for v in exc.cycle])
    return out


def assert_relabel_invariant(rng, eog, g, limit):
    """eog has the ids 0..n-1 and g is one of its gflows."""
    n = len(eog.vertices)
    phi = dict(enumerate(sorted(rng.sample(range(LOW, HIGH + 1), n))))
    bad = dict(g.assignments)
    if bad:
        u = rng.choice(sorted(bad))
        bad[u] = bad[u] ^ {rng.randrange(n)}
    density = rng.uniform(0.0, 0.5)
    f = {v: {w for w in range(n) if rng.random() < density} for v in range(n)}

    def m(h):
        return {phi[v]: frozenset(phi[w] for w in h[v]) for v in h}

    sparse = relabel(eog, phi)
    sparse_g = Gflow(m(g.assignments))
    got = outcomes(sparse, sparse_g, Gflow(m(bad)), m(f), limit)
    assert got == outcomes(eog, g, Gflow(bad), f, limit)
    # Bit i stands for the i-th smallest id, whatever the ids.
    for v in eog.measured:
        assert sparse.graph.mask(sparse_g[phi[v]]) == set_to_mask(g[v])
        assert sparse.graph.members(set_to_mask(g[v])) == sparse_g[phi[v]]


def test_census_sample(small_sweep):
    rng = random.Random(101)
    for eog, g in rng.sample(small_sweep, 2_000):
        assert_relabel_invariant(rng, eog, g, 1_000)


def test_random_instances():
    rng = random.Random(103)
    checked = 0
    while checked < 1_000:
        eog = random_instance(rng, rng.randint(5, 10), force_input_xy=True)
        g = find_gflow(eog)
        if g is not None:
            assert_relabel_invariant(rng, eog, g, 50)
            checked += 1
