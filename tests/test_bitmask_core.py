"""The bitmask core against one independent reference.

`set_reference.py` defines each gflow rule once, on frozensets of ids, with
the standard library alone. The library must reproduce its enumerations,
verification reports, normal-form verdicts, focused gflows, corrective
maps, layers, schedules and cycle witnesses, and the finder's gflows and
rounds, exactly: on the |V| <= 4 census, on random instances, and on
instances whose ids an increasing map sends into [10**12, 10**13], where a
mask with one bit per id would need over 100 GB.
"""

import ast
import contextlib
import copy
import functools
import pickle
import random
import sys
import traceback
from pathlib import Path

import pytest

from gflownf import (
    CycleError,
    ExtendedOpenGraph,
    Gflow,
    Graph,
    OpenGraphError,
    Plane,
    brute_force_enumerate,
    check_input_planes,
    check_normal_form,
    corrective_maps,
    extensivity_order,
    find_gflow,
    focus,
    pattern_from_gflow,
    serialize_gflow,
    verify_gflow,
)
import set_reference as ref
from conftest import grid_cluster
from gflownf.gflow import AXES, _verify
from gflownf.search import _find_gflow_rounds
from gflownf.instances import all_instances, random_instance

LOW, HIGH = 10**12, 10**13


def plain(eog):
    """The instance as the reference reads it."""
    planes = {u: p.value for u, p in eog.planes.items()}
    return ref.OpenGraph(eog.vertices, eog.graph.edges, eog.inputs, eog.outputs, planes)


def sets(g):
    """A gflow's corrector sets, or None."""
    return None if g is None else g.assignments


def outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)


# --- Comparisons with the reference. ---


def assert_same_finder(eog, sigma=None, og=None):
    """The finder's gflow and rounds are the reference's; returns the gflow."""
    g, rounds = _find_gflow_rounds(eog, sigma)
    assert (sets(g), rounds) == ref.find(og or plain(eog), sigma)
    return g


def assert_same_enumeration(eog, limit=1_000_000, og=None, **kw):
    """The enumeration and its ``exhausted`` flag are the reference's;
    returns the reference's gflows."""
    got = brute_force_enumerate(eog, limit, **kw)
    gflows, exhausted = ref.enumerate_gflows(og or plain(eog), limit, **kw)
    assert ([sets(g) for g in got.gflows], got.exhausted) == (gflows, exhausted)
    return gflows


def assert_same_order(graph, outputs, f, measured):
    """``extensivity_order`` gives the reference's layers and schedule, or
    raises with its witness cycle."""
    depth, cycle = ref.layers(graph.vertices, outputs, f)
    try:
        got = extensivity_order(graph, outputs, f)
    except CycleError as exc:
        assert list(exc.cycle) == cycle
    else:
        assert got.layers == depth
        assert got.schedule(measured) == ref.schedule(measured, depth)


def assert_same_report(eog, g, og):
    """``verify_gflow`` reports what the reference does; returns the verdict."""
    report = verify_gflow(eog, g)
    valid, violations = ref.verify(og, g.assignments)
    assert report.valid == valid
    assert [(v.vertex, v.condition, v.witness) for v in report.violations] == violations
    return valid


def assert_same_rules(eog, g, og=None):
    """Verification, normal forms, the f-map's order and, for a valid g,
    focusing and the corrective maps agree with the reference for map g;
    returns the verdict."""
    og = og or plain(eog)
    gs = sets(g)
    valid = assert_same_report(eog, g, og)
    outside = [sorted(k - eog.vertices) for k in gs.values() if not k <= eog.vertices]
    for sigma in AXES:
        if outside:  # the message names the non-vertices of one corrector
            with pytest.raises(OpenGraphError) as exc:
                check_normal_form(eog, g, sigma)
            assert str(exc.value) in [
                f"set members {bad} are not graph vertices" for bad in outside
            ]
        else:
            assert check_normal_form(eog, g, sigma) == ref.normal_form(og, gs, sigma)
    if not outside:
        f = {u: k | ref.odd(og, k) for u, k in gs.items()}
        assert_same_order(eog.graph, eog.outputs, f, eog.measured)
        assert_topological(eog, g, f)
    if valid:
        for sigma in AXES:
            got = outcome(focus, eog, g, sigma)
            want = outcome(ref.focus, og, gs, sigma)
            assert (sets(got) if isinstance(got, Gflow) else got) == want
        maps = corrective_maps(eog, g)
        assert (maps.x, maps.z) == ref.corrections(og, gs)
    return valid


def assert_topological(eog, g, f):
    """The order g's verification keeps lists each measured vertex once,
    before the measured vertices of f(u) \\ {u}; it is None when the
    reference finds a cycle."""
    order = _verify(eog, g)[2]
    if ref.layers(eog.vertices, eog.outputs, f)[1] is not None:
        assert order is None
        return
    ids = eog.graph.ids
    place = {ids[i]: p for p, i in enumerate(order)}
    assert len(order) == len(place) and place.keys() == eog.measured
    assert all(place[u] < place[v] for u in place for v in f[u] - {u} if v in place)


def assert_same_schedule(eog, g, og=None):
    og = og or plain(eog)
    angles = dict.fromkeys(eog.measured, 0.5)
    depth = ref.order(og, sets(g))[0]
    assert pattern_from_gflow(eog, angles, g).schedule == ref.schedule(og.measured, depth)


def assert_sparse_results(rng, eog, g, limit):
    """eog has the ids 0..n-1 and g is one of its gflows. Relabelled by an
    increasing map into [LOW, HIGH], so are g, g with one corrector
    flipped and a random map f; on them the finder for every sigma, the
    enumeration, the rules and the schedule of g, the report of the flipped
    copy and f's order are the reference's."""
    n = len(eog.vertices)
    phi = dict(enumerate(sorted(rng.sample(range(LOW, HIGH + 1), n))))
    bad = dict(g.assignments)
    if bad:
        u = rng.choice(sorted(bad))
        bad[u] = bad[u] ^ {rng.randrange(n)}
    density = rng.uniform(0.0, 0.5)
    f = {v: {w for w in range(n) if rng.random() < density} for v in range(n)}

    def m(vs):
        return frozenset(phi[v] for v in vs)

    edges = frozenset((phi[u], phi[v]) for u, v in eog.graph.edges)
    planes = {phi[u]: p for u, p in eog.planes.items()}
    sparse = ExtendedOpenGraph(
        Graph(m(eog.vertices), edges), m(eog.inputs), m(eog.outputs), planes
    )
    og = plain(sparse)
    sparse_g = Gflow({phi[u]: m(k) for u, k in g.assignments.items()})
    for sigma in (None, *AXES):
        assert_same_finder(sparse, sigma, og)
    assert_same_enumeration(sparse, limit, og)
    assert assert_same_rules(sparse, sparse_g, og)
    assert_same_report(sparse, Gflow({phi[u]: m(k) for u, k in bad.items()}), og)
    assert_same_schedule(sparse, sparse_g, og)
    sparse_f = {phi[v]: m(ws) for v, ws in f.items()}
    assert_same_order(sparse.graph, sparse.outputs, sparse_f, sparse.measured)


# --- Checks that need no reference. ---


def _kept(eog, g):
    """What g's verification keeps: the report, the masks and the order."""
    return _verify(eog, g)


def _grid_flow_calls(eog, g, copy):
    """The outcomes of grid-flow's calls on map g, in its order, each call
    given copy(g) or copy of a focused gflow; then the three NF verdicts on
    g and what g's verification keeps."""
    out = [outcome(verify_gflow, eog, copy(g))]
    focused = [outcome(focus, eog, copy(g), sigma) for sigma in "XY"]
    out += focused
    out += [
        check_normal_form(eog, copy(f), sigma)
        for f, sigma in zip(focused, "XY")
        if isinstance(f, Gflow)
    ]
    out.append(outcome(corrective_maps, eog, copy(g)))
    out += [verify_gflow(eog, copy(f)) for f in focused if isinstance(f, Gflow)]
    out += [outcome(check_normal_form, eog, copy(g), sigma) for sigma in AXES]
    return out + [outcome(_kept, eog, copy(g))]


def assert_memo_transparent(eog, g):
    """One Gflow object through grid-flow's calls answers as fresh copies do."""
    memo = _grid_flow_calls(eog, g, lambda h: h)
    assert memo == _grid_flow_calls(eog, g, lambda h: Gflow(h.assignments))


def assert_same_forms(g):
    """A gflow of ``Gflow._of_bits`` and its set copy are one value; the
    text is serialized first, before g builds its id sets."""
    text = serialize_gflow(g)
    sets = Gflow(dict(g.assignments))
    assert serialize_gflow(sets) == text
    assert g == sets and repr(g) == repr(sets)
    assert pickle.dumps(g) == pickle.dumps(sets)
    assert pickle.loads(pickle.dumps(g)) == sets == copy.deepcopy(g)
    for h in (g, sets):
        with pytest.raises(TypeError):
            hash(h)


def layered_instance(rng, h, w):
    """h chains of w steps, step t of each joined to step t + 1 of its
    chain and, at random, to step t of the other chains: the chains are a
    causal flow, so a gflow exists. The first steps are the inputs, the last
    the outputs, every plane is XY and the ids are a random sample."""
    ids = rng.sample(range(3 * h * w), h * w)
    at = {(c, t): ids[c * w + t] for c in range(h) for t in range(w)}
    p = rng.uniform(0.0, 0.6)
    edges = {(at[c, t], at[c, t + 1]) for c in range(h) for t in range(w - 1)}
    edges |= {
        (at[c, t], at[d, t])
        for t in range(w)
        for c in range(h)
        for d in range(c + 1, h)
        if rng.random() < p
    }
    return ExtendedOpenGraph(
        Graph(frozenset(ids), frozenset(edges)),
        frozenset(at[c, 0] for c in range(h)),
        frozenset(at[c, w - 1] for c in range(h)),
        {at[c, t]: Plane.XY for c in range(h) for t in range(w - 1)},
    )


def random_map(rng, eog):
    """A corrector map over all vertices, sometimes naming a non-vertex."""
    pool = sorted(eog.vertices) + [-1, max(eog.vertices, default=0) + 3]
    weights = [1.0] * len(eog.vertices) + [0.05, 0.05]
    return Gflow(
        {
            u: {v for v, w in zip(pool, weights) if rng.random() < 0.4 * w}
            for u in eog.measured
        }
    )


SWEEP = 15962  # census instances with a gflow


class Failures(dict):
    """The first failure of each subject of a pass, with where it happened."""

    @contextlib.contextmanager
    def check(self, subject, where):
        """Record what the block raises under subject, and go on."""
        try:
            yield
        except (Exception, pytest.fail.Exception):
            self.setdefault(subject, f"{where}\n{traceback.format_exc()}")


@functools.cache
def census_pass():
    """One pass over the |V| <= 4 census; returns each subject's first failure.

    finder: on every instance, the finder's gflow and rounds, and the count
    of instances with a gflow. enumeration: on every instance with a gflow,
    every one on at most three vertices and every 16th of the rest, the
    enumeration; on at most three vertices, also cut off at 1, 2 and 3
    combinations and stopped at the first sigma-NF gflow; on every 16th of
    the rest with XY inputs, cut off at 3 and 24, as pruned subtrees must
    keep the product rank. sigma: on every instance with a gflow, the finder
    for each sigma, its verdict also against the reference's enumeration.
    rules: on every instance with a gflow, the two forms of its gflow, and
    the rules and the memo on that gflow and on every other one on a random
    map; then the forms of the found and focused gflows at the grid-flow
    benchmark's sizes. sparse: 2,000 of the instances with a gflow,
    relabelled to sparse ids.
    """
    failures = Failures()
    rng = random.Random(73)
    picks = random.Random(101)
    sample = picks.sample(range(SWEEP), 2_000)
    sampled = dict.fromkeys(sample)
    found = dict.fromkeys(AXES, 0)
    j = 0  # instances with a gflow so far
    for i, eog in enumerate(all_instances(4)):
        where = f"census instance {i}"
        og = plain(eog)
        g, rounds = _find_gflow_rounds(eog)
        with failures.check("finder", where):
            assert (sets(g), rounds) == ref.find(og)
        small = len(eog.vertices) <= 3
        gflows = None
        with failures.check("enumeration", where):
            if g is not None or small or i % 16 == 0:
                gflows = assert_same_enumeration(eog, og=og)
            if small:
                for limit in (1, 2, 3):
                    assert_same_enumeration(eog, limit, og)
                for sigma in AXES:
                    assert_same_enumeration(eog, og=og, nf_sigma=sigma, stop_after=1)
            elif i % 16 == 0 and check_input_planes(eog):
                for limit in (3, 24):
                    assert_same_enumeration(eog, limit, og)
        if g is None:
            continue
        if gflows is None:  # the enumeration's check failed first
            gflows = ref.enumerate_gflows(og)[0]
        with failures.check("sigma", where):
            assert gflows
            for sigma in AXES:
                nf = assert_same_finder(eog, sigma, og)
                assert (nf is not None) == any(
                    ref.normal_form(og, h, sigma) for h in gflows
                )
                if nf is not None:
                    assert sets(nf) in gflows and ref.normal_form(og, sets(nf), sigma)
                    found[sigma] += 1
        with failures.check("rules", where):
            assert_same_forms(g)
            assert_memo_transparent(eog, g)
            assert assert_same_rules(eog, g, og)
            if j % 2:
                h = random_map(rng, eog)
                assert_memo_transparent(eog, h)
                assert_same_rules(eog, h, og)
        if j in sampled:
            sampled[j] = eog, g
        j += 1
    with failures.check("finder", "the census"):
        assert j == SWEEP
    with failures.check("sigma", "the census"):
        assert all(0 < n < SWEEP for n in found.values())
    with failures.check("rules", "the grid-flow sizes"):
        for w in range(8, 33, 4):
            for h in range(4, 9):
                eog, _ = grid_cluster(rng, w, h)
                g = find_gflow(eog)
                for f in (g, focus(eog, g, "X"), focus(eog, g, "Y")):
                    assert_same_forms(f)
    for j in sample:
        with failures.check("sparse", f"census instance with a gflow {j}"):
            assert_sparse_results(picks, *sampled[j], 1_000)
    return failures


def assert_census(subject):
    """The census pass found no failure of subject."""
    failure = census_pass().get(subject)
    assert failure is None, failure


class TestBitmaskCore:
    """The bitmask core against the set-based reference."""

    def test_enumeration_census(self):
        assert_census("enumeration")

    def test_rules_census(self):
        assert_census("rules")

    def test_sparse_census(self):
        assert_census("sparse")

    def test_enumeration_random(self):
        rng = random.Random(71)
        found = 0
        for _ in range(1_500):
            eog = random_instance(
                rng, rng.randint(1, 6), force_input_xy=rng.random() < 0.7
            )
            og = plain(eog)
            found += bool(assert_same_enumeration(eog, 20_000, og))
            for sigma in AXES:
                assert_same_enumeration(eog, 20_000, og, nf_sigma=sigma, stop_after=1)
        assert found > 200

    def test_rules_random(self):
        rng = random.Random(79)
        valid = 0
        for _ in range(1_000):
            eog = random_instance(
                rng, rng.randint(1, 9), rng.uniform(0.2, 0.8), force_input_xy=True
            )
            og = plain(eog)
            gflows = brute_force_enumerate(eog, 2_000).gflows
            for g in gflows[:3]:
                assert_memo_transparent(eog, g)
                valid += assert_same_rules(eog, g, og)
                assert_same_schedule(eog, g, og)
            for _ in range(2):
                g = random_map(rng, eog)
                assert_memo_transparent(eog, g)
                assert_same_rules(eog, g, og)
        assert valid > 200

    def test_sparse_random(self):
        rng = random.Random(103)
        checked = 0
        while checked < 1_000:
            eog = random_instance(rng, rng.randint(5, 10), force_input_xy=True)
            g = find_gflow(eog)
            if g is not None:
                assert_sparse_results(rng, eog, g, 50)
                checked += 1

    def test_orders_random(self):
        rng = random.Random(83)
        for _ in range(2_000):
            n = rng.randint(1, 12)
            ids = rng.sample(range(3 * n), n)
            graph = Graph(frozenset(ids), frozenset())
            outputs = frozenset(v for v in ids if rng.random() < 0.3)
            density = rng.uniform(0.0, 0.4)
            f = {u: {v for v in ids if rng.random() < density} for u in ids}
            assert_same_order(graph, outputs, f, frozenset(ids) - outputs)

    def test_dags_with_a_back_arc(self):
        # found gflows on 20 to 200 vertices in chains of up to 200 steps,
        # then each with one arc a -> b of f answered by a in g(b)
        rng = random.Random(89)
        for _ in range(40):
            h = rng.randint(1, 8)
            eog = layered_instance(rng, h, rng.randint(-(-20 // h), 200 // h))
            og = plain(eog)
            g = find_gflow(eog)
            assert assert_same_rules(eog, g, og)
            arcs = [
                (a, b)
                for a, k in sorted(g.assignments.items())
                for b in sorted((k | ref.odd(og, k)) & eog.measured - {a})
            ]
            a, b = rng.choice(arcs)
            back = Gflow({**g.assignments, b: g[b] | {a}})
            assert not assert_same_rules(eog, back, og)
            report = verify_gflow(eog, back)
            assert "extensivity" in [v.condition for v in report.violations]

    @pytest.mark.parametrize("n", [1, 2, 50, 2_000])
    def test_chains_and_cycles(self, n):
        ids = list(range(0, 2 * n, 2))
        graph = Graph(frozenset(ids), frozenset())
        chain = {u: {v} for u, v in zip(ids, ids[1:])}
        assert_same_order(graph, {ids[-1]}, chain, frozenset(ids[:-1]))
        cycle = {**chain, ids[-1]: {ids[0]}}
        assert_same_order(graph, (), cycle, frozenset(ids))
        tail = {**cycle, ids[0]: {ids[1], ids[-1]}} if n > 2 else cycle
        assert_same_order(graph, (), tail, frozenset(ids))


def test_reference_imports_only_the_standard_library():
    # a reference that imported gflownf could share the rules it checks
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported <= sys.stdlib_module_names
