"""The benchmark's five workloads.

Each workload builds its inputs from the seed in ``setup``, yields the items of
one round from ``round`` and splits an item into ``work`` (timed: the program's
calls) and ``check`` (untimed: is the output right). A round is a stratified
mix of input sizes, so that every run covers the same mix and the figures of
different seeds agree. ``check`` returns OK, FAIL or KNOWN; KNOWN is a failure
on an item that reproduces a catalogued defect (see KNOWN_DEFECTS). It counts
as failed like any other, but it does not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import traceback

import numpy as np

from gflownf import (
    ExtendedOpenGraph,
    Gflow,
    Graph,
    Plane,
    Statevector,
    brute_force_enumerate,
    check_determinism,
    check_normal_form,
    corrective_maps,
    exists_normal_form,
    extract_isometry,
    find_gflow,
    focus,
    parse_gflow,
    parse_open_graph_document,
    pattern_from_gflow,
    promote_all,
    run_all_branches,
    serialize_gflow,
    serialize_open_graph,
    verify_gflow,
)
from gflownf import cli
from gflownf.instances import PLANES, all_instances, random_instance

OK, FAIL, KNOWN = "ok", "fail", "known"
AXES = ("X", "Y", "Z")
DETERMINISM_TOL = 1e-9
ISOMETRY_TOL = 1e-8

KNOWN_DEFECTS = {
    "maps-missing-vertex": (
        "simulate with a corrective-map document that omits a measured vertex "
        "dies with a KeyError traceback and exit 1; the README contract asks for exit 2"
    ),
    "branch-bound-no-json": (
        "simulate over --branch-bound exits 3 but prints no JSON line on stdout"
    ),
}


class Workload:
    name = ""
    cpu_who = resource.RUSAGE_SELF
    max_rounds = None  # rounds per run when a round is long; else time decides

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.errors: list[str] = []

    def setup(self):
        """Build the inputs from the seed and warm up; may run several times."""

    def round(self, part=None):
        raise NotImplementedError

    def work(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str:
        raise NotImplementedError

    def round_errors(self, part) -> list[str]:
        """Errors found once a round is complete (for example wrong totals)."""
        return []

    def close(self):
        """Remove what setup left on disk."""

    def fail(self, what: str) -> str:
        if len(self.errors) < 5:
            self.errors.append(what)
        return FAIL


def _generic_angle(rng: random.Random) -> float:
    """An angle in [0, 2*pi) at least 0.1 away from every multiple of pi/2."""
    while True:
        a = rng.uniform(0.0, math.tau)
        r = a % (math.pi / 2)
        if min(r, math.pi / 2 - r) >= 0.1:
            return a


def _random_state(rng: random.Random, qubits) -> Statevector:
    amps = np.array(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 ** len(qubits))]
    )
    return Statevector(tuple(qubits), amps / np.linalg.norm(amps))


def _open_graph(vertices, edges, inputs, outputs, planes):
    graph = Graph(frozenset(vertices), frozenset(edges))
    return ExtendedOpenGraph(graph, frozenset(inputs), frozenset(outputs), planes)


def _randomise_keeping_gflow(rng, vertices, edges, inputs, outputs, planes, proposals):
    """Adopt each proposed edge, then a random plane per measured non-input,
    whenever the open graph keeps a gflow. The start must have one."""
    edges, planes = set(edges), dict(planes)
    eog = _open_graph(vertices, edges, inputs, outputs, planes)
    g = find_gflow(eog)
    if g is None:
        raise RuntimeError("the starting open graph has no gflow")
    for e in proposals:
        if e in edges:
            continue
        trial = _open_graph(vertices, edges | {e}, inputs, outputs, planes)
        tg = find_gflow(trial)
        if tg is not None:
            edges.add(e)
            eog, g = trial, tg
    for u in sorted(planes):
        plane = rng.choice(PLANES)
        if u in inputs or plane is planes[u]:
            continue
        trial = _open_graph(vertices, edges, inputs, outputs, {**planes, u: plane})
        tg = find_gflow(trial)
        if tg is not None:
            planes[u] = plane
            eog, g = trial, tg
    return eog, g


def grid_document(rng: random.Random, w: int, h: int):
    """A w x h cluster: inputs left, outputs right, all XY, ids a seeded permutation.

    Returns the JSON text and the causal flow g(x, y) = {(x + 1, y)}.
    """
    ids = list(range(w * h))
    rng.shuffle(ids)

    def vid(x, y):
        return ids[x * h + y]

    edges = [[vid(x, y), vid(x + 1, y)] for x in range(w - 1) for y in range(h)]
    edges += [[vid(x, y), vid(x, y + 1)] for x in range(w) for y in range(h - 1)]
    rng.shuffle(edges)
    doc = {
        "vertices": ids,
        "edges": edges,
        "inputs": [vid(0, y) for y in range(h)],
        "outputs": [vid(w - 1, y) for y in range(h)],
        "planes": {str(vid(x, y)): "XY" for x in range(w - 1) for y in range(h)},
    }
    flow = {vid(x, y): [vid(x + 1, y)] for x in range(w - 1) for y in range(h)}
    return json.dumps(doc), flow


class GridFlow(Workload):
    """Finder-bound algebra on grid clusters, from JSON text to serialized gflow."""

    name = "grid-flow"
    WIDTHS = (8, 12, 16, 20, 24, 28, 32)
    HEIGHTS = (4, 5, 6, 7, 8)

    def setup(self):
        rng = random.Random(self.seed)
        sizes = [(w, h) for w in self.WIDTHS for h in self.HEIGHTS]
        rng.shuffle(sizes)
        self.texts = [grid_document(rng, w, h)[0] for w, h in sizes]
        for text in sorted(self.texts, key=len)[:3]:
            self.check(text, self.work(text))

    def round(self, part=None):
        return self.texts

    def work(self, text):
        eog, _ = parse_open_graph_document(text)
        g = find_gflow(eog)
        report = verify_gflow(eog, g)
        fx, fy = focus(eog, g, "X"), focus(eog, g, "Y")
        nf = check_normal_form(eog, fx, "X") and check_normal_form(eog, fy, "Y")
        maps = corrective_maps(eog, g)
        return eog, g, report, fx, fy, nf, maps, serialize_gflow(g)

    def check(self, text, out):
        eog, g, report, fx, fy, nf, maps, g_text = out
        if not report.valid:
            return self.fail("grid gflow does not verify")
        if not (nf and verify_gflow(eog, fx).valid and verify_gflow(eog, fy).valid):
            return self.fail("focused grid gflow is not a valid X/Y normal form")
        if parse_gflow(g_text).assignments != g.assignments:
            return self.fail("gflow does not survive serialize -> parse")
        if set(maps.x) != eog.measured:
            return self.fail("corrective maps miss measured vertices")
        return OK


class Census(Workload):
    """Every open graph on at most four vertices: finder against the oracle, NF work."""

    name = "census"
    max_rounds = 1  # a round takes 14-20 s, so every run covers the census once
    MAX_VERTICES = 4
    INSTANCES, WITH_GFLOW = 266_377, 15_962

    def setup(self):
        self.seen = self.with_gflow = 0
        for eog in all_instances(self.MAX_VERTICES - 1):
            self.check(eog, self.work(eog))
        self.seen = self.with_gflow = 0

    def round(self, part=None):
        """The whole census, or its share ``i % m == r`` for part (r, m)."""
        for i, eog in enumerate(all_instances(self.MAX_VERTICES)):
            if part is None or i % part[1] == part[0]:
                yield eog

    def work(self, eog):
        g = find_gflow(eog)
        witness = brute_force_enumerate(eog, stop_after=1)
        out = {"g": g, "witness": witness.gflows, "focused": {}, "exists": {}, "promoted": {}}
        if g is None:
            return out
        mni = eog.measured_non_inputs
        for s in AXES:
            off = sorted(u for u in mni if not eog.planes[u].contains(s))
            if not off:
                f = focus(eog, g, s)
                out["focused"][s] = (f, check_normal_form(eog, f, s))
            exists = out["exists"][s] = exists_normal_form(eog, s)
            if s == "X" or not off or not exists:
                continue
            # promote_input_y needs every non-output neighbour of the promoted
            # vertex to carry Y; vertices are promoted in ascending order.
            if s == "Y" and any(
                v in off for u in off for v in eog.graph.neighbours(u)
            ):
                continue
            nf = brute_force_enumerate(eog, nf_sigma=s, stop_after=1).gflows[0]
            out["promoted"][s] = promote_all(eog, nf, s)
        return out

    def check(self, eog, out):
        self.seen += 1
        g, witness = out["g"], out["witness"]
        if (g is None) != (not witness):
            return self.fail(f"finder and oracle disagree on {eog}")
        if g is None:
            return OK
        self.with_gflow += 1
        if not (verify_gflow(eog, g).valid and verify_gflow(eog, witness[0]).valid):
            return self.fail("a census gflow does not verify")
        for s, (f, nf) in out["focused"].items():
            if not (nf and verify_gflow(eog, f).valid):
                return self.fail(f"focus to {s} is not a valid normal form")
        for s, exists in out["exists"].items():
            if exists is None or (s in out["focused"] and not exists):
                return self.fail(f"exists_normal_form({s}) gave {exists}")
        for s, (eog2, g2, steps) in out["promoted"].items():
            left = [u for u in eog2.measured_non_inputs if not eog2.planes[u].contains(s)]
            if left or not steps:
                return self.fail(f"promote_all({s}) left off-{s} vertices {left}")
            if not (verify_gflow(eog2, g2).valid and check_normal_form(eog2, g2, s)):
                return self.fail(f"promote_all({s}) gave an invalid {s}-NF gflow")
        return OK

    def round_errors(self, part):
        if part is not None and part[0] != part[1] - 1:
            return []  # totals are checked once every share has run
        totals = (self.seen, self.with_gflow)
        self.seen = self.with_gflow = 0
        if totals != (self.INSTANCES, self.WITH_GFLOW):
            return [f"census totals {totals}, expected {(self.INSTANCES, self.WITH_GFLOW)}"]
        return []


class _Patterns(Workload):
    """Shared item for the simulator workloads: pattern, all branches, isometry."""

    def round(self, part=None):
        r = self.rounds
        self.rounds += 1
        items = []
        for i, pool in enumerate(self.pool):
            eog, g = pool[r % len(pool)]
            rng = random.Random(f"{self.seed}/{r}/{i}")
            angles = {u: _generic_angle(rng) for u in sorted(eog.measured)}
            items.append((eog, g, angles, _random_state(rng, sorted(eog.inputs))))
        return items

    def work(self, item):
        eog, g, angles, state = item
        pattern = pattern_from_gflow(eog, angles, g)
        report = check_determinism(run_all_branches(pattern, state), DETERMINISM_TOL)
        return report, extract_isometry(pattern)

    def check(self, item, out):
        eog, *_ = item
        report, u = out
        if not (report.deterministic and report.strong):
            return self.fail(f"not strongly deterministic: {report.max_state_deviation}")
        if u.shape != (2 ** len(eog.outputs), 2 ** len(eog.inputs)):
            return self.fail(f"isometry has shape {u.shape}")
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))))
        if defect > ISOMETRY_TOL:
            return self.fail(f"isometry defect {defect}")
        return OK

    def warm_up(self):
        self.rounds = 0
        for item in self.round()[:2]:
            self.check(item, self.work(item))
        self.rounds = 0


class BranchCert(_Patterns):
    """Many short branches: 6-9 measured qubits on 8-11 vertex open graphs."""

    name = "branch-cert"
    # (measured qubits, inputs) of one round, cheapest first; cost grows as
    # k * 2**k * (2**|I| + 2). The doubled strata hold the 50th and the 90th
    # percentile, so neither falls in a gap between strata.
    ROUND = ((6, 0), (6, 1), (7, 0), (6, 2), (7, 1), (7, 1), (8, 0), (7, 2), (9, 0), (9, 0))
    POOL = 12  # patterns per stratum, so a run meets most of them once

    def setup(self):
        rng = random.Random(self.seed)
        self.pool = [[self.instance(rng, *s) for _ in range(self.POOL)] for s in self.ROUND]
        self.warm_up()

    @staticmethod
    def instance(rng, k, n_inputs):
        """A random_instance draw adopted onto interleaved chains, keeping a gflow.

        Plain random_instance draws of this size almost never have a gflow at
        k >= 8, so the draw's edges and random planes are added to a chain
        open graph one at a time, each only if a gflow survives.
        """
        n = k + 2  # 8-11 vertices; a fixed size per stratum keeps its cost steady
        m = n - k  # outputs; chain i runs order[i], order[i + m], ...
        order = list(range(n))
        rng.shuffle(order)
        chains = {tuple(sorted((order[i], order[i + m]))) for i in range(k)}
        planes = {u: Plane.XY for u in order[:k]}
        draw = random_instance(rng, n, 0.35)
        proposals = sorted(draw.graph.edges)
        rng.shuffle(proposals)
        return _randomise_keeping_gflow(
            rng, range(n), chains, set(order[:n_inputs]), set(order[k:]), planes, proposals
        )


class WideRegister(_Patterns):
    """Few branches on wide registers: paths of 15-18 qubits, 2-3 measured."""

    name = "wide-register"
    # (qubits, measured) of one round, cheapest first; doubled strata as in BranchCert.
    ROUND = (
        (15, 2), (15, 3), (16, 2), (16, 3), (17, 2), (17, 2), (17, 3), (18, 2), (18, 3), (18, 3)
    )

    def setup(self):
        rng = random.Random(self.seed)
        self.pool = []
        for n, k in self.ROUND:
            # Ids follow the path, so the measured qubits lead the register in
            # every seed; their place changes the cost of each measurement.
            path = list(range(n))
            edges = set(zip(path, path[1:]))
            planes = {u: Plane.XY for u in path[:k]}
            eog_g = _randomise_keeping_gflow(
                rng, path, edges, {path[0]}, set(path[k:]), planes, ()
            )
            self.pool.append([eog_g])
        self.warm_up()


class CliMix(Workload):
    """Sequential ``python -m gflownf.cli`` processes over all eight subcommands."""

    name = "cli-mix"
    cpu_who = resource.RUSAGE_CHILDREN
    COMMANDS = (
        "verify", "find", "enumerate", "focus", "check-nf", "promote", "simulate",
        "oracle-compare",
    )
    in_process = False  # run cli.main(argv) in this process instead

    def setup(self):
        rng = random.Random(self.seed)
        self.dir = os.path.join(self.root, ".perfbench-out", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.items = self.build_items(rng)
        rng.shuffle(self.items)
        warm = next(i for i in self.items if i["cmd"] == "find")
        self.check(warm, self.run_process(warm["argv"]))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def build_items(self, rng):
        items = []

        def add(cmd, argv, expect, meaning=None, known=None):
            items.append(
                {"cmd": cmd, "argv": [cmd, *argv], "expect": expect,
                 "meaning": meaning, "known": known}
            )

        w, h = rng.randint(3, 8), rng.randint(2, 5)
        grid_text, flow = grid_document(rng, w, h)
        grid = self.write("grid.json", grid_text)
        eog = parse_open_graph_document(grid_text)[0]
        good = self.write("flow.json", serialize_gflow(Gflow(flow)))
        u = rng.choice(sorted(eog.measured))
        bad = self.write("bad.json", serialize_gflow(Gflow({**flow, u: flow[u] + [u]})))

        def verifies(g_doc, on=eog):
            return verify_gflow(on, _gflow(g_doc)).valid

        add("find", [grid], 0, lambda d: verifies(d["gflow"]))
        doc = json.loads(grid_text)
        doc["planes"][str(doc["inputs"][0])] = "XZ"  # a measured input off XY: no gflow
        add("find", [self.write("nogflow.json", json.dumps(doc))], 1, lambda d: d["gflow"] is None)
        add("verify", [grid, good], 0, lambda d: d["valid"] and not d["violations"])
        add("verify", [grid, bad], 1, lambda d: not d["valid"] and d["violations"])
        sigma = rng.choice(("X", "Y"))
        add("focus", [grid, good, "--sigma", sigma], 0,
            lambda d: verifies(d["g"]) and check_normal_form(eog, _gflow(d["g"]), sigma))
        # The flow's corrector sits one column on, so it is Z-NF only when w == 2.
        add("check-nf", [grid, good, "--sigma", "Z"], 1,
            lambda d: d == {"normal_form": False, "sigma": "Z"})

        n = rng.randint(4, 5)
        path_text = json.dumps({
            "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
            "inputs": [0], "outputs": [n - 1],
            "planes": {str(i): "XY" for i in range(n - 1)},
        })
        path = self.write("path.json", path_text)
        path_eog = parse_open_graph_document(path_text)[0]
        add("enumerate", [path], 0,
            lambda d: d["exhausted"] and d["count"] == len(d["gflows"]) >= 1
            and all(verifies(x, path_eog) for x in d["gflows"]))
        add("enumerate", [path, "--limit", "1"], 3,
            lambda d: not d["exhausted"] and all(verifies(x, path_eog) for x in d["gflows"]))

        z_eog, z_g, u0 = self.promotable(rng)
        z_graph = self.write("zgraph.json", serialize_open_graph(z_eog))
        z_flow = self.write("zflow.json", serialize_gflow(z_g))

        def promoted(d):
            eog2 = parse_open_graph_document(json.dumps(d["graph"]))[0]
            g2 = _gflow(d["gflow"])
            return (d["promoted_vertex"] == u0 and u0 in eog2.inputs
                    and verify_gflow(eog2, g2).valid and check_normal_form(eog2, g2, "Z"))

        add("promote", [z_graph, z_flow, "--sigma", "Z", "--vertex", str(u0)], 0, promoted)

        k = rng.randint(4, 6)
        p_eog, p_g = BranchCert.instance(rng, k, rng.randint(0, 1))
        angles = {u: _generic_angle(rng) for u in sorted(p_eog.measured)}
        pattern = self.write("pattern.json", serialize_open_graph(p_eog, angles))
        p_flow = self.write("pflow.json", serialize_gflow(p_g))
        maps = corrective_maps(p_eog, p_g)
        maps_doc = {
            "x": {str(v): sorted(s) for v, s in maps.x.items()},
            "z": {str(v): sorted(s) for v, s in maps.z.items()},
        }
        p_maps = self.write("pmaps.json", json.dumps(maps_doc))
        dropped = str(rng.choice(sorted(p_eog.measured)))
        del maps_doc["x"][dropped], maps_doc["z"][dropped]
        p_partial = self.write("pmaps_partial.json", json.dumps(maps_doc))

        def certified(d):
            return d["deterministic"] and d["strong"]

        add("simulate", [pattern, p_flow, "--input", "random", "--seed", str(self.seed)], 0,
            certified)
        add("simulate", [pattern, p_maps], 0, certified)
        add("simulate", [pattern, p_flow, "--branch-bound", str(k - 1)], 3,
            lambda d: isinstance(d, dict), known="branch-bound-no-json")
        add("simulate", [pattern, p_partial], 2, known="maps-missing-vertex")

        trials = rng.randint(10, 40)
        add("oracle-compare", ["--max-vertices", "3", "--trials", str(trials),
                               "--seed", str(self.seed)], 0,
            lambda d: d["instances"] == 4233 + trials
            and d["disagreements"] == 0 and d["invalid_gflows"] == 0)

        cut = rng.randint(1, len(grid_text) - 2)
        add("find", [self.write("truncated.json", grid_text[:cut])], 2)
        doc = json.loads(grid_text)
        doc["planes"][rng.choice(sorted(doc["planes"]))] = rng.choice(("XX", "xy", "ZY"))
        add("verify", [self.write("badplane.json", json.dumps(doc)), good], 2)
        return items

    @staticmethod
    def promotable(rng):
        """A small instance with a Z-NF gflow and an XY-measured non-input."""
        while True:
            eog = random_instance(rng, rng.randint(3, 5), force_input_xy=True)
            off = sorted(u for u in eog.measured_non_inputs if eog.planes[u] is Plane.XY)
            if not off:
                continue
            nf = brute_force_enumerate(eog, nf_sigma="Z", stop_after=1).gflows
            if nf:
                return eog, nf[0], off[0]

    def round(self, part=None):
        return self.items

    def run_process(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gflownf.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_main(argv):
        """cli.main in this process; an escaping exception reads as the
        interpreter would report it: a traceback on stderr and exit 1."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - mirrors an uncaught exception
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def work(self, item):
        if self.in_process:
            return self.run_main(item["argv"])
        return self.run_process(item["argv"])

    def check(self, item, out):
        code, stdout, stderr = out
        problem = None
        if code != item["expect"]:
            problem = f"exit {code}, expected {item['expect']}"
        elif "Traceback" in stderr:
            problem = "traceback on stderr"
        elif code in (0, 1, 3):
            lines = stdout.splitlines()
            if len(lines) != 1:
                problem = f"{len(lines)} lines on stdout, expected one JSON line"
            elif item["meaning"] and not item["meaning"](json.loads(lines[0])):
                problem = "stdout is wrong: " + lines[0][:200]
        if problem is None:
            return OK
        if item["known"]:
            return KNOWN
        return self.fail(f"{item['cmd']}: {problem}")


def _gflow(doc):
    """A Gflow from the CLI's JSON map of string vertex ids to id lists."""
    return Gflow({int(k): v for k, v in doc.items()})


WORKLOADS = {w.name: w for w in (GridFlow, Census, BranchCert, WideRegister, CliMix)}
