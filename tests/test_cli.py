import contextlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

import pytest

from gflownf import (
    Gflow,
    GflowEnumeration,
    OpenGraphError,
    corrective_maps,
    find_gflow,
    parse_gflow,
    parse_open_graph,
    serialize_gflow,
    serialize_open_graph,
    verify_gflow,
)
from gflownf.cli import ERROR_CHARS, build_parser, main
from gflownf.instances import random_instance

from conftest import PATH_DOC

PATH_GFLOW = json.dumps({"g": {"1": [2], "2": [3]}})
BAD_GFLOW = json.dumps({"g": {"1": [3], "2": [3]}})


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.json"
    p.write_text(PATH_DOC)
    return str(p)


@pytest.fixture
def gflow_file(tmp_path):
    p = tmp_path / "gflow.json"
    p.write_text(PATH_GFLOW)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def input_error(capsys, argv):
    """The stderr of a command that must exit 2 with no stdout line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "Traceback" not in captured.err
    return captured.err


class TestVerify:
    def test_valid(self, capsys, graph_file, gflow_file):
        code, doc = run(capsys, ["verify", graph_file, gflow_file])
        assert code == 0
        assert doc["valid"] is True and doc["violations"] == []

    def test_invalid(self, capsys, graph_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_GFLOW)
        code, doc = run(capsys, ["verify", graph_file, str(bad)])
        assert code == 1
        assert not doc["valid"] and doc["violations"]

    def test_missing_file(self, capsys, graph_file):
        assert main(["verify", graph_file, "/nonexistent.json"]) == 2

    def test_malformed_graph(self, capsys, tmp_path, gflow_file):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["verify", str(broken), gflow_file]) == 2


class TestFindAndEnumerate:
    def test_find(self, capsys, graph_file):
        code, doc = run(capsys, ["find", graph_file])
        assert code == 0
        assert doc["gflow"] is not None

    def test_find_negative(self, capsys, tmp_path):
        # isolated measured vertex, no gflow
        doc = {
            "vertices": [1],
            "edges": [],
            "inputs": [],
            "outputs": [],
            "planes": {"1": "XY"},
        }
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        assert main(["find", str(p)]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("vertices", [True, 2, 3]), ("edges", [[True, 2], [2, 3]]),
         ("vertices", [1, 2, 3, 3]), ("inputs", [1, 1])],
    )
    def test_find_rejects_bool_and_duplicate_ids(self, capsys, tmp_path, key, value):
        doc = json.loads(PATH_DOC)
        doc[key] = value
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        input_error(capsys, ["find", str(p)])

    def test_enumerate_path(self, capsys, graph_file):
        code, doc = run(capsys, ["enumerate", graph_file])
        assert code == 0
        assert doc["count"] == 2 and doc["exhausted"]
        assert {"1": [2], "2": [3]} in doc["gflows"]
        assert {"1": [2, 3], "2": [3]} in doc["gflows"]

    def test_enumerate_limit_hits_resource(self, capsys, graph_file):
        code, doc = run(capsys, ["enumerate", graph_file, "--limit", "1"])
        assert code == 3
        assert not doc["exhausted"]


class TestNormalFormCommands:
    def test_focus_y(self, capsys, graph_file, gflow_file):
        code, doc = run(capsys, ["focus", graph_file, gflow_file, "--sigma", "Y"])
        assert code == 0
        assert doc == {"g": {"1": [2, 3], "2": [3]}}

    def test_focus_rejects_invalid_gflow(self, capsys, graph_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_GFLOW)
        assert main(["focus", graph_file, str(bad), "--sigma", "X"]) == 2

    def test_check_nf_z_fails(self, capsys, graph_file, gflow_file):
        code, doc = run(capsys, ["check-nf", graph_file, gflow_file, "--sigma", "Z"])
        assert code == 1
        assert doc == {"normal_form": False, "sigma": "Z"}

    def test_check_nf_x_passes(self, capsys, graph_file, gflow_file):
        code, doc = run(capsys, ["check-nf", graph_file, gflow_file, "--sigma", "X"])
        assert code == 0
        assert doc["normal_form"] is True

    def test_check_nf_one_odd_mask_per_measured_vertex(
        self, capsys, probe, graph_file, gflow_file
    ):
        # the validity check and the X-NF inclusion share each Odd(g(u))
        calls = probe.calls("opengraph.odd_mask")
        code, doc = run(capsys, ["check-nf", graph_file, gflow_file, "--sigma", "X"])
        assert (code, doc["normal_form"]) == (0, True)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "assignment",
        [
            {"0": [1], "1": [3], "2": [99]},
            {"0": [99], "1": [2], "2": [3]},
        ],
    )
    def test_check_nf_non_vertex_id_is_input_error(self, capsys, tmp_path, assignment):
        # g(0) = {1} breaks the X inclusion, but the unknown id 99 must win
        # whichever vertex check_normal_form reaches first.
        graph = {
            "vertices": [0, 1, 2, 3],
            "edges": [[0, 1], [1, 2], [2, 3]],
            "inputs": [0],
            "outputs": [3],
            "planes": {"0": "XY", "1": "XY", "2": "XY"},
        }
        gp = tmp_path / "g.json"
        gp.write_text(json.dumps(graph))
        fp = tmp_path / "f.json"
        fp.write_text(json.dumps({"g": assignment}))
        argv = ["check-nf", str(gp), str(fp), "--sigma", "X"]
        assert "[99]" in input_error(capsys, argv)

    def test_check_nf_rejects_invalid_gflow(self, capsys, graph_file, tmp_path):
        # every id is a vertex, but g(1) = {3} breaks the XY plane condition
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_GFLOW)
        for sigma in "XYZ":
            argv = ["check-nf", graph_file, str(bad), "--sigma", sigma]
            assert "not valid" in input_error(capsys, argv)

    def test_promote_z(self, capsys, tmp_path):
        graph = {
            "vertices": [1, 2],
            "edges": [[1, 2]],
            "inputs": [],
            "outputs": [2],
            "planes": {"1": "XY"},
        }
        gp = tmp_path / "g.json"
        gp.write_text(json.dumps(graph))
        fp = tmp_path / "f.json"
        fp.write_text(json.dumps({"g": {"1": [2]}}))
        code, doc = run(
            capsys,
            ["promote", str(gp), str(fp), "--sigma", "Z", "--vertex", "1"],
        )
        assert code == 0
        assert doc["graph"]["inputs"] == [1]
        assert doc["promoted_vertex"] == 1 and doc["added_vertex"] is None

    def test_promote_ineligible_vertex(self, capsys, graph_file, gflow_file):
        code = main(
            ["promote", graph_file, gflow_file, "--sigma", "Z", "--vertex", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize("sigma, doc", [("Y", "edge_xz"), ("Z", "edge_xy")])
    def test_promote_calls_the_rewrite_of_sigma(
        self, capsys, probe, tmp_path, sigma, doc
    ):
        # the rewrite is chosen by sigma at call time, so a probe sees it
        _write_golden_docs(tmp_path)
        name = "normal_forms.promote_input_{}"
        calls = {s: probe.calls(name.format(s.lower())) for s in "YZ"}
        graph, flow = tmp_path / f"{doc}.json", tmp_path / f"{doc}_g.json"
        argv = ["promote", str(graph), str(flow), "--sigma", sigma, "--vertex", "1"]
        assert run(capsys, argv)[0] == 0
        assert {s: len(c) for s, c in calls.items()} == {s: s == sigma for s in "YZ"}

    def test_promote_reports_the_graph_document_as_built(self, capsys, probe, tmp_path):
        # the rewritten graph's document goes into the report as a dict,
        # not dumped to JSON text and parsed back
        _write_golden_docs(tmp_path)
        probe.refuse("opengraph.serialize_open_graph", "the graph was dumped to text")
        graph, flow = tmp_path / "edge_xz.json", tmp_path / "edge_xz_g.json"
        argv = ["promote", str(graph), str(flow), "--sigma", "Y", "--vertex", "1"]
        assert run(capsys, argv) == (0, {
            "added_vertex": 2,
            "gflow": {"1": [0], "2": [0, 2]},
            "graph": {"edges": [[0, 1], [1, 2]], "inputs": [1], "outputs": [0],
                      "planes": {"1": "XY", "2": "YZ"}, "vertices": [0, 1, 2]},
            "promoted_vertex": 1,
        })


class TestSimulate:
    def test_with_gflow_deterministic(self, capsys, graph_file, gflow_file):
        code, doc = run(capsys, ["simulate", graph_file, gflow_file])
        assert code == 0
        assert doc["deterministic"] and doc["strong"]
        assert doc["angles"] == {"1": 0.3, "2": 1.1}

    def test_without_corrections_fails(self, capsys, graph_file):
        code, doc = run(capsys, ["simulate", graph_file, "--seed", "4"])
        assert code == 1
        assert not doc["deterministic"]

    def test_random_input_state(self, capsys, graph_file, gflow_file):
        code, doc = run(
            capsys, ["simulate", graph_file, gflow_file, "--input", "random"]
        )
        assert code == 0 and doc["deterministic"]

    def test_dump_branches(self, capsys, graph_file, gflow_file):
        code, doc = run(
            capsys, ["simulate", graph_file, gflow_file, "--dump-branches"]
        )
        assert code == 0
        assert len(doc["branches"]) == 4
        total = sum(b["probability"] for b in doc["branches"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_branch_bound_exceeded(self, capsys, graph_file, gflow_file):
        assert main(["simulate", graph_file, gflow_file, "--branch-bound", "1"]) == 3

    def test_branch_bound_exceeded_emits_one_json_line(
        self, capsys, graph_file, gflow_file
    ):
        code = main(["simulate", graph_file, gflow_file, "--branch-bound", "1"])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["measured"] == 2 and doc["branch_bound"] == 1
        assert doc["error"] in captured.err

    def test_max_qubits_exceeded_before_allocation(self, capsys, tmp_path, probe):
        # a 40-vertex path with one measured vertex: k = 1 is far inside the
        # branch bound, but the register would take 16 * 2**40 bytes
        n = 40
        graph = {
            "vertices": list(range(n)),
            "edges": [[i, i + 1] for i in range(n - 1)],
            "inputs": [],
            "outputs": list(range(1, n)),
            "planes": {"0": "XY"},
        }
        gp = tmp_path / "wide.json"
        gp.write_text(json.dumps(graph))
        fp = tmp_path / "g.json"
        fp.write_text(json.dumps({"g": {"0": [1]}}))
        probe.refuse("sim._prepare_rows", "prepare reached past the width bound")
        code = main(["simulate", str(gp), str(fp)])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"error": doc["error"], "qubits": n, "max_qubits": 24}
        assert doc["error"] in captured.err

    @pytest.mark.parametrize(
        "flags, limit",
        [
            ([], {"measured": 39, "branch_bound": 12}),
            (["--branch-bound", "39"], {"qubits": 40, "max_qubits": 24}),
        ],
    )
    def test_bounds_checked_before_pattern_build(
        self, capsys, tmp_path, probe, flags, limit
    ):
        # a 40-vertex chain with its gflow: verifying the gflow or ordering
        # the maps costs Theta(n^2) bits, so neither may run past a bound
        n = 40
        graph = {
            "vertices": list(range(n)),
            "edges": [[i, i + 1] for i in range(n - 1)],
            "inputs": [0],
            "outputs": [n - 1],
            "planes": {str(i): "XY" for i in range(n - 1)},
        }
        gp = tmp_path / "chain.json"
        gp.write_text(json.dumps(graph))
        fp = tmp_path / "g.json"
        fp.write_text(json.dumps({"g": {str(i): [i + 1] for i in range(n - 1)}}))
        probe.refuse("cli._build_pattern", "the pattern was built past a bound")
        code = main(["simulate", str(gp), str(fp), *flags])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"error": doc["error"], **limit}
        assert doc["error"] in captured.err

    def test_max_qubits_flag(self, capsys, graph_file, gflow_file):
        argv = ["simulate", graph_file, gflow_file, "--max-qubits"]
        code, doc = run(capsys, argv + ["2"])
        assert code == 3
        assert doc["qubits"] == 3 and doc["max_qubits"] == 2
        code, doc = run(capsys, argv + ["3"])
        assert code == 0 and doc["deterministic"]

    def test_unallocatable_register_is_a_resource_limit(self, capsys, tmp_path):
        # 2**50 amplitudes are 16 PiB, beyond any user address space, so the
        # allocator refuses the register whatever the host's overcommit policy
        n = 50
        graph = {
            "vertices": list(range(n)),
            "edges": [[i, i + 1] for i in range(n - 1)],
            "inputs": [],
            "outputs": list(range(1, n)),
            "planes": {"0": "XY"},
        }
        gp = tmp_path / "chain.json"
        gp.write_text(json.dumps(graph))
        fp = tmp_path / "g.json"
        fp.write_text(json.dumps({"g": {"0": [1]}}))
        code = main(["simulate", str(gp), str(fp), "--max-qubits", str(n)])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"error": doc["error"], "qubits": n}
        assert doc["error"] in captured.err
        assert "Traceback" not in captured.err

    def test_register_numpy_cannot_represent_is_a_resource_limit(
        self, capsys, tmp_path
    ):
        # numpy refuses 2**64 amplitudes with ValueError, before allocating
        n = 64
        graph = {
            "vertices": list(range(n)),
            "edges": [[i, i + 1] for i in range(n - 1)],
            "inputs": [0],
            "outputs": list(range(2, n)),
            "planes": {"0": "XY", "1": "XY"},
        }
        gp = tmp_path / "chain.json"
        gp.write_text(json.dumps(graph))
        code = main(["simulate", str(gp), "--max-qubits", "100"])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"error": doc["error"], "qubits": n}
        assert "Traceback" not in captured.err

    def test_unallocatable_parity_table_is_a_resource_limit(
        self, capsys, graph_file, gflow_file, no_parity_table
    ):
        # the register is allocated; only prepare's 2**n-byte table is refused
        code = main(["simulate", graph_file, gflow_file])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"error": doc["error"], "qubits": 3}
        assert doc["error"] in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flag, key", [("--branch-bound", "branch_bound"), ("--max-qubits", "max_qubits")]
    )
    def test_zero_is_a_bound_not_the_default(
        self, capsys, graph_file, gflow_file, flag, key
    ):
        code, doc = run(capsys, ["simulate", graph_file, gflow_file, flag, "0"])
        assert code == 3 and doc[key] == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_tol_must_be_finite_and_non_negative(
        self, capsys, graph_file, gflow_file, tol
    ):
        # an input error, also where the branch bound would be hit (exit 3)
        for bound in ([], ["--branch-bound", "0"]):
            argv = ["simulate", graph_file, gflow_file, f"--tol={tol}", *bound]
            assert "tolerance" in input_error(capsys, argv)

    def test_tol_zero_is_a_tolerance(self, capsys, graph_file, gflow_file):
        code, doc = run(capsys, ["simulate", graph_file, gflow_file, "--tol", "0"])
        assert code in (0, 1)
        assert doc["tolerance"] == 0.0

    def test_corrective_maps_missing_vertex(self, capsys, graph_file, tmp_path):
        maps = {"x": {"1": [2]}, "z": {"1": [3]}}
        mp = tmp_path / "maps.json"
        mp.write_text(json.dumps(maps))
        err = input_error(capsys, ["simulate", graph_file, str(mp)])
        assert "must assign exactly the measured vertices" in err

    def test_corrective_maps_input(self, capsys, graph_file, tmp_path):
        maps = {"x": {"1": [2], "2": [3]}, "z": {"1": [3], "2": []}}
        mp = tmp_path / "maps.json"
        mp.write_text(json.dumps(maps))
        code, doc = run(capsys, ["simulate", graph_file, str(mp)])
        assert code == 0 and doc["deterministic"]

    def test_output_is_byte_stable(self, capsys, graph_file, gflow_file):
        main(["simulate", graph_file, gflow_file])
        first = capsys.readouterr().out
        main(["simulate", graph_file, gflow_file])
        assert capsys.readouterr().out == first


class TestOracleCompare:
    def test_small_sweep_agrees(self, capsys):
        code, doc = run(
            capsys, ["oracle-compare", "--max-vertices", "2", "--trials", "30"]
        )
        assert code == 0
        assert doc["disagreements"] == 0 and doc["invalid_gflows"] == 0
        assert doc["instances"] > 30

    @pytest.mark.parametrize(
        "case", ["disagreements", "invalid_gflows", "invalid_witness"]
    )
    def test_wrong_finder_exits_1(self, capsys, monkeypatch, case):
        # no gflow anywhere, or empty corrector sets, which fail every plane,
        # from the finder or as the enumerator's witness
        def empty(eog):
            return Gflow(dict.fromkeys(eog.measured, ()))

        name, fake, counter = {
            "disagreements": ("find_gflow", lambda eog: None, "disagreements"),
            "invalid_gflows": ("find_gflow", empty, "invalid_gflows"),
            "invalid_witness": (
                "brute_force_enumerate",
                lambda eog, **kw: GflowEnumeration((empty(eog),), True),
                "invalid_gflows",
            ),
        }[case]
        monkeypatch.setattr(f"gflownf.cli.{name}", fake)
        code, doc = run(capsys, ["oracle-compare", "--max-vertices", "2", "--trials", "9"])
        assert code == 1 and doc[counter] > 0


def _found_gflow(seed):
    """A seeded 6-9 qubit random_instance with inputs and a gflow, as
    documents: the open graph, with no angles, and its found gflow."""
    rng = random.Random(seed)
    while True:
        eog = random_instance(rng, rng.randint(6, 9), force_input_xy=True)
        g = find_gflow(eog)
        if g is not None and eog.inputs:
            return serialize_open_graph(eog), serialize_gflow(g)


# a 2 x 3 XY grid, inputs 0 and 3 on its first column, outputs on its last
GRID_DOC = json.dumps(
    {"vertices": [0, 1, 2, 3, 4, 5],
     "edges": [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3], [1, 4], [2, 5]],
     "inputs": [0, 3], "outputs": [2, 5],
     "planes": {"0": "XY", "1": "XY", "3": "XY", "4": "XY"}}
)


class TestOneSchedulePath:
    """A gflow and its corrective maps give one pattern: simulate prints the
    same line for the gflow's document and for the maps' document."""

    @pytest.mark.parametrize("state", ["basis", "random"])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, "grid"])
    def test_gflow_and_its_maps_print_the_same_line(
        self, capsys, tmp_path, seed, state
    ):
        if seed is None:
            graph, flow = PATH_DOC, PATH_GFLOW
        elif seed == "grid":
            graph = GRID_DOC
            flow = serialize_gflow(find_gflow(parse_open_graph(graph)))
        else:
            graph, flow = _found_gflow(seed)
        maps = corrective_maps(parse_open_graph(graph), parse_gflow(flow))
        maps_doc = {
            side: {str(u): sorted(s) for u, s in getattr(maps, side).items()}
            for side in "xz"
        }
        docs = {"graph": graph, "g": flow, "maps": json.dumps(maps_doc)}
        for name, text in docs.items():
            (tmp_path / f"{name}.json").write_text(text)
        lines = []
        for corrections in ("g", "maps"):
            argv = ["simulate", str(tmp_path / "graph.json"),
                    str(tmp_path / f"{corrections}.json"), "--input", state,
                    "--seed", "5", "--dump-branches"]
            assert main(argv) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert len(json.loads(lines[0])["branches"]) == 2 ** len(maps.x)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "{graph}", "--limit", "-1"], "--limit must be >= 0, got -1"),
        (["simulate", "{graph}", "{gflow}", "--branch-bound", "-3"],
         "--branch-bound must be >= 0, got -3"),
        (["simulate", "{graph}", "--max-qubits", "-1"],
         "--max-qubits must be >= 0, got -1"),
        (["oracle-compare", "--max-vertices", "-2", "--trials", "5"],
         "--max-vertices must be >= 0, got -2"),
        (["oracle-compare", "--trials", "-5"], "--trials must be >= 0, got -5"),
        (["simulate", "{graph}", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["simulate", "{graph}", "--seed", "-1", "--input", "random"],
         "--seed must be >= 0, got -1"),
    ],
)
def test_negative_bound_is_an_input_error(
    capsys, graph_file, gflow_file, argv, message
):
    argv = [a.format(graph=graph_file, gflow=gflow_file) for a in argv]
    assert message in input_error(capsys, argv)


class TestMalformedIds:
    """Ids outside the open-graph rules are input errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize("which", ["graph", "gflow"])
    def test_too_deep_json(self, capsys, graph_file, gflow_file, tmp_path, which):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = ["verify", graph_file, gflow_file]
        argv[1 if which == "graph" else 2] = str(deep)
        input_error(capsys, argv)

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0"])
    @pytest.mark.parametrize("field", ["planes", "angles"])
    def test_graph_key(self, capsys, tmp_path, field, key):
        doc = json.loads(PATH_DOC)
        doc[field][key] = doc[field].pop("1")
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        input_error(capsys, ["find", str(p)])

    @pytest.mark.parametrize(
        "plane, quoted",
        [("XW", '"XW"'), (3, "3"), (None, "null"), (["XY"], '["XY"]'),
         ("xy", '"xy"'), (True, "true")],
        ids=["XW", "3", "null", "list", "xy", "true"],
    )
    def test_unknown_plane(self, capsys, tmp_path, plane, quoted):
        # the value is quoted as the document writes it, in JSON
        doc = json.loads(PATH_DOC)
        doc["planes"]["1"] = plane
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        message = f"unknown plane {quoted} at vertex 1"
        with pytest.raises(OpenGraphError, match=re.escape(message)):
            parse_open_graph(p.read_text())
        assert input_error(capsys, ["find", str(p)]) == message + "\n"

    @pytest.mark.parametrize(
        "edge, message",
        [([0], "malformed edge [0]"), ([0, 1, 2], "malformed edge [0, 1, 2]"),
         ([0, True], "malformed edge [0, true]"),
         (["0", 1], 'malformed edge ["0", 1]'), ("ab", 'malformed edge "ab"'),
         ([1, 1], "self-loop at vertex 1")],
        ids=["one-id", "three-ids", "bool-id", "string-id", "string", "self-loop"],
    )
    def test_malformed_edge(self, capsys, tmp_path, edge, message):
        doc = json.loads(PATH_DOC)
        doc["edges"].append(edge)
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        assert input_error(capsys, ["find", str(p)]) == message + "\n"

    @pytest.mark.parametrize("field", ["planes", "edges"])
    def test_deepest_value_that_parses(self, capsys, tmp_path, field):
        # A plane value or edge nested as deep as the JSON reader allows is
        # still quoted on one stderr line, with no traceback.
        p = tmp_path / "g.json"

        def find(depth):
            doc = json.loads(PATH_DOC)
            doc[field]["1" if field == "planes" else 0] = "DEEP"
            p.write_text(json.dumps(doc).replace('"DEEP"', "[" * depth + "]" * depth))
            return input_error(capsys, ["find", str(p)])

        # the reader's depth limit, by doubling and then bisection
        lo, hi = 1, 2
        while not find(hi).startswith("invalid JSON"):
            lo, hi = hi, 2 * hi
            assert hi <= 1 << 20
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if find(mid).startswith("invalid JSON") else (mid, hi)
        err = find(lo)
        message = "unknown plane " if field == "planes" else "malformed edge "
        assert err.startswith(message) and err.count("\n") == 1

    def test_bool_angle(self, capsys, tmp_path):
        doc = json.loads(PATH_DOC)
        doc["angles"]["1"] = True
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        input_error(capsys, ["simulate", str(p)])

    @pytest.mark.parametrize(
        "g",
        [{"01": [2], "2": [3]}, {"+1": [2], "2": [3]}, {" 1": [2], "2": [3]},
         {"1_0": [2], "2": [3]}, {"1": [True], "2": [3]}, {"1": [2, 2], "2": [3]}],
    )
    @pytest.mark.parametrize("command", ["verify", "focus", "check-nf", "simulate"])
    def test_gflow_document(self, capsys, graph_file, tmp_path, command, g):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"g": g}))
        argv = [command, graph_file, str(p)]
        if command in ("focus", "check-nf"):
            argv += ["--sigma", "X"]
        input_error(capsys, argv)

    @pytest.mark.parametrize("command", ["verify", "focus", "check-nf", "simulate"])
    def test_bool_corrector(self, capsys, tmp_path, command):
        # On the edge 0-1 with output 1, {"0": [1]} is a valid gflow; JSON
        # true equals 1 in Python but must not pass as vertex 1.
        graph = tmp_path / "edge.json"
        graph.write_text(json.dumps(
            {"vertices": [0, 1], "edges": [[0, 1]], "inputs": [], "outputs": [1],
             "planes": {"0": "XY"}}
        ))
        p = tmp_path / "f.json"
        p.write_text('{"g": {"0": [true]}}')
        argv = [command, str(graph), str(p)]
        if command in ("focus", "check-nf"):
            argv += ["--sigma", "X"]
        input_error(capsys, argv)
        p.write_text('{"g": {"0": [1]}}')
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "change, message",
        [({"vertices": [-1, 1, 2, 3]}, "got -1"),
         ({"edges": {"1": [2]}}, '"edges" must be a list'),
         ({"angles": {"1": 0.3, "2": 1.1, "3": 0.5}}, "unmeasured vertex 3"),
         ({"angles": {"1": 0.3}}, "angles must cover every measured vertex")],
        ids=["negative-id", "edges-not-a-list", "angle-on-output", "angle-missing"],
    )
    def test_simulate_graph_document(self, capsys, tmp_path, change, message):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({**json.loads(PATH_DOC), **change}))
        assert message in input_error(capsys, ["simulate", str(p)])

    @pytest.mark.parametrize(
        "entries",
        [{"01": [2], "2": [3]}, {"1": [True], "2": [3]}, {"1": [2, 2], "2": [3]},
         {"1": [2, 99], "2": [3]}],
    )
    @pytest.mark.parametrize("side", ["x", "z"])
    def test_corrective_maps(self, capsys, graph_file, tmp_path, side, entries):
        maps = {"x": {"1": [2], "2": [3]}, "z": {"1": [3], "2": []}}
        maps[side] = entries
        p = tmp_path / "maps.json"
        p.write_text(json.dumps(maps))
        input_error(capsys, ["simulate", graph_file, str(p)])


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 20,000-vertex XY chain, input 0 and output n - 1, as a document and
    as the file holding it, built once for the module; tests copy the
    document before changing it."""
    n = 20_000
    doc = {
        "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
        "inputs": [0], "outputs": [n - 1],
        "planes": {str(i): "XY" for i in range(n - 1)},
    }
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    path.write_text(json.dumps(doc))
    return doc, path


def test_chain_find_verify_and_check_nf(capsys, tmp_path, chain):
    # A finder round costs its frontier rows and verification is one
    # iterative search, so on this chain each command takes under a second,
    # not the minutes of one row per unsolved vertex per round, and no call
    # recurses once per vertex.
    doc, graph = chain
    n = len(doc["vertices"])
    code, found = run(capsys, ["find", str(graph)])
    # the gflow is serialized from its masks: g(u) = {u + 1}, ids ascending
    assert code == 0
    assert found["gflow"] == {str(u): [u + 1] for u in range(n - 1)}
    gflow = tmp_path / "gflow.json"
    gflow.write_text(json.dumps({"g": found["gflow"]}))
    assert run(capsys, ["verify", str(graph), str(gflow)]) == (
        0, {"valid": True, "violations": []}
    )
    # the last corrector pointing back closes a cycle 20,000 vertices deep:
    # verify exits 1 with one line naming it
    cycle = {str(u): [u + 1] for u in range(n - 2)}
    cycle[str(n - 2)] = [n - 3]
    (tmp_path / "cycle.json").write_text(json.dumps({"g": cycle}))
    assert main(["verify", str(graph), str(tmp_path / "cycle.json")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "valid": False,
        "violations": [
            {"vertex": n - 2, "condition": "extensivity", "witness": [n - 4, n - 2]}
        ],
    }
    # check-nf builds the masks once for the NF test and the validity check;
    # a chain's gflow is not Z-NF, so it exits 1
    assert run(capsys, ["check-nf", str(graph), str(gflow), "--sigma", "Z"]) == (
        1, {"normal_form": False, "sigma": "Z"}
    )


class TestErrorLine:
    """An input error's stderr line holds at most ERROR_CHARS characters of the
    library's message, then its full length, however large the document."""

    @pytest.mark.parametrize("case", ["gflow-without-0", "no-planes", "long-plane"])
    def test_long_message_is_capped(self, capsys, tmp_path, chain, case):
        doc, graph = chain
        n = len(doc["vertices"])
        gflow = tmp_path / "gflow.json"
        if case == "gflow-without-0":
            gflow.write_text(json.dumps({"g": {str(u): [u + 1] for u in range(1, n - 1)}}))
            argv = ["verify", str(graph), str(gflow)]
        else:
            if case == "no-planes":
                doc = dict(doc, planes={})
            else:
                doc = json.loads(PATH_DOC)
                doc["planes"]["1"] = ["XY"] * 100_000
            graph = tmp_path / "graph.json"
            graph.write_text(json.dumps(doc))
            argv = ["find", str(graph)]
        with pytest.raises((OpenGraphError, ValueError)) as raised:
            eog = parse_open_graph(graph.read_text())
            verify_gflow(eog, parse_gflow(gflow.read_text()))
        message = str(raised.value)
        assert len(message) > ERROR_CHARS
        err = input_error(capsys, argv)
        assert err == f"{message[:ERROR_CHARS]}... ({len(message)} characters)\n"
        assert len(err.encode()) <= 600


# Golden output: the exit code and stdout of every subcommand on the path, on
# the XZ triangle and on two promotable graphs, recorded from the code before
# the gflow rules were folded into the bitmask core. Stdout must match byte
# for byte, except that floats in `simulate` documents, which numpy computes,
# are compared to 1e-9. Regenerate from a source tree with
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN = Path(__file__).with_name("cli_golden.json")
TRIANGLE_DOC = json.dumps(
    {"vertices": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]], "inputs": [],
     "outputs": [0], "planes": {"1": "XZ", "2": "XZ"}}
)
GOLDEN_DOCS = {
    "path.json": PATH_DOC,
    "path_g.json": PATH_GFLOW,
    "path_bad.json": BAD_GFLOW,
    "path_maps.json": json.dumps({"x": {"1": [2], "2": [3]}, "z": {"1": [3], "2": []}}),
    "far_g.json": json.dumps({"g": {"1": [-1], "2": [10000000000]}}),
    "path_cycle.json": json.dumps({"g": {"1": [2], "2": [1]}}),
    "tri.json": TRIANGLE_DOC,
    "tri_g.json": json.dumps({"g": {"1": [0, 1], "2": [0, 2]}}),
    "tri_cycle.json": json.dumps({"g": {"1": [2], "2": [1]}}),
    "edge_xy.json": json.dumps(
        {"vertices": [1, 2], "edges": [[1, 2]], "inputs": [], "outputs": [2],
         "planes": {"1": "XY"}}
    ),
    "edge_xy_g.json": json.dumps({"g": {"1": [2]}}),
    "edge_xz.json": json.dumps(
        {"vertices": [0, 1], "edges": [[0, 1]], "inputs": [], "outputs": [0],
         "planes": {"1": "XZ"}}
    ),
    "edge_xz_g.json": json.dumps({"g": {"1": [0, 1]}}),
}


def _golden_argv():
    argv = []
    for graph, flow in (("path.json", "path_g.json"), ("tri.json", "tri_g.json")):
        argv += [["verify", graph, flow], ["find", graph], ["enumerate", graph],
                 ["enumerate", graph, "--limit", "1"]]
        for sigma in "XYZ":
            argv += [["focus", graph, flow, "--sigma", sigma],
                     ["check-nf", graph, flow, "--sigma", sigma]]
        for sigma in "YZ":
            argv.append(["promote", graph, flow, "--sigma", sigma, "--vertex", "1"])
        argv += [["simulate", graph, flow, "--dump-branches"], ["simulate", graph],
                 ["simulate", graph, flow, "--input", "random", "--seed", "3"]]
    argv += [
        ["verify", "path.json", "path_bad.json"],
        ["verify", "path.json", "far_g.json"],
        ["verify", "path.json", "path_cycle.json"],
        ["verify", "tri.json", "tri_cycle.json"],
        ["check-nf", "path.json", "far_g.json", "--sigma", "X"],
        ["promote", "path.json", "path_g.json", "--sigma", "Z", "--vertex", "2"],
        ["promote", "edge_xy.json", "edge_xy_g.json", "--sigma", "Z", "--vertex", "1"],
        ["promote", "edge_xz.json", "edge_xz_g.json", "--sigma", "Y", "--vertex", "1"],
        ["simulate", "path.json", "path_maps.json", "--dump-branches"],
        ["oracle-compare", "--max-vertices", "2", "--trials", "20", "--seed", "1"],
    ]
    return argv


def _run_golden(argv, directory):
    paths = [os.path.join(directory, a) if a in GOLDEN_DOCS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(paths)
    return code, out.getvalue()


def _write_golden_docs(directory):
    for name, text in GOLDEN_DOCS.items():
        Path(directory, name).write_text(text)


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


class TestGoldenOutput:
    CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []

    def test_covers_every_subcommand(self):
        assert [c["argv"] for c in self.CASES] == _golden_argv()
        assert {c["argv"][0] for c in self.CASES} == {
            "verify", "find", "enumerate", "focus", "check-nf", "promote", "simulate",
            "oracle-compare",
        }

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
    def test_matches_recorded_output(self, tmp_path, case):
        _write_golden_docs(tmp_path)
        code, out = _run_golden(case["argv"], str(tmp_path))
        assert code == case["exit"]
        if case["argv"][0] == "simulate" and out:
            assert out.count("\n") == 1
            want = _round_floats(json.loads(case["stdout"]))
            assert _round_floats(json.loads(out)) == want
        else:
            assert out == case["stdout"]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
    def test_commands_return_and_print_nothing(self, capsys, tmp_path, case):
        # a command returns (exit code, report); main alone writes stdout
        _write_golden_docs(tmp_path)
        argv = [str(tmp_path / a) if a in GOLDEN_DOCS else a for a in case["argv"]]
        args = build_parser().parse_args(argv)
        if case["exit"] == 2:
            with pytest.raises(ValueError):
                args.func(args)
            assert capsys.readouterr().out == ""
            return
        code, doc = args.func(args)
        assert capsys.readouterr().out == ""
        assert code == case["exit"]
        out = json.dumps(doc, sort_keys=True) + "\n"
        if case["argv"][0] == "simulate":
            want = _round_floats(json.loads(case["stdout"]))
            assert _round_floats(json.loads(out)) == want
        else:
            assert out == case["stdout"]

    def test_one_parser_serves_every_call(self, tmp_path):
        # main builds its parser once per process; parsing must leave it as
        # it was, so a second subcommand run in the same process still gives
        # its recorded output
        cases = {" ".join(c["argv"]): c for c in self.CASES}
        _write_golden_docs(tmp_path)
        for key in ("simulate path.json path_g.json --dump-branches",
                    "check-nf path.json path_g.json --sigma Y",
                    "promote edge_xy.json edge_xy_g.json --sigma Z --vertex 1",
                    "simulate tri.json", "check-nf tri.json tri_g.json --sigma X"):
            case = cases[key]
            code, out = _run_golden(case["argv"], str(tmp_path))
            assert code == case["exit"]
            if case["argv"][0] == "simulate":
                out, want = json.loads(out), json.loads(case["stdout"])
                assert _round_floats(out) == _round_floats(want)
            else:
                assert out == case["stdout"]
        assert build_parser() is build_parser()


# The golden runs once more with every positive id moved past 10**12. A mask
# with a bit per id would need over 100 GB; each run must instead give the
# exit code and the stdout of the dense run, ids mapped.
BIG = 10**12
ID_KEYS = {"vertices", "edges", "inputs", "outputs", "vertex", "witness",
           "promoted_vertex", "added_vertex"}


def _move(v):
    return v + BIG if v > 0 else v


def _sparse(obj, key=""):
    """obj with each id v moved to _move(v): digit keys, and ints under a
    digit key or an ID_KEYS key, except the outcome bits of "signals"."""
    if isinstance(obj, dict):
        child = "bit" if key == "signals" else None
        return {
            str(_move(int(k))) if k.isdigit() else k: _sparse(v, child or k)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_sparse(v, key) for v in obj]
    if type(obj) is int and (key.isdigit() or key in ID_KEYS):
        return _move(obj)
    return obj


class TestSparseIds:
    @pytest.mark.parametrize(
        "argv", [a for a in _golden_argv() if a[0] != "oracle-compare"], ids=" ".join
    )
    def test_matches_dense_run(self, tmp_path, argv):
        dense, sparse = tmp_path / "dense", tmp_path / "sparse"
        dense.mkdir()
        sparse.mkdir()
        for name, text in GOLDEN_DOCS.items():
            (dense / name).write_text(text)
            (sparse / name).write_text(json.dumps(_sparse(json.loads(text))))
        moved = [
            str(_move(int(a))) if flag == "--vertex" else a
            for flag, a in zip([None, *argv], argv)
        ]
        code, out = _run_golden(argv, str(dense))
        sparse_code, sparse_out = _run_golden(moved, str(sparse))
        assert sparse_code == code
        assert sparse_out.count("\n") == out.count("\n") <= 1
        if out:
            assert json.loads(sparse_out) == _sparse(json.loads(out))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_golden_docs(tmp)
        cases = []
        for argv in _golden_argv():
            code, out = _run_golden(argv, tmp)
            cases.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")

