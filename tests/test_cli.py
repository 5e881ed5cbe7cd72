import json

import pytest

from gflownf.cli import main

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
        code = main(["find", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err

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

    def test_corrective_maps_missing_vertex(self, capsys, graph_file, tmp_path):
        maps = {"x": {"1": [2]}, "z": {"1": [3]}}
        mp = tmp_path / "maps.json"
        mp.write_text(json.dumps(maps))
        code = main(["simulate", graph_file, str(mp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must assign exactly the measured vertices" in captured.err

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
