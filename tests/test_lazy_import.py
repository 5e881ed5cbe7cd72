"""numpy, through gflownf.sim, loads only when a simulator name is used,
and importing the package and its CLI loads none of ``dataclasses``,
``inspect`` and ``typing``.

Each check runs in a fresh interpreter, so no earlier import in the test
process can hide a module that the package or the CLI loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import GOLDEN_DOCS, _golden_argv, _write_golden_docs

SRC = Path(__file__).resolve().parents[1] / "src"

# gflownf.__all__ before the simulator import was deferred, less the retired
# run_branch and check_balanced_nf, which the last test checks are gone.
PUBLIC_NAMES = {
    "BranchLimitError", "BranchResult", "CorrectiveMaps", "CycleError",
    "DependencyOrder", "DeterminismReport", "ExtendedOpenGraph", "Gflow",
    "GflowEnumeration", "Graph", "OpenGraphError", "Pattern", "Plane",
    "PromotionResult", "Statevector", "VerificationReport", "apply_correction",
    "basis_state", "brute_force_enumerate", "check_defect_bound",
    "check_determinism", "check_input_planes", "check_normal_form",
    "corrective_maps", "exists_normal_form",
    "extensivity_order", "extract_isometry", "find_gflow", "focus", "gflow",
    "measure", "normal_forms", "odd_neighbourhood", "opengraph", "parse_gflow",
    "parse_open_graph", "parse_open_graph_document", "pattern_from_gflow",
    "prepare", "promote_all", "promote_input_y", "promote_input_z",
    "run_all_branches", "search", "serialize_gflow",
    "serialize_open_graph", "sim", "strip_corrections", "verify_gflow",
}
SIM_NAMES = {
    "BranchLimitError", "BranchResult", "DeterminismReport", "Pattern",
    "Statevector", "apply_correction", "basis_state", "check_determinism",
    "extract_isometry", "measure", "pattern_from_gflow", "prepare",
    "run_all_branches", "strip_corrections",
}


def run_python(code, stdin=""):
    """stdout of ``python -c code`` with PYTHONPATH=src, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_import_leaves_numpy_unloaded():
    # Compared with what the interpreter held before the import: a site hook
    # may load inspect or typing before any user code runs.
    loaded = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gflownf, gflownf.cli\n"
        "added = set(sys.modules) - before\n"
        "import json\n"
        "names = ('numpy', 'gflownf.sim', 'dataclasses', 'inspect', 'typing')\n"
        "print(json.dumps([m for m in names if m in added]))"
    )
    assert loaded == []


def test_only_simulate_loads_numpy(tmp_path):
    _write_golden_docs(tmp_path)
    runs = [
        [str(tmp_path / a) if a in GOLDEN_DOCS else a for a in argv]
        for argv in _golden_argv()
        if argv[0] != "simulate"
    ]
    runs.append(["simulate", str(tmp_path / "path.json"), str(tmp_path / "path_g.json")])
    loaded = run_python(
        "import contextlib, io, json, sys\n"
        "from gflownf.cli import main\n"
        "seen = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        with contextlib.redirect_stderr(io.StringIO()):\n"
        "            main(argv)\n"
        "    seen.append('numpy' in sys.modules)\n"
        "print(json.dumps(seen))",
        stdin=json.dumps(runs),
    )
    assert len(runs) > 30
    assert loaded == [False] * (len(runs) - 1) + [True]


def test_public_names_unchanged():
    found = run_python(
        "import json, gflownf\n"
        "names = sorted(gflownf.__all__)\n"
        "star = {}\n"
        "exec('from gflownf import *', star)\n"
        "same = [n for n in names if star[n] is getattr(gflownf, n)]\n"
        "sim = [n for n in names if getattr(star[n], '__module__', '') == 'gflownf.sim']\n"
        "missing = []\n"
        "for name in ('no_such_name', 'run_branch', 'check_balanced_nf'):\n"
        "    try:\n"
        "        getattr(gflownf, name)\n"
        "    except AttributeError:\n"
        "        missing.append(name)\n"
        "print(json.dumps([names, same, sim, missing]))"
    )
    names, same, sim, missing = found
    assert len(names) == len(PUBLIC_NAMES) and set(names) == PUBLIC_NAMES
    assert set(same) == PUBLIC_NAMES
    assert set(sim) == SIM_NAMES
    assert missing == ["no_such_name", "run_branch", "check_balanced_nf"]
