"""Every name that the benchmark's span tracer wraps exists in its gflownf
module. The tracer looks each one up when a traced run starts, so a renamed
or deleted function would otherwise show only in a benchmark run."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    # run_path compiles the file in memory: nothing is written next to it
    spans = runpy.run_path(str(SPANS))
    checked = 0
    for table in (spans["TRACED"], spans["TRACED_GENERATORS"]):
        for module, names in table.items():
            mod = importlib.import_module(f"gflownf.{module}")
            assert [n for n in names if not hasattr(mod, n)] == [], module
            checked += len(names)
    assert checked > 0
