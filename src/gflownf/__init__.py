"""Extended-MBQC open graphs, gflow normal forms and branch simulation.

Only the branch simulator, ``gflownf.sim``, needs numpy: ``import gflownf``
loads both on the first use of a simulator name, such as ``Statevector``.
"""

from .opengraph import (
    ExtendedOpenGraph,
    Graph,
    OpenGraphError,
    Plane,
    odd_neighbourhood,
    parse_open_graph,
    parse_open_graph_document,
    serialize_open_graph,
)
from .gflow import (
    CorrectiveMaps,
    CycleError,
    DependencyOrder,
    Gflow,
    VerificationReport,
    check_input_planes,
    check_normal_form,
    corrective_maps,
    extensivity_order,
    parse_gflow,
    serialize_gflow,
    verify_gflow,
)
from .search import (
    GflowEnumeration,
    brute_force_enumerate,
    exists_normal_form,
    find_gflow,
)
from .normal_forms import (
    PromotionResult,
    check_balanced_nf,
    check_defect_bound,
    focus,
    promote_all,
    promote_input_y,
    promote_input_z,
)

# The simulator's names, served from ``.sim`` by ``__getattr__`` on first use
_SIM_NAMES = frozenset({
    "BranchLimitError", "BranchResult", "DeterminismReport", "Pattern", "Statevector",
    "apply_correction", "basis_state", "check_determinism", "extract_isometry",
    "measure", "pattern_from_gflow", "prepare", "run_all_branches",
    "strip_corrections",
})


def __getattr__(name):
    if name != "sim" and name not in _SIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # ``from . import sim`` would call this hook again

    sim = importlib.import_module(f"{__name__}.sim")
    return sim if name == "sim" else getattr(sim, name)


__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["sim", *sorted(_SIM_NAMES)]
