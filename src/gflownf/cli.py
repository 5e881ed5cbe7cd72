"""Command-line front end. Each command returns (exit code, JSON report);
`main` alone prints the report, as the one line on stdout.

Exit codes: 0 success, 1 valid-but-negative answer, 2 input error (message
on stderr, nothing on stdout), 3 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys

from .opengraph import (
    OpenGraphError,
    _load_json,
    _open_graph_doc,
    parse_open_graph,
    parse_open_graph_document,
)
from .gflow import (
    AXES,
    _corrective_maps_of,
    _g_map,
    _gflow_of,
    check_normal_form,
    corrective_maps,
    parse_gflow,
    verify_gflow,
)
from .instances import all_instances, random_instance
from .normal_forms import focus as focus_gflow, promote_input_y, promote_input_z
from .search import ENUMERATION_LIMIT, brute_force_enumerate, find_gflow

OK, NEGATIVE, INPUT_ERROR, RESOURCE = 0, 1, 2, 3


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OpenGraphError(f"cannot read {path}: {exc}") from exc


def _check_non_negative(args, *names):
    """Refuse a negative bound with ``ValueError``; zero is a bound."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be >= 0, got {value}")


def cmd_verify(args):
    eog = parse_open_graph(_read(args.graph))
    report = verify_gflow(eog, parse_gflow(_read(args.gflow)))
    return (OK if report.valid else NEGATIVE), report.to_dict()


def cmd_find(args):
    g = find_gflow(parse_open_graph(_read(args.graph)))
    doc = {"gflow": None if g is None else _g_map(g)}
    return (OK if g is not None else NEGATIVE), doc


def cmd_enumerate(args):
    _check_non_negative(args, "limit")
    enum = brute_force_enumerate(parse_open_graph(_read(args.graph)), args.limit)
    code = RESOURCE if not enum.exhausted else OK if enum.count else NEGATIVE
    return code, {
        "count": enum.count,
        "exhausted": enum.exhausted,
        "gflows": [_g_map(g) for g in enum.gflows],
    }


def cmd_focus(args):
    eog = parse_open_graph(_read(args.graph))
    g = parse_gflow(_read(args.gflow))
    return OK, {"g": _g_map(focus_gflow(eog, g, args.sigma))}


def cmd_check_nf(args):
    eog = parse_open_graph(_read(args.graph))
    g = parse_gflow(_read(args.gflow))
    # a non-vertex id raises here, so it is reported as such, not as invalid
    ok = check_normal_form(eog, g, args.sigma)
    if not verify_gflow(eog, g).valid:
        raise OpenGraphError("input gflow is not valid for this graph")
    return (OK if ok else NEGATIVE), {"normal_form": ok, "sigma": args.sigma}


def cmd_promote(args):
    eog = parse_open_graph(_read(args.graph))
    g = parse_gflow(_read(args.gflow))
    promote = promote_input_y if args.sigma == "Y" else promote_input_z
    result = promote(eog, g, args.vertex)
    return OK, {
        "graph": _open_graph_doc(result.rewritten),
        "gflow": _g_map(result.gflow),
        "promoted_vertex": result.promoted_vertex,
        "added_vertex": result.added_vertex,
    }


def _build_pattern(eog, angles, correction_text, seed):
    from .sim import _no_corrections, _scheduled

    rng = random.Random(seed)
    if angles is None:
        angles = {u: rng.uniform(0.1, math.tau - 0.1) for u in sorted(eog.measured)}
    if correction_text is None:
        maps = _no_corrections(eog)
    elif isinstance(doc := _load_json(correction_text), dict) and "g" in doc:
        maps = corrective_maps(eog, _gflow_of(doc))
    else:
        maps = _corrective_maps_of(doc)
    return _scheduled(eog, angles, maps), angles


def cmd_simulate(args):
    # numpy loads here, in the one command that needs it
    import numpy as np

    from . import sim

    tol = sim.STATE_TOL if args.tol is None else args.tol
    sim._check_tolerance(tol)
    _check_non_negative(args, "branch_bound", "max_qubits", "seed")
    eog, angles = parse_open_graph_document(_read(args.graph))
    bound = sim.DEFAULT_BRANCH_BOUND if args.branch_bound is None else args.branch_bound
    width = sim.DEFAULT_MAX_QUBITS if args.max_qubits is None else args.max_qubits
    try:
        # before the corrections are read: their checks grow with |V|
        sim._check_bounds(eog, bound, width)
        correction_text = _read(args.gflow) if args.gflow else None
        pattern, angles = _build_pattern(eog, angles, correction_text, args.seed)
        in_qubits = tuple(sorted(eog.inputs))
        if args.input == "basis":
            input_state = sim.basis_state(in_qubits, 0)
        else:
            rng = np.random.default_rng(args.seed)
            amps = rng.normal(size=2 ** len(in_qubits)) + 1j * rng.normal(
                size=2 ** len(in_qubits)
            )
            input_state = sim.Statevector(in_qubits, amps / np.linalg.norm(amps))
        # a register within the bound can still be refused by the allocator
        results = sim.run_all_branches(pattern, input_state, bound, width)
    except sim.BranchLimitError as exc:
        return RESOURCE, {"error": str(exc), **exc.limit}
    report = sim.check_determinism(results, tol)
    doc = report.to_dict()
    doc["seed"] = args.seed
    doc["angles"] = {str(u): angles[u] for u in sorted(angles)}
    if args.dump_branches:
        doc["branches"] = [
            {
                "signals": {str(u): s for u, s in sorted(r.signals.items())},
                "probability": r.probability,
            }
            for r in results
        ]
    return (OK if report.deterministic else NEGATIVE), doc


def cmd_oracle_compare(args):
    _check_non_negative(args, "max_vertices", "trials")
    rng = random.Random(args.seed)
    draws = (random_instance(rng, rng.randint(1, 5)) for _ in range(args.trials))
    instances = disagreements = invalid = 0
    for eog in itertools.chain(all_instances(args.max_vertices), draws):
        instances += 1
        found = find_gflow(eog)
        witness = brute_force_enumerate(eog, stop_after=1)
        if (found is not None) != bool(witness.gflows):
            disagreements += 1
            continue
        if found is not None and not verify_gflow(eog, found).valid:
            invalid += 1
        if witness.gflows and not verify_gflow(eog, witness.gflows[0]).valid:
            invalid += 1
    return (OK if disagreements == 0 and invalid == 0 else NEGATIVE), {
        "instances": instances,
        "disagreements": disagreements,
        "invalid_gflows": invalid,
        "max_vertices": args.max_vertices,
        "trials": args.trials,
        "seed": args.seed,
    }


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="gflownf",
        description="gflow verification, search, normal forms and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a gflow against its open graph")
    p.add_argument("graph")
    p.add_argument("gflow")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find", help="search for a gflow")
    p.add_argument("graph")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("enumerate", help="list every gflow by brute force")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=ENUMERATION_LIMIT)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("focus", help="rewrite a gflow into a normal form")
    p.add_argument("graph")
    p.add_argument("gflow")
    p.add_argument("--sigma", choices=AXES, required=True)
    p.set_defaults(func=cmd_focus)

    p = sub.add_parser("check-nf", help="test a gflow for a normal form")
    p.add_argument("graph")
    p.add_argument("gflow")
    p.add_argument("--sigma", choices=AXES, required=True)
    p.set_defaults(func=cmd_check_nf)

    p = sub.add_parser("promote", help="turn a measured non-input into an input")
    p.add_argument("graph")
    p.add_argument("gflow")
    p.add_argument("--sigma", choices=("Y", "Z"), required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser("simulate", help="run every measurement branch")
    p.add_argument("graph")
    p.add_argument("gflow", nargs="?", default=None)
    p.add_argument("--input", choices=("basis", "random"), default="basis")
    p.add_argument("--seed", type=int, default=0)
    # None reads sim's STATE_TOL, DEFAULT_BRANCH_BOUND and DEFAULT_MAX_QUBITS
    # when run, so numpy loads only under simulate
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--branch-bound", type=int, default=None)
    p.add_argument("--max-qubits", type=int, default=None)
    p.add_argument("--dump-branches", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "oracle-compare", help="finder vs brute-force agreement sweep"
    )
    p.add_argument("--max-vertices", type=int, default=3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc = args.func(args)
    except (OpenGraphError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return INPUT_ERROR
    print(json.dumps(doc, sort_keys=True))
    if "error" in doc:  # a resource limit's message, after the stdout line
        print(doc["error"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
