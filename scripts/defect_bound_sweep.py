#!/usr/bin/env python3
"""Exhaustive census of the input-defect bound for Y- and Z-NF gflows.

Sweeps every extended open graph up to --max-vertices, and for each
instance whose off-sigma count exceeds the input defect asks the layered
finder for a sigma-NF gflow anyway; the finder decides sigma-NF existence
exactly, so every instance gets a verdict.  Each gflow it returns is
re-checked with verify_gflow and check_normal_form.  The Z numbers come
out clean; the Y sweep surfaces genuine counterexamples, the smallest
being the complete 3-vertex graph with one output and both measured
vertices in the XZ plane.

Exits 1 when an instance over the Z bound has a Z-NF gflow or a witness
fails re-checking, and 0 otherwise.
"""

import argparse
import json
import sys

from gflownf import (
    check_defect_bound,
    check_input_planes,
    check_normal_form,
    find_gflow,
    serialize_open_graph,
    verify_gflow,
)
from gflownf.instances import all_instances


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument(
        "--show", type=int, default=3, help="counterexamples to print per sigma"
    )
    args = parser.parse_args()

    stats = {
        s: {"instances": 0, "exceeding": 0, "violations": 0, "unverified": 0}
        for s in "YZ"
    }
    examples = {s: [] for s in "YZ"}
    for eog in all_instances(args.max_vertices):
        if not check_input_planes(eog) or find_gflow(eog) is None:
            continue
        for sigma in "YZ":
            rec = stats[sigma]
            rec["instances"] += 1
            count, defect, within = check_defect_bound(eog, sigma)
            if within:
                continue
            rec["exceeding"] += 1
            g = find_gflow(eog, sigma)
            if g is None:
                continue
            rec["violations"] += 1
            if not (verify_gflow(eog, g).valid and check_normal_form(eog, g, sigma)):
                rec["unverified"] += 1
            if len(examples[sigma]) < args.show:
                examples[sigma].append(
                    {
                        "graph": json.loads(serialize_open_graph(eog)),
                        "count": count,
                        "defect": defect,
                        "nf_gflow": {
                            str(u): sorted(s) for u, s in g.assignments.items()
                        },
                    }
                )

    for sigma in "YZ":
        rec = stats[sigma]
        print(
            f"{sigma}: {rec['instances']} instances with gflow, "
            f"{rec['exceeding']} exceed the bound, "
            f"{rec['violations']} of those still have a {sigma}-NF gflow, "
            f"{rec['unverified']} of those fail re-checking"
        )
        for ex in examples[sigma]:
            print(f"  counterexample: {json.dumps(ex, sort_keys=True)}")
    failed = stats["Z"]["violations"] or any(r["unverified"] for r in stats.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
