#!/usr/bin/env python3
"""Exhaustive census of the input-defect bound for Y- and Z-NF gflows.

Sweeps every extended open graph up to --max-vertices, and for each
instance whose off-sigma count exceeds the input defect checks by
restricted enumeration whether a sigma-NF gflow exists anyway.  A
search that finds none before its limit is counted as undecided, not
as a clean result.  The Z numbers come out clean; the Y sweep surfaces
genuine counterexamples, the smallest being the complete 3-vertex graph
with one output and both measured vertices in the XZ plane.
"""

import argparse
import json

from gflownf import (
    brute_force_enumerate,
    check_defect_bound,
    check_input_planes,
    find_gflow,
    serialize_open_graph,
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
        s: {"instances": 0, "exceeding": 0, "violations": 0, "undecided": 0}
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
            hit = brute_force_enumerate(eog, 500_000, nf_sigma=sigma, stop_after=1)
            if hit.gflows:
                rec["violations"] += 1
                if len(examples[sigma]) < args.show:
                    examples[sigma].append(
                        {
                            "graph": json.loads(serialize_open_graph(eog)),
                            "count": count,
                            "defect": defect,
                            "nf_gflow": {
                                str(u): sorted(s)
                                for u, s in hit.gflows[0].assignments.items()
                            },
                        }
                    )
            elif not hit.exhausted:
                rec["undecided"] += 1

    for sigma in "YZ":
        rec = stats[sigma]
        print(
            f"{sigma}: {rec['instances']} instances with gflow, "
            f"{rec['exceeding']} exceed the bound, "
            f"{rec['violations']} of those still have a {sigma}-NF gflow, "
            f"{rec['undecided']} undecided (search limit hit)"
        )
        for ex in examples[sigma]:
            print(f"  counterexample: {json.dumps(ex, sort_keys=True)}")


if __name__ == "__main__":
    main()
