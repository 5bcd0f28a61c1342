"""Verify a constructed graph is co-critical, then read off its structure.

Two phases.  Phase one proves the graph itself admits a good coloring but
no single-edge extension does, in one walk over the graph's good partitions
that tests every non-edge at each leaf; the same walk keeps the coloring
that maximizes red.  Phase two reads that coloring off the report, without
walking again, and checks the degree, clique, and edge-count consequences
that saturation forces.
"""

import argparse
import time

from cocritical import ConstructionParams, build, is_cocritical, saturation_structure_checks

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--t", type=int, default=4)
parser.add_argument("--k", type=int, default=3)
parser.add_argument("--n", type=int, default=13)
args = parser.parse_args()

g = build(ConstructionParams(args.t, args.k, args.n))

##################################
# Phase one: the verdict
##################################
t0 = time.perf_counter()
rep = is_cocritical(g, args.t, args.k)
elapsed = time.perf_counter() - t0

print(f"verdict: {rep.verdict()}  ({elapsed:.2f}s)")
print(f"base search: {rep.base_status}, witness blocks "
      f"{rep.base_witness.to_json() if rep.base_witness else None}")
print(f"non-edges: {rep.non_edge_count}, walk nodes {rep.nodes}")
if rep.failures:
    print(f"failures: {rep.failures}")
    raise SystemExit(1)

##################################
# Phase two: forced structure
##################################
struct = saturation_structure_checks(rep)
print(f"max-red coloring: {len(struct.coloring.red)} red edges, "
      f"{len(struct.coloring.blue)} blue edges")
for name, item in struct.items.items():
    state = "pass" if item.passed else "FAIL"
    if not item.applicable:
        state = "not applicable"
    print(f"  {name:24s} {state}  {item.details}")
