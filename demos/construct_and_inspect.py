"""Build a saturated two-colorable graph and inspect every layer of it.

Walks the construction for (t, k, n) = (4, 3, 13): vertex roles, edge
counts against the closed-form bounds, the shipped coloring, and the
graph6 string you can paste anywhere else.
"""

import argparse

from cocritical import ConstructionParams, blueprint_coloring, build
from cocritical.construction import expected_edge_count, role_layout, upper_bound_edges
from cocritical.coloring import blue_blocks, cross_graph
from cocritical.graph6 import emit_graph6

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--t", type=int, default=4)
parser.add_argument("--k", type=int, default=3)
parser.add_argument("--n", type=int, default=13)
args = parser.parse_args()

params = ConstructionParams(args.t, args.k, args.n)
g = build(params)
layout = role_layout(params)

##################################
# Roles
##################################
print(f"construction for t={args.t}, k={args.k} on n={args.n} vertices")
print(f"  anchor     {layout.anchor}")
print(f"  hubs       {layout.hubs}")
print(f"  satellites {layout.satellites}")
print(f"  fillers    {layout.fillers}")
print(f"  apexes     {layout.apexes}")
print(f"  near-apex  {layout.near_apexes}")
for w in params.warnings():
    print(f"  note: {w}")

##################################
# Edge counts vs the closed forms
##################################
bound = upper_bound_edges(args.t, args.k, args.n)
print(f"edges: {g.edge_count()}  (upper bound {bound}, expected {expected_edge_count(params)})")

##################################
# The shipped coloring
##################################
c = blueprint_coloring(params)
blocks = blue_blocks(c)
h = cross_graph(g, blocks)
print(f"blue blocks: {blocks.to_json()}")
print(f"cross graph: {h.edge_count()} edges, min degree {min(h.degree(v) for v in range(h.n))}")
print(f"graph6: {emit_graph6(g)}")
