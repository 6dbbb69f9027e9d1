"""End-to-end benchmark of the reproduction: four named workloads,
medians over fresh-interpreter runs, outputs checked against references,
and a separate traced run that attributes host time to ``repro`` layers.

Run ``python -m benchmarks.e2e run -o OUT.json`` from the repository
root; see ``benchmarks/e2e/README.md``.
"""
