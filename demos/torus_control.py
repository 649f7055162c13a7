"""The periodic square control: its hull is a torus and everything is classical.

Run:  python3 demos/torus_control.py
"""

from importlib import resources

from tilecohom.pipeline import RunConfig, run_pipeline

path = resources.files("tilecohom") / "systems" / "square.json"
run = run_pipeline(RunConfig(str(path), route="mapping-torus"))
print("the labeled square: trivial rotation group, Gaussian-integer coordinates")

print("atlas counts (tiles, edge stars, vertex stars):", run.atlas.counts())
print("all edge rotation values zero:", all(v == 0 for v in run.rho.values))
print("winding numbers:", run.omega.values)

print("approximant cells:", run.complex.cell_counts,
      "(one face, two edges, one vertex: a torus)")
print("hull cohomology:", ", ".join(str(h.group) for h in run.hull))
print("product with a circle:", ", ".join(str(d.group) for d in run.torus))
