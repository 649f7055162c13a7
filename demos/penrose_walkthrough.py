"""Walk through the whole Penrose kite-and-dart computation, step by step.

Run:  python3 demos/penrose_walkthrough.py
"""

from importlib import resources

from tilecohom.pipeline import RunConfig, run_pipeline

path = resources.files("tilecohom") / "systems" / "penrose.json"
print("running both routes on the kite-and-dart system (about half a minute)\n")
run = run_pipeline(RunConfig(str(path), route="both"))
system, atlas, report = run.system, run.atlas, run.report

print("== the kite-and-dart system (half-tile triangles) ==")
print(f"ring order {system.n}, rotation group of order {system.rotation_order},")
print(f"{len(system.prototiles)} half-tile prototiles, regrouped into "
      f"{len(system.regroups)} public tiles\n")

print("== the star atlas ==")
tiles, edges, vertices = atlas.counts()
print(f"closure at substitution level {atlas.closure_level}: "
      f"{tiles} tile classes, {edges} edge stars, {vertices} vertex stars")
print("vertex symmetry orders:", tuple(report["atlas"]["orders"]))
print("cell isotropy:", report["atlas"]["isotropy"], "\n")

print("== edge rotation values and winding numbers ==")
for cls in atlas.edge_classes:
    print(f"  edge star {cls.index}: rho = {run.rho[cls.index]} turn")
for cls in atlas.vertex_classes:
    print(f"  vertex star {cls.index}: winding {run.omega[cls.index]:+d}, "
          f"symmetry {cls.symmetry_order}")
print()

print("== mapping-torus route ==")
cx = run.complex
print(f"{cx.labels['collared_classes']} collared half-tiles "
      f"(level {cx.labels['collar_level']})")
print("approximant cells (vertices, edges, faces):", cx.cell_counts)
print("translational hull cohomology:", ", ".join(str(h.group) for h in run.hull))
# the torus in degree k + 1 carries the coinvariants of hull degree k
for h, here, above in zip(run.hull, run.torus, run.torus[1:]):
    print(f"  degree {h.degree}: invariants {here.invariants}, "
          f"coinvariants {above.coinvariants_below}")
print("hull of rigid motions:", ", ".join(str(d.group) for d in run.torus))
print("rotation-free quotient hull:", ", ".join(str(h.group) for h in run.quotient), "\n")

print("== spectral route ==")
e2, einf, total = run.spectral
print("second page, row q=1:", [str(e2.entry(p, 1)) for p in range(3)])
print("second page, row q=0:", [str(e2.entry(p, 0)) for p in range(3)])
print("stable page, row q=1:", [str(einf.entry(p, 1)) for p in range(3)])
print("final groups:", ", ".join(str(d.group) for d in total))

assert [d.group for d in total] == [d.group for d in run.torus]
print("\nboth routes agree.")
