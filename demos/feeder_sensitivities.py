"""Load the shipped feeders and inspect their voltage-sensitivity models.

The sensitivity matrices R and X translate nodal active/reactive injections
into squared-voltage changes under the linearized branch-flow model; their
spectral norm drives every stability constant downstream.
"""

from pathlib import Path

import numpy as np

from localopf import build_sensitivities, load_feeder

DATA = Path(__file__).resolve().parents[1] / "src" / "localopf" / "data"


def describe(name):
    graph = load_feeder(DATA / name)
    model = build_sensitivities(graph)
    print(f"== {name} ==")
    print(f"  non-root buses : {graph.n}")
    print(f"  base power     : {graph.base_power:.0f} kVA")
    depth = int(graph.path.sum(axis=0).max())  # lines on the longest root path
    print(f"  feeder depth   : {depth}")
    print(f"  ||A||_2        : {model.a_norm:.4f}")
    print(f"  R eigenvalues  : [{np.linalg.eigvalsh(model.R)[0]:.4f}, "
          f"{np.linalg.eigvalsh(model.R)[-1]:.4f}]")
    print(f"  X eigenvalues  : [{np.linalg.eigvalsh(model.X)[0]:.4f}, "
          f"{np.linalg.eigvalsh(model.X)[-1]:.4f}]")
    # a 1 pu reactive injection at the deepest bus lifts its own voltage most
    deepest = int(np.argmax(np.diag(model.X))) + 1
    print(f"  most voltage-sensitive bus: {deepest} "
          f"(dv/dq = {model.X[deepest - 1, deepest - 1]:.4f})")
    print()


if __name__ == "__main__":
    describe("feeder_8bus.txt")
    describe("feeder_37bus.txt")
