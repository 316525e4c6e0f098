"""
Optimizing witnesses with convex programming
============================================

Two optimization layers work together.  An interior-point solver maximizes
an observable over states with positive partial transpose (PPT), which
upper-bounds what any biseparable state can reach; a seesaw over product
states gives the matching lower bound.  On top of that, the same
interior-point solver picks witness coefficients over a fixed measurement
basis so the white-noise tolerance is as large as possible.
"""

from __future__ import annotations

import numpy as np

from symwit import (
    NoiseModel,
    WitnessOptimizationProblem,
    collective_j,
    collective_power_basis,
    dicke,
    expectation,
    max_bisep_all,
    max_ppt_all,
    noise_tolerance,
    op_power,
    optimize_witness,
    q_scan,
)

# ---------------------------------------------------------------------------
# bound <J_x^2 + J_y^2> over biseparable five-qubit states
# ---------------------------------------------------------------------------
objective = op_power(collective_j(5, "x"), 2) + op_power(collective_j(5, "y"), 2)
ppt = max_ppt_all(objective)
bisep = max_bisep_all(objective)
target_value = objective.expectation(dicke(5, 2).density())
print("five-qubit J_x^2 + J_y^2:")
print(f"  PPT upper bound   {ppt.value:.6f}  (split {ppt.bipartition} | rest)")
print(f"  seesaw lower bound {bisep.value:.6f}")
print(f"  Dicke target value {target_value:.6f}  -> witness with threshold c")
print(f"  white-noise tolerance {(target_value - ppt.value) / (target_value - 2.5):.6f}")

# ---------------------------------------------------------------------------
# fit witness coefficients over a measurement basis (interior point)
# ---------------------------------------------------------------------------
target = dicke(6, 3)
noise = NoiseModel.white(6)
for axes in (("x", "y"), ("x", "y", "z")):
    basis = collective_power_basis(6, axes)
    witness, report = optimize_witness(WitnessOptimizationProblem(target, noise, basis))
    print(f"\noptimized witness over J_{{{','.join(axes)}}} powers "
          f"({len(axes)} settings):")
    print(f"  tolerance {noise_tolerance(witness, noise):.6f}  "
          f"duality gap {report.dual_residual:.1e}  "
          f"iterations {report.iterations}")
    print(f"  <W> on target = {expectation(witness, target.density()):+.6f}")

# ---------------------------------------------------------------------------
# tune the penalty strength q of a four-qubit collective witness
# ---------------------------------------------------------------------------
grid = np.round(np.arange(0.8, 2.2001, 0.2), 10)
scan = q_scan(4, 1, grid)
print("\npenalty scan for the W-state witness (N = 4):")
print("     q       c_q    tolerance")
for q, c_q, tol in scan.rows:
    marker = "  <- best" if q == scan.q_opt else ""
    print(f"  {q:4.1f}  {c_q:8.4f}  {tol:.6f}{marker}")
