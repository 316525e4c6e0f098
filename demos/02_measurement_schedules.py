"""
Compiling observables into local measurement settings
=====================================================

A permutationally invariant observable can be measured by repeatedly
measuring the same single-qubit direction on every qubit.  This script
compiles a witness into such a schedule, compares the setting count with
the general upper bounds, and reconstructs the operator back from the
schedule to confirm nothing was lost.
"""

from __future__ import annotations

import numpy as np

from symwit import (
    canned_decomposition,
    catalog,
    compile_operator,
    dicke,
    mermin_decomposition,
    mermin_operator,
    settings_upper_bound,
)

# ---------------------------------------------------------------------------
# general bounds: settings needed for an arbitrary PI observable on N qubits
# ---------------------------------------------------------------------------
print("upper bounds on the number of local settings:")
print("  N   crude  refined")
for n in range(2, 11):
    l_n, l_ref = settings_upper_bound(n)
    print(f"  {n:2d}  {l_n:5d}  {l_ref:7d}")

# ---------------------------------------------------------------------------
# compile a catalog witness: few collective terms -> few settings
# ---------------------------------------------------------------------------
w = catalog("WP3_D63")
schedule = compile_operator(w.dense)
print(f"\nWP3_D63 compiles to {schedule.num_settings} settings "
      f"({len(schedule.terms)} terms):")
for setting in schedule.settings:
    print(f"  direction {np.round(setting.unit, 6)}")

# reconstruction is exact up to floating point
err = np.max(np.abs(schedule.reconstruct().mat - w.dense.mat))
print(f"reconstruction error: {err:.2e}")

# ---------------------------------------------------------------------------
# hand-optimized schedules for the Dicke projectors themselves
# ---------------------------------------------------------------------------
for name, (n, m, scale) in {"D63": (6, 3, 64), "D42": (4, 2, 16)}.items():
    canned = canned_decomposition(name)
    target = scale * dicke(n, m).density().mat
    rel = np.max(np.abs(canned.reconstruct().mat - target)) / scale
    print(f"\ncanned {name}: {canned.num_settings} settings, "
          f"relative error {rel:.2e}")

# ---------------------------------------------------------------------------
# Mermin-type operators: 2^(N-1) Pauli terms, but only N settings
# ---------------------------------------------------------------------------
n = 6
direct = mermin_operator(n, "x", "z")
decomp = mermin_decomposition(n, "x", "z")
err = np.max(np.abs(direct.mat - decomp.reconstruct().mat))
print(f"\nMermin_xz on {n} qubits: {decomp.num_settings} settings, "
      f"closed-form error {err:.2e}")
print("settings lie in the x-z plane at equally spaced angles:")
for setting in decomp.settings:
    ux, _, uz = setting.unit
    print(f"  angle {np.degrees(np.arctan2(ux, uz)):7.2f} deg")
