"""
From measurement counts to witness values with error bars
=========================================================

Measuring a witness in the lab means collecting outcome counts for each
local setting of its schedule.  This script simulates such counts for a
noisy Dicke state, serializes them in the NDJSON interchange format, and
evaluates the witness value, bootstrap error bar, and fidelity bound from
the counts alone.  The noisy state is handed to the simulator as weighted
parts, so its Born distributions are the weighted sums of the parts' and no
dense density matrix is built.
"""

from __future__ import annotations

import numpy as np

from symwit import (
    CountsDataset,
    NoiseModel,
    catalog,
    compile_operator,
    dicke,
    evaluate_witness_counts,
    expectation,
    simulate_counts,
)

# ---------------------------------------------------------------------------
# prepare a noisy state and the witness schedule
# ---------------------------------------------------------------------------
w = catalog("WP3_D63")
schedule = compile_operator(w.dense)
print(f"WP3_D63 schedule: {schedule.num_settings} settings, "
      f"{len(schedule.terms)} terms")

p = 0.1
target = dicke(6, 3)
noise = NoiseModel.white(6)
state = [(1 - p, target), (p, noise)]  # rho(p) = (1 - p) |D63><D63| + p 1/64
# Tr(W rho(p)) and the target fidelity are affine in p
oracle = (1 - p) * expectation(w, target.density()) + p * expectation(w, noise.rho_noise)
fidelity = (1 - p) + p * target.density().expectation(noise.rho_noise)
print(f"exact value at p = {p}: <W> = {oracle:+.6f}")

# ---------------------------------------------------------------------------
# simulate counts and round-trip them through NDJSON
# ---------------------------------------------------------------------------
shots = 20_000
data = simulate_counts(state, schedule, shots_per_setting=shots, seed=7)
text = data.to_ndjson()
print(f"\nsimulated {data.total_shots()} shots "
      f"({shots} per setting), {len(data.records)} distinct outcome records")
print("first records:")
for line in text.splitlines()[:3]:
    print(f"  {line}")
data = CountsDataset.from_ndjson(text)  # what an experiment would hand us

# ---------------------------------------------------------------------------
# estimate the witness value with a bootstrap error bar
# ---------------------------------------------------------------------------
result = evaluate_witness_counts(w, data, schedule=schedule, seed=7)
pull = (result.witness_value - oracle) / result.standard_error
print(f"\nestimated <W> = {result.witness_value:+.6f} "
      f"+- {result.standard_error:.6f}  ({pull:+.2f} standard errors off)")
print(f"fidelity bound {result.fidelity_bound:.6f} "
      f"+- {result.fidelity_bound_error:.6f} "
      f"(true fidelity {fidelity:.6f})")

# the per-setting breakdown shows where the statistical weight sits
print(f"\nfirst of {len(result.per_term)} per-term contributions "
      "(they sum to the value exactly):")
for term in result.per_term[:8]:
    setting = "identity" if term.setting is None else str(np.round(term.setting, 3))
    print(f"  setting {setting:10s} coeff {term.coefficient:+12.6f} "
          f"mean {term.mean:+12.4f} -> {term.contribution:+.4f}")
total = sum(term.contribution for term in result.per_term)
print(f"sum of all contributions: {total:+.6f}")
