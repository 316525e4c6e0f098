"""One-off reference figures that are too long to be one operation of a run.

    python3 benchmark/reference.py

Each figure is measured once, in a fresh process, and printed as one JSON
line per figure:

* ``ppt_n6``: ``max_ppt_all(Jx^2 + Jy^2)`` at N=6 (published 11.0179), one BLAS thread;
* ``catalog_wp3_d105``: building ``catalog("WP3_D105")`` (tolerance 0.2404), one BLAS thread;
* ``fit_d84_threads{1,2}``: three ``optimize_witness`` fits of D(8,4) over the
  xyz basis at one and at two BLAS threads;
* ``newton_n5_threads{1,2}``: Newton steps that ``max_ppt_all(Jx^2 + Jy^2)`` reports at N=5.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIGURES = {
    "ppt_n6": """
m = sw.op_power(sw.collective_j(6, "x"), 2) + sw.op_power(sw.collective_j(6, "y"), 2)
t0 = time.perf_counter(); r = sw.max_ppt_all(m); dt = time.perf_counter() - t0
out = {"seconds": dt, "value": r.value, "newton_steps": r.report.iterations}
""",
    "catalog_wp3_d105": """
t0 = time.perf_counter(); w = sw.catalog("WP3_D105"); dt = time.perf_counter() - t0
out = {"seconds": dt, "tolerance": sw.noise_tolerance(w, sw.NoiseModel.white(10))}
""",
    "fit_d84": """
p = lambda: sw.WitnessOptimizationProblem(sw.dicke(8, 4), sw.NoiseModel.white(8),
                                          sw.collective_power_basis(8, ("x", "y", "z")))
times, rounds = [], []
for _ in range(3):
    t0 = time.perf_counter(); w, rep = sw.optimize_witness(p()); times.append(time.perf_counter() - t0)
    rounds.append(rep.iterations)
out = {"seconds": times, "lp_rounds": rounds}
""",
    "newton_n5": """
m = sw.op_power(sw.collective_j(5, "x"), 2) + sw.op_power(sw.collective_j(5, "y"), 2)
r = sw.max_ppt_all(m)
out = {"newton_steps": r.report.iterations, "bipartition": r.bipartition, "value": r.value}
""",
}

PRELUDE = """
import json, sys, time
sys.path.insert(0, {src!r})
import symwit as sw
"""


def figure(name: str, threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")})
    code = PRELUDE.format(src=os.path.join(ROOT, "src")) + FIGURES[name] + "\nprint(json.dumps(out))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    plan = [("ppt_n6", 1), ("catalog_wp3_d105", 1),
            ("fit_d84", 1), ("fit_d84", 2), ("newton_n5", 1), ("newton_n5", 2)]
    for name, threads in plan:
        print(json.dumps({"figure": name, "blas_threads": threads, **figure(name, threads)}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
