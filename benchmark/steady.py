"""Run two sets of benchmark runs and compare them against the bounds in BENCHMARK.json.

    python3 benchmark/steady.py

Each set runs every workload of ``BENCHMARK.json`` once for each of the seeds
1-10, for ``run_seconds``.  The two sets' runs are interleaved (seed 1 of set
1, seed 1 of set 2, seed 2 of set 1, ...), so that slow phases of the host
fall on both sets alike.  For each set, workload and end-to-end metric it
reports the median and the spread, (Q3 - Q1) / median over the set's runs,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them.  A metric
passes when its spread stays within its bound in both sets and the two
medians differ by at most the bound.  Every run must report ``correct``, and
every run of a workload must fail on the same operations.  The summary is
written to ``.benchmark_out/steady.json``; the exit code is 0 when every
check passes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".benchmark_out")
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; its result line plus the failed operations from its record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace0.json"), encoding="utf-8") as fh:
        result["failed_ops"] = json.load(fh)["failed_ops"]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {}  # (set, workload) -> list of results
    for seed in SEEDS:
        for wl in workloads:
            for s in range(SETS):
                res = run_once(wl, seed, spec["run_seconds"])
                runs.setdefault((s, wl), []).append(res)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {wl} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {values}", flush=True)

    ok = True
    summary = []
    for wl in workloads:
        results = [r for s in range(SETS) for r in runs[(s, wl)]]
        if not all(r["correct"] for r in results):
            ok = False
            print(f"FAIL {wl}: a run reported correct=false")
        failed_ops = {tuple(r["failed_ops"]) for r in results}
        if len(failed_ops) != 1:
            ok = False
            print(f"FAIL {wl}: runs fail on different operations: {sorted(failed_ops)}")
        shares = [sum(r["failed"] for r in runs[(s, wl)]) / sum(r["attempted"] for r in runs[(s, wl)])
                  for s in range(SETS)]
        if len(set(shares)) != 1:
            ok = False
            print(f"FAIL {wl}: failed shares differ between sets: {shares}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"workload": wl, "metric": name, "bound": bound, "failed_share": shares[0],
                   "failed_ops": sorted(failed_ops)}
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in runs[(s, wl)]]
                medians.append(statistics.median(values))
                cell = row[f"set{s + 1}"] = {"median": medians[-1], "spread": spread(values),
                                             "values": values}
                if cell["spread"] > bound:
                    ok = False
                    print(f"FAIL {wl} {name} set {s + 1}: spread {cell['spread']:.4f} > {bound}")
            sign = 1 if metric["better"] == "lower" else -1
            row["shift"] = sign * (medians[1] - medians[0]) / medians[0]
            if abs(row["shift"]) > bound:
                ok = False
                print(f"FAIL {wl} {name}: medians differ by {row['shift']:+.4f}, bound {bound}")
            summary.append(row)
            cells = "  ".join(f"median {row[f'set{s + 1}']['median']:.5g} spread "
                              f"{row[f'set{s + 1}']['spread']:.4f}" for s in range(SETS))
            print(f"{wl:16s} {name:12s} bound {bound:<5} {cells}  shift {row['shift']:+.4f}  "
                  f"failed share {shares[0]:.4f}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"ok": ok, "seeds": list(SEEDS), "sets": SETS, "rows": summary}, fh, indent=1)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
