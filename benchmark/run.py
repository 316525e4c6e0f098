"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload ppt_threshold --seed 1 --seconds 25 --trace 0

Every measurement happens in fresh child processes (``worker.py``) whose
BLAS and OpenMP pools are pinned to one thread before numpy loads:
an untimed warm-up import, ``SETUP_BEFORE`` set-up-only processes, the
measuring process, which sets up once more, runs one untimed operation of
each kind and then whole rounds of the workload's operations for
``--seconds``, and ``SETUP_AFTER`` more set-up-only processes, so that the
set-up samples span the run.  With ``--trace 0`` the last line holds the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics, read by wrapping symwit's public functions.  The full
record of the run is written to ``.benchmark_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".benchmark_out")
SETUP_BEFORE = 2           # set-up-only processes before the measuring process,
SETUP_AFTER = 2            # and after it; the measuring process adds one more sample


def child(mode: str, args, workdir: str, timeout: float) -> dict:
    """Run worker.py in a fresh process and return its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode, "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker --mode {mode} exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> dict | None:
    """Latency at the highest whole percentile with at least ten operations beyond it."""
    n = len(latencies)
    if n < 40:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    return {"percentile": pct, "samples": n,
            "value_s": sorted(latencies)[math.ceil(pct / 100 * n) - 1]}


def op_median(rounds: list[dict]) -> float:
    """Median over the operation list of each operation's median latency across the rounds.

    The plain median of every latency of a run falls between two kinds of
    operation when the list has an even length, and then takes the slowest
    of one kind and the fastest of the next; each per-operation median is
    the median of that operation's own repeats.
    """
    per_op = zip(*(r["latencies"] for r in rounds))
    return statistics.median(statistics.median(x) for x in per_op)


def end_to_end(setups: list[float], m: dict) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in m["rounds"]),
        "op_p50_s": op_median(m["rounds"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(m: dict, names: list[str]) -> dict:
    """Set-up totals plus the per-round mean over the measured rounds."""
    rounds = [r["layers"] for r in m["rounds"]]
    return {name: m["setup_layers"].get(name, 0) + statistics.fmean(r.get(name, 0) for r in rounds)
            for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "symwit", "__init__.py")):
        print(f"error: no symwit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        warm = child("import", args, workdir, timeout=60)
        samples = 0 if args.trace else SETUP_BEFORE
        setups = [child("setup", args, workdir, timeout=60)["setup_s"] for _ in range(samples)]
        m = child("measure", args, workdir, timeout=args.seconds + 90)
        setups.append(m["setup_s"])
        samples = 0 if args.trace else SETUP_AFTER
        setups += [child("setup", args, workdir, timeout=60)["setup_s"] for _ in range(samples)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(m, [x["name"] for x in listed])
    else:
        values = end_to_end(setups, m)
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in listed}
    result = {"correct": not m["errors"], "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, warmup_import_s=warm["import_s"],
                  round_wall_s=[r["wall_s"] for r in m["rounds"]],
                  round_latencies_s=[r["latencies"] for r in m["rounds"]],
                  round_failed_ops=[r["failed_ops"] for r in m["rounds"]],
                  op_tail=tail([x for r in m["rounds"] for x in r["latencies"]]),
                  **{k: v for k, v in m.items() if k != "rounds"})
    if args.trace:
        names = set(m["setup_layers"]).union(*(r["layers"] for r in m["rounds"]))
        record["layers"] = per_layer(m, sorted(names))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for err in m["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(m['rounds'])} rounds, "
          f"{m['attempted']} operations, {m['failed']} failed {m['failed_ops']} per round, "
          f"round wall {[round(r['wall_s'], 3) for r in m['rounds']]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
