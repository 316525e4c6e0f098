"""One measuring process of the benchmark; started by ``run.py``, never by hand.

Modes:
  import   import symwit and exit (the untimed warm-up import)
  setup    time the import of symwit plus building the workload's inputs
  measure  set up, run one untimed operation of each kind, then whole rounds
           of the workload's operations for --seconds; a forked child
           checks the inputs and every output

The last line of standard output is one JSON object.  BLAS and OpenMP are
pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def import_symwit(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import symwit

    if not os.path.abspath(symwit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"symwit was imported from {symwit.__file__}, not from {src}")
    return symwit


def _check_outputs(wl, results, whole_round: bool) -> tuple[list[str], list[str]]:
    """Labels of the operations that trip the known fault, and every check message."""
    tripped, errors = [], []
    for op, out in results:
        try:
            known, errs = wl.check(op, out)
        except Exception as exc:  # a check that raises is a failed check
            known, errs = False, [f"check raised {type(exc).__name__}: {exc}"]
        if known:
            tripped.append(op.label)
        errors += [f"{op.label}: {e}" for e in errs]
    if whole_round:
        errors += wl.check_round(results)
    return tripped, errors


def _serve_checks(wl, conn) -> None:
    conn.send(list(wl.prepare_checks()))
    try:
        while (request := conn.recv()) is not None:
            conn.send(_check_outputs(wl, *request))
    except EOFError:  # the measuring process has gone
        pass


class Checker:
    """The workload's checks, run in a forked child process.

    The oracle's matrices and caches live in the child, so the measuring
    process's peak RSS holds symwit's work and the harness alone.  Checking
    is synchronous: the child runs only while the measuring process waits.
    """

    def __init__(self, wl) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_serve_checks, args=(wl, child_conn), daemon=True)
        self._proc.start()
        child_conn.close()
        self.prepare_errors = self._conn.recv()

    def __call__(self, results, whole_round: bool) -> tuple[list[str], list[str]]:
        self._conn.send((results, whole_round))
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def measure(wl, args, tracer, check) -> dict:
    errors = list(check.prepare_errors)
    canonical = wl.ops()
    warmup = list({op.kind: op for op in reversed(canonical)}.values())
    _, errs = check([(op, wl.record(op, wl.run(op))) for op in warmup], False)
    errors += [f"warm-up {e}" for e in errs]
    order = list(canonical)
    random.Random(args.seed).shuffle(order)

    rounds = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        latencies, records, raised = [], [], []
        for op in order:
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # an operation that raises is a failed operation
                out = None
                raised.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            if out is not None:
                # Keep only the plain record, so that no earlier operation's output
                # is alive (and counted in the peak RSS) while the next one runs.
                records.append((op, wl.record(op, out)))
                del out
        layers = tracer.snapshot() if tracer else None
        tripped, errs = check(records, len(records) == len(order))
        attempted += len(order)
        failed += len(raised) + len(tripped)
        errors += raised + errs
        rounds.append({"wall_s": sum(latencies), "latencies": latencies, "layers": layers,
                       "failed_ops": sorted(tripped)})
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > args.seconds:  # end nearest to --seconds
            break
    failed_ops = rounds[0]["failed_ops"]
    for k, r in enumerate(rounds):
        if r["failed_ops"] != failed_ops:
            errors.append(f"round {k} trips the known fault on {r['failed_ops']}, "
                          f"round 0 on {failed_ops}")
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed_ops,
        "errors": errors,
        "measured_s": time.perf_counter() - start,
        "warmup_ops": [op.label for op in warmup],
        "order": [op.label for op in order],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("import", "setup", "measure"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    sw = import_symwit(args.root)
    import_s = time.perf_counter() - t0
    if args.mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    import layertrace
    import workloads

    tracer = layertrace.install() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](sw, args.seed, args.workdir)
    t1 = time.perf_counter()
    wl.setup()
    setup_s = import_s + time.perf_counter() - t1
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_layers = tracer.snapshot() if tracer else None
    check = Checker(wl)
    try:
        out = measure(wl, args, tracer, check)
    finally:
        check.close()
    out["setup_s"] = setup_s
    out["setup_layers"] = setup_layers
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas_threads"] = {var: os.environ.get(var) for var in THREAD_VARS}
    out["known_fault"] = wl.known_fault
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
