"""Command-line interface.

Exit codes: 0 on success, 2 on usage errors (argparse), 3 on numerical or
data failures (solver non-convergence, malformed files, undetecting
witnesses, ...).  Global options may be given before or after the
subcommand; ``--out`` redirects the primary artifact (default stdout) and
``--config`` points to a ``key = value`` file with solver options
(``barrier_tol``, ``seesaw_restarts``, ``seesaw_tol``, ``seed``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .compiler import (
    Schedule,
    canned_decomposition,
    compile_operator,
    settings_upper_bound,
)
from .counts import CountsDataset, evaluate_witness_counts, simulate_counts
from .linalg import DenseOperator
from .optimize import (
    PPT_MAX_QUBITS,
    OptimizationError,
    PptProblem,
    SolverConfig,
    WitnessOptimizationProblem,
    collective_power_basis,
    max_bisep_all,
    max_bisep_seesaw,
    max_ppt,
    max_ppt_all,
    optimize_witness,
    q_scan,
)
from .symmetric import dicke
from .witnesses import (
    CATALOG_NAMES,
    NoiseModel,
    WitnessSpec,
    catalog,
    fidelity_curves,
    noise_tolerance,
    nonwhite_noise_state,
    _wi3_objective,
    _witness_value,
)

_GLOBALS = (
    ("--seed", dict(type=int, help="override the random seed")),
    ("--config", dict(metavar="FILE", help="solver options file (key = value lines)")),
    ("--out", dict(metavar="FILE", help="write the primary output here instead of stdout")),
    ("--format", dict(choices=("json", "csv"), dest="fmt", help="tabular output format")),
)


def _add_globals(parser: argparse.ArgumentParser, root: bool) -> None:
    for flag, kwargs in _GLOBALS:
        kw = dict(kwargs)
        if not root:
            kw["default"] = argparse.SUPPRESS
        parser.add_argument(flag, **kw)


def _load_config(args: argparse.Namespace) -> SolverConfig:
    entries: dict[str, str] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{args.config}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    cfg = SolverConfig.from_mapping(entries)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(args: argparse.Namespace, payload) -> None:
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _table(args: argparse.Namespace, header: list[str], rows) -> None:
    if args.fmt == "json":
        payload = [dict(zip(header, [float(v) for v in row])) for row in rows]
        _dump_json(args, payload)
    else:
        lines = [",".join(header)]
        lines += [",".join(f"{float(v):.10g}" for v in row) for row in rows]
        _write(args, "\n".join(lines) + "\n")


def _witness(args: argparse.Namespace) -> WitnessSpec:
    return catalog(args.witness, q=getattr(args, "q", None))


def _check_noise_kind(witness: WitnessSpec, kind: str) -> None:
    if kind != "white" and witness.num_qubits != 6:
        raise ValueError("nonwhite noise is defined for 6-qubit witnesses only")


def _noise_model(witness: WitnessSpec, kind: str) -> NoiseModel:
    _check_noise_kind(witness, kind)
    if kind == "white":
        return NoiseModel.white(witness.num_qubits)
    return NoiseModel.custom(nonwhite_noise_state(0.0))


def _noisy_target(args: argparse.Namespace, witness: WitnessSpec) -> list:
    """``rho(p) = (1 - p) |target><target| + p rho_noise`` as weighted parts."""
    _check_noise_kind(witness, args.noise)
    if not 0.0 <= args.p <= 1.0:
        raise ValueError("noise fraction p must lie in [0, 1]")
    if args.p == 0.0:  # the noise model is never built
        return [(1.0, witness.target)]
    return [(1.0 - args.p, witness.target), (args.p, _noise_model(witness, args.noise))]


def _ppt_objective(args: argparse.Namespace) -> DenseOperator:
    n = args.n
    if n > PPT_MAX_QUBITS:
        raise ValueError(f"--n {n}: PPT objectives are limited to {PPT_MAX_QUBITS} qubits")
    if args.q and args.m is None:
        raise ValueError("--q requires --m to fix <J_z> at the Dicke target")
    return _wi3_objective(n, args.m, args.q)


def _read_schedule(args: argparse.Namespace) -> Schedule | None:
    if not args.schedule:
        return None
    with open(args.schedule, encoding="utf-8") as fh:
        return Schedule.from_json(fh.read())


def _parse_bipartition(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ValueError(f"bad bipartition {raw!r}; expected e.g. 1,2") from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dicke(args, cfg):
    state = dicke(args.n, args.m)
    amplitudes = [
        {"basis": format(i, f"0{args.n}b"), "amplitude": float(np.real(a))}
        for i, a in enumerate(state.vec)
        if abs(a) > 1e-15
    ]
    if args.fmt == "csv":
        _table(args, ["basis", "amplitude"],
               [(int(e["basis"], 2), e["amplitude"]) for e in amplitudes])
    else:
        _dump_json(args, {"num_qubits": args.n, "excitations": args.m,
                          "amplitudes": amplitudes})
    return 0


def _cmd_compile(args, cfg):
    _write(args, compile_operator(_witness(args).dense).to_json())
    return 0


def _cmd_settings_bound(args, cfg):
    general, pi_bound = settings_upper_bound(args.n)
    if args.fmt == "json":
        _dump_json(args, {"num_qubits": args.n, "L": general, "L_prime": pi_bound})
    else:
        _write(args, f"L={general} L'={pi_bound}\n")
    return 0


def _cmd_canned(args, cfg):
    _write(args, canned_decomposition(args.name).to_json())
    return 0


def _cmd_witness_show(args, cfg):
    _write(args, _witness(args).to_json())
    return 0


def _cmd_witness_eval(args, cfg):
    witness = _witness(args)
    # Tr(W rho(p)) is affine in p, and both ends are read in the spin blocks
    value = sum(w * _witness_value(witness, part) for w, part in _noisy_target(args, witness))
    _dump_json(args, {"witness": witness.name, "noise": args.noise, "p": args.p,
                      "value": value})
    return 0


def _cmd_tolerance(args, cfg):
    witness = _witness(args)
    noise = _noise_model(witness, args.noise)
    tolerance = noise_tolerance(witness, noise)
    if args.fmt == "json":
        _dump_json(args, {"witness": witness.name, "noise": args.noise,
                          "tolerance": tolerance})
    else:
        _write(args, f"{tolerance:.4f}\n")
    return 0


def _cmd_optimize_witness(args, cfg):
    axes = tuple(args.axes)
    if any(a not in "xyz" for a in axes) or len(set(axes)) != len(axes):
        raise ValueError(f"bad axes {args.axes!r}; expected a subset of 'xyz'")
    basis = collective_power_basis(
        args.n, axes=axes, max_power=args.max_power, include_odd=args.include_odd
    )
    target = dicke(args.n, args.m)
    noise = NoiseModel.white(args.n)
    problem = WitnessOptimizationProblem(
        target, noise, basis, name=f"optimized-{args.axes}-D{args.n}{args.m}"
    )
    spec, report = optimize_witness(problem, cfg)
    if not report.converged:
        raise OptimizationError(
            f"witness fit did not reach the gap target (gap {report.dual_residual:.3e})"
        )
    _dump_json(args, {
        "witness": json.loads(spec.to_json()),
        "report": report.to_json(),
        "tolerance": noise_tolerance(spec, noise),
    })
    return 0


def _cmd_ppt_max(args, cfg):
    objective = _ppt_objective(args)
    if args.bipartition:
        result = max_ppt(PptProblem(objective, _parse_bipartition(args.bipartition)), cfg)
    else:
        result = max_ppt_all(objective, cfg)
    if not result.report.converged:
        raise OptimizationError("interior-point solver did not converge")
    _dump_json(args, {"value": result.value, "upper_bound": result.upper_bound,
                      "bipartition": list(result.bipartition), "report": result.report.to_json()})
    return 0


def _cmd_bisep_max(args, cfg):
    objective = _ppt_objective(args)
    if args.restarts is not None:
        cfg = dataclasses.replace(cfg, seesaw_restarts=args.restarts)
    if args.bipartition:
        part = _parse_bipartition(args.bipartition)
        value = max_bisep_seesaw(objective, part, cfg)
    else:
        value, part = max_bisep_all(objective, cfg)
    _dump_json(args, {"value": value, "bipartition": list(part)})
    return 0


def _cmd_q_scan(args, cfg):
    if args.values:
        grid = [float(tok) for tok in args.values.split(",") if tok.strip()]
    else:
        count = int(round((args.stop - args.start) / args.step)) + 1
        grid = [args.start + k * args.step for k in range(count)]
    result = q_scan(args.n, args.m, grid, cfg)
    if args.fmt == "json":
        _dump_json(args, {
            "rows": [dict(zip(("q", "c", "tolerance"), map(float, row)))
                     for row in result.rows],
            "q_opt": result.q_opt, "c_opt": result.c_opt,
            "tolerance_opt": result.tolerance_opt,
        })
    else:
        _table(args, ["q", "c", "tolerance"], result.rows)
    return 0


def _cmd_fidelity_curve(args, cfg):
    witness = _witness(args)
    noise = _noise_model(witness, args.noise)
    grid = np.linspace(0.0, args.p_max, args.points)
    rows = fidelity_curves(witness, noise, grid)
    _table(args, ["p", "fidelity", "bound"], rows)
    return 0


def _cmd_simulate(args, cfg):
    witness = _witness(args)
    schedule = _read_schedule(args) or compile_operator(witness.dense)
    dataset = simulate_counts(_noisy_target(args, witness), schedule, args.shots, seed=cfg.seed)
    _write(args, dataset.to_ndjson())
    return 0


def _cmd_eval_counts(args, cfg):
    witness = _witness(args)
    with open(args.counts, encoding="utf-8") as fh:
        dataset = CountsDataset.from_ndjson(fh.read())
    result = evaluate_witness_counts(
        witness, dataset, schedule=_read_schedule(args),
        bootstrap_samples=args.bootstrap, seed=cfg.seed,
    )
    _dump_json(args, result.to_json())
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _witness_flags(parser, with_q=True):
    parser.add_argument("--witness", required=True, metavar="NAME",
                        help=f"catalog name, one of: {', '.join(CATALOG_NAMES)}")
    if with_q:
        parser.add_argument("--q", type=float, default=None,
                            help="penalty strength for the q-parameterized witness")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``symwit`` argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symwit",
        description="Witnesses and measurement schedules for symmetric multi-qubit states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_globals(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, handler, help_text, group=sub):
        p = group.add_parser(name, help=help_text)
        _add_globals(p, root=False)
        p.set_defaults(handler=handler)
        return p

    p = add("dicke", _cmd_dicke, "print the amplitudes of a Dicke state")
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--m", type=int, required=True, help="number of excitations")

    p = add("compile", _cmd_compile, "compile a witness into a measurement schedule")
    _witness_flags(p)

    p = add("settings-bound", _cmd_settings_bound,
            "worst-case local-setting counts for N-qubit PI observables")
    p.add_argument("--n", type=int, required=True)

    p = add("canned", _cmd_canned, "print a published projector decomposition schedule")
    p.add_argument("--name", required=True, choices=("D63", "D42"))

    wit = sub.add_parser("witness", help="inspect or evaluate catalog witnesses")
    wsub = wit.add_subparsers(dest="subcommand", required=True, metavar="ACTION")
    p = add("show", _cmd_witness_show, "print the witness as JSON", wsub)
    _witness_flags(p)
    p = add("eval", _cmd_witness_eval, "expectation value on a noisy target state", wsub)
    _witness_flags(p)
    p.add_argument("--noise", choices=("white", "nonwhite"), default="white")
    p.add_argument("--p", type=float, default=0.0, help="noise fraction in [0, 1]")
    for group in (wsub, sub):  # ``witness tolerance`` and ``tolerance``
        p = add("tolerance", _cmd_tolerance, "critical noise fraction of a witness", group)
        _witness_flags(p)
        p.add_argument("--noise", choices=("white", "nonwhite"), default="white")

    p = add("optimize-witness", _cmd_optimize_witness,
            "fit witness coefficients over collective-power bases")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="Dicke target excitations")
    p.add_argument("--axes", default="xy", help="axes of the basis, e.g. xy or xyz")
    p.add_argument("--max-power", type=int, default=None)
    p.add_argument("--include-odd", action="store_true")

    p = add("ppt-max", _cmd_ppt_max,
            "maximize J_x^2+J_y^2 [- q (J_z-<J_z>)^2] over PPT states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--m", type=int, default=None, help="Dicke excitations fixing <J_z>")
    p.add_argument("--bipartition", default=None, help="comma-separated qubits, e.g. 1,2")

    p = add("bisep-max", _cmd_bisep_max, "product-state maximum by seesaw")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--bipartition", default=None)
    p.add_argument("--restarts", type=int, default=None)

    p = add("q-scan", _cmd_q_scan, "scan the penalty strength of the q-witness family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--values", default=None, help="explicit comma-separated q values")

    p = add("fidelity-curve", _cmd_fidelity_curve,
            "witness fidelity bound vs true fidelity under admixed noise")
    _witness_flags(p)
    p.add_argument("--noise", choices=("white", "nonwhite"), default="white")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--p-max", type=float, default=1.0)

    p = add("simulate", _cmd_simulate, "sample measurement counts for a witness schedule")
    _witness_flags(p)
    p.add_argument("--schedule", default=None, metavar="FILE",
                   help="schedule JSON (default: compile the witness)")
    p.add_argument("--shots", type=int, required=True, help="shots per setting")
    p.add_argument("--noise", choices=("white", "nonwhite"), default="white")
    p.add_argument("--p", type=float, default=0.0, help="noise fraction in [0, 1]")

    p = add("eval-counts", _cmd_eval_counts, "estimate a witness value from NDJSON counts")
    _witness_flags(p)
    p.add_argument("--counts", required=True, metavar="FILE")
    p.add_argument("--schedule", default=None, metavar="FILE")
    p.add_argument("--bootstrap", type=int, default=1000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.handler(args, cfg)
    except (OptimizationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
