"""End-to-end command line checks, run in process via main(argv)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symwit
from symwit.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize would take most of the import time; no solver loads it any more
    src = os.path.dirname(os.path.dirname(symwit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import symwit, symwit.cli, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_package_does_not_load_scipy():
    # the derived alpha and the symmetric-product maximum are closed forms on spin blocks
    src = os.path.dirname(os.path.dirname(symwit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, symwit\n"
            "assert symwit.catalog('WP3_D105').alpha_source == 'derived'\n"
            "symwit.optimize.max_symmetric_product(symwit.collective_j(3, 'x'),\n"
            "                                      symwit.SolverConfig(seesaw_restarts=2))\n"
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_settings_bound_text_and_json(capsys):
    code, out, _ = run(capsys, "settings-bound", "--n", "6")
    assert code == 0
    assert out.strip() == "L=188 L'=145"
    code, out, _ = run(capsys, "settings-bound", "--n", "6", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["L"] == 188 and payload["L_prime"] == 145


def test_tolerance_prints_four_decimals(capsys):
    code, out, _ = run(capsys, "tolerance", "--witness", "WP2_D63")
    assert code == 0
    assert out.strip() == "0.1391"


def test_witness_show_emits_json(capsys):
    code, out, _ = run(capsys, "witness", "show", "--witness", "WP_D42", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["name"] == "WP_D42"
    assert payload["N"] == 4
    assert payload["alpha"] == 1.0


def test_witness_eval_white_noise(capsys):
    code, out, _ = run(
        capsys, "witness", "eval", "--witness", "WP_D42",
        "--noise", "white", "--p", "0.0", "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == pytest.approx(-1 / 3, abs=1e-9)


def test_witness_eval_builds_no_dense_state(capsys, monkeypatch):
    # N=10 at p=0.1: (1 - p) <W>_target + p <W>_noise, both read in the spin blocks
    import symwit.symmetric
    import symwit.witnesses
    from symwit.linalg import StateVector

    def refuse(*args, **kwargs):
        raise AssertionError("dense state on the witness eval path")

    monkeypatch.setattr(StateVector, "density", refuse)
    monkeypatch.setattr(symwit.symmetric, "compress", refuse)
    monkeypatch.setattr(symwit.witnesses, "compress", refuse)
    code, out, _ = run(capsys, "witness", "eval", "--witness", "WP3_D105", "--p", "0.1")
    assert code == 0
    assert abs(json.loads(out)["value"] - (-0.5840)) <= 1e-4


def test_noisy_simulate_builds_no_dense_state(capsys, monkeypatch):
    # N=8 at p=0.15: the target is rotated as a vector and the white noise adds 1/2^N
    import symwit.counts
    from symwit.linalg import StateVector

    def refuse(*args, **kwargs):
        raise AssertionError("dense state on the simulate path")

    rotate = symwit.counts._rotate

    def vectors_only(out, *args):
        assert out.ndim == 1, "dense rotation on the simulate path"
        return rotate(out, *args)

    monkeypatch.setattr(StateVector, "density", refuse)
    monkeypatch.setattr(symwit.counts, "_rotate", vectors_only)
    code, out, _ = run(capsys, "simulate", "--witness", "WP3_D84", "--p", "0.15",
                       "--shots", "1000", "--seed", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    settings = {tuple(row["setting"]) for row in rows}
    assert sum(row["count"] for row in rows) == 1000 * len(settings)


def test_witness_eval_is_the_dense_trace_under_nonwhite_noise(capsys):
    from symwit.witnesses import catalog, nonwhite_noise_state

    p = 0.3
    code, out, _ = run(capsys, "witness", "eval", "--witness", "WP3_D63",
                       "--noise", "nonwhite", "--p", str(p))
    assert code == 0
    witness = catalog("WP3_D63")
    rho = (1 - p) * witness.target.density().mat + p * nonwhite_noise_state(0.0).mat
    want = float(np.real(np.trace(witness.dense.mat @ rho)))
    assert abs(json.loads(out)["value"] - want) <= 1e-12
    code, _, err = run(capsys, "witness", "eval", "--witness", "WP3_D63", "--p", "1.5")
    assert code == 3 and "noise fraction p must lie in [0, 1]" in err


def test_canned_setting_counts(capsys):
    code, out, _ = run(capsys, "canned", "--name", "D63", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["settings"]) == 21
    code, out, _ = run(capsys, "canned", "--name", "D42", "--format", "json")
    assert len(json.loads(out)["settings"]) == 9


def test_compile_witness_schedule(capsys, tmp_path):
    out_file = tmp_path / "sched.json"
    code, _, _ = run(
        capsys, "compile", "--witness", "WP_D42", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["settings"]) == 9
    assert payload["N"] == 4


def test_dicke_amplitudes_normalized(capsys):
    code, out, _ = run(capsys, "dicke", "--n", "5", "--m", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    total = sum(entry["amplitude"] ** 2 for entry in payload["amplitudes"])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(entry["basis"].count("1") == 2 for entry in payload["amplitudes"])


def test_simulate_then_evaluate_round_trip(capsys, tmp_path):
    counts = tmp_path / "counts.ndjson"
    code, _, _ = run(
        capsys, "simulate", "--witness", "WP_D42", "--shots", "20000",
        "--seed", "11", "--out", str(counts),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "eval-counts", "--witness", "WP_D42", "--counts", str(counts),
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    # the noiseless target gives value lambda^2 - 1 = -1/3
    assert abs(payload["witness_value"] + 1 / 3) < 5 * payload["standard_error"]
    assert payload["fidelity_bound"] is not None


def test_simulate_checks_the_noise_kind_without_building_it_at_p0(capsys, monkeypatch):
    import symwit.cli

    def refuse(*args, **kwargs):
        raise AssertionError("noise model built at p=0")

    monkeypatch.setattr(symwit.cli.NoiseModel, "white", refuse)
    code, out, _ = run(capsys, "simulate", "--witness", "WP3_D42", "--shots", "10", "--p", "0")
    assert code == 0 and out
    code, _, err = run(capsys, "simulate", "--witness", "WP3_D42", "--shots", "10", "--p", "0",
                       "--noise", "nonwhite")
    assert code == 3
    assert "nonwhite noise is defined for 6-qubit witnesses only" in err


def test_simulate_is_seed_deterministic(capsys, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.ndjson", "b.ndjson", "c.ndjson"))
    for path, seed in ((a, "3"), (b, "3"), (c, "4")):
        code, _, _ = run(
            capsys, "simulate", "--witness", "WP_D42", "--shots", "500",
            "--seed", seed, "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_fidelity_curve_csv(capsys):
    code, out, _ = run(
        capsys, "fidelity-curve", "--witness", "WP3_D63",
        "--noise", "white", "--points", "11",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,fidelity,bound"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-9)
    assert first[2] <= first[1] + 1e-12


def test_config_file_round_trip(capsys, tmp_path):
    from symwit.linalg import op_power
    from symwit.optimize import SolverConfig, max_bisep_all
    from symwit.symmetric import collective_j

    cfg = tmp_path / "solver.cfg"
    cfg.write_text("# comment line\nseesaw_restarts = 5\nseed = 42\n")
    code, out, _ = run(
        capsys, "bisep-max", "--n", "3", "--m", "1",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    objective = op_power(collective_j(3, "x"), 2) + op_power(collective_j(3, "y"), 2)
    oracle = max_bisep_all(objective, config=SolverConfig(seesaw_restarts=5, seed=42))
    assert payload["value"] == pytest.approx(oracle.value, abs=1e-12)


def test_restarts_flag_is_the_config_setting(capsys, tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("seesaw_restarts = 5\n")
    outs = []
    for extra in (["--restarts", "5"], ["--config", str(cfg)]):
        code, out, _ = run(capsys, "bisep-max", "--n", "3", "--m", "1", *extra)
        assert code == 0
        outs.append(json.loads(out)["value"])
    assert outs[0] == outs[1]


def test_unknown_config_key_exits_3(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code, _, err = run(capsys, "settings-bound", "--n", "4", "--config", str(cfg))
    assert code == 3
    assert "error:" in err


def test_out_of_range_config_value_exits_3(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("barrier_tol = 0\n")
    code, _, err = run(capsys, "ppt-max", "--n", "2", "--config", str(cfg))
    assert code == 3
    assert "barrier_tol" in err


def test_removed_cut_tol_option_exits_3(capsys, tmp_path):
    # the cutting-plane witness fit and its gap target are gone
    cfg = tmp_path / "old.cfg"
    cfg.write_text("cut_tol = 1e-6\n")
    code, _, err = run(capsys, "optimize-witness", "--n", "4", "--m", "2", "--config", str(cfg))
    assert code == 3
    assert "cut_tol" in err


def test_missing_counts_file_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys, "eval-counts", "--witness", "WP_D42",
        "--counts", str(tmp_path / "nope.ndjson"),
    )
    assert code == 3
    assert "error:" in err


def test_unknown_witness_exits_3(capsys):
    code, _, err = run(capsys, "tolerance", "--witness", "WP_D99")
    assert code == 3
    assert "error:" in err


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["settings-bound"])  # missing required --n
    assert excinfo.value.code == 2


def test_ppt_max_matches_library(capsys):
    from symwit.linalg import op_power
    from symwit.optimize import max_ppt_all
    from symwit.symmetric import collective_j

    code, out, _ = run(capsys, "ppt-max", "--n", "4", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    objective = op_power(collective_j(4, "x"), 2) + op_power(collective_j(4, "y"), 2)
    oracle = max_ppt_all(objective)
    assert payload["value"] == pytest.approx(oracle.value, abs=1e-9)
    assert payload["bipartition"] == list(oracle.bipartition)


def test_ppt_max_upper_bound_covers_the_product_maximum(capsys):
    # WI3_D41's objective: the printed upper bound is value + gap and no product state beats it
    args = ("--n", "4", "--m", "1", "--q", "1.47", "--format", "json")
    code, out, _ = run(capsys, "ppt-max", *args)
    assert code == 0
    ppt = json.loads(out)
    code, out, _ = run(capsys, "bisep-max", *args)
    assert code == 0
    bisep = json.loads(out)
    assert ppt["upper_bound"] == ppt["value"] + ppt["report"]["dual_residual"]
    assert ppt["upper_bound"] >= bisep["value"] >= 4.1234


def test_ppt_objective_size_is_checked_before_allocation(capsys, monkeypatch):
    def no_operators(*args, **kwargs):
        raise AssertionError("a dense operator was built before the size check")

    for name in ("collective_j", "collective_power", "dicke"):
        monkeypatch.setattr(f"symwit.witnesses.{name}", no_operators)
    monkeypatch.setattr("symwit.optimize.dicke", no_operators)
    assert main(["ppt-max", "--n", "12"]) == 3
    assert main(["q-scan", "--n", "12", "--m", "6", "--values", "0"]) == 3
    assert "8 qubits" in capsys.readouterr().err


def test_dense_size_is_checked_before_allocation(capsys, monkeypatch):
    import numpy as np

    def no_allocation(*args, **kwargs):
        raise AssertionError("a dense array was allocated before the size check")

    for name in ("zeros", "eye", "empty"):
        monkeypatch.setattr(np, name, no_allocation)
    assert main(["dicke", "--n", "40", "--m", "20"]) == 3
    assert main(["optimize-witness", "--n", "40", "--m", "20"]) == 3
    assert capsys.readouterr().err.count("limited to 12") == 2


def test_malformed_schedule_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.schedule.json"
    bad.write_text('{"N": 4, "terms": [{"coeff": 1, "n": [1, 0], "scale": 1, '
                   '"identity_weight": 0}]}')
    code = main(["simulate", "--witness", "WP_D42", "--shots", "10", "--schedule", str(bad)])
    assert code == 3
    assert "malformed" in capsys.readouterr().err


def test_eval_counts_checks_the_schedule_realizes_the_witness(capsys, tmp_path):
    canned = tmp_path / "d63.schedule.json"  # realizes 64 |D63><D63|, not WP_D63
    compiled = tmp_path / "wp_d63.schedule.json"
    counts = tmp_path / "counts.ndjson"
    assert main(["canned", "--name", "D63", "--out", str(canned)]) == 0
    assert main(["compile", "--witness", "WP_D63", "--out", str(compiled)]) == 0
    for schedule, want in ((canned, 3), (compiled, 0)):
        assert main(["simulate", "--witness", "WP_D63", "--schedule", str(schedule),
                     "--p", "0.2", "--shots", "200", "--out", str(counts)]) == 0
        code = main(["eval-counts", "--witness", "WP_D63", "--schedule", str(schedule),
                     "--counts", str(counts), "--bootstrap", "10"])
        assert code == want
    assert "does not realize the witness" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["-5", "1"])
def test_degenerate_bootstrap_count_exits_3(capsys, tmp_path, samples):
    counts = tmp_path / "counts.ndjson"
    assert main(["simulate", "--witness", "WP_D42", "--shots", "100", "--out", str(counts)]) == 0
    code = main(["eval-counts", "--witness", "WP_D42", "--counts", str(counts),
                 "--bootstrap", samples])
    assert code == 3
    assert "bootstrap_samples" in capsys.readouterr().err


def test_reused_parser_gives_the_outputs_of_fresh_ones(capsys, tmp_path):
    counts = tmp_path / "counts.ndjson"
    assert main(["simulate", "--witness", "WP_D42", "--shots", "200", "--out", str(counts)]) == 0
    calls = [
        ["eval-counts", "--witness", "WP_D42", "--counts", str(counts), "--bootstrap", "10"],
        ["eval-counts", "--witness", "WP_D42", "--counts", str(counts)],
        ["dicke", "--n", "3", "--m", "1", "--format", "csv"],
        ["dicke", "--n", "3", "--m", "1"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert reused[0][1] != reused[1][1] and reused[2][1] != reused[3][1]
    assert all(code == 0 for code, _, _ in reused)


def test_non_integer_count_exits_3(capsys, tmp_path):
    counts = tmp_path / "counts.ndjson"
    counts.write_text('{"setting": [0, 0, 1], "outcomes": "++++", "count": 1e400}\n')
    assert main(["eval-counts", "--witness", "WP_D42", "--counts", str(counts)]) == 3
    assert "malformed counts record" in capsys.readouterr().err
