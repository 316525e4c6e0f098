"""End-to-end command line checks, run in process via main(argv)."""

from __future__ import annotations

import json

import pytest

from symwit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_non_integer_count_exits_3(capsys, tmp_path):
    counts = tmp_path / "counts.ndjson"
    counts.write_text('{"setting": [0, 0, 1], "outcomes": "++++", "count": 1e400}\n')
    assert main(["eval-counts", "--witness", "WP_D42", "--counts", str(counts)]) == 3
    assert "malformed counts record" in capsys.readouterr().err
