"""End-to-end tests for the command line interface.

Every command is exercised through main(argv) with outputs parsed back
via the package readers, so the CLI is held to the same bit-level
reproducibility as the library calls it wraps.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from qpcrkin.cli import main
from qpcrkin.kinetics import Kinetics, inverse_profile
from qpcrkin.simulate import (
    SimConfig,
    read_trajectory_csv,
    simulate_reaction,
    write_trajectory_csv,
)
from qpcrkin.limit_law import sample_limit, read_ensemble_csv
from qpcrkin.inference import read_report_json
from qpcrkin.experiments import read_result_json


class TestSimulate:
    def test_matches_direct_call(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--v", "0.5", "--m", "12", "--z0", "2",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        traj = read_trajectory_csv(out)
        kin = Kinetics.from_exponent(0.5, 12)
        direct = simulate_reaction(SimConfig(kin, z0=2, n_cycles=17, seed=9,
                                             replicate_id=0))
        np.testing.assert_array_equal(traj.counts, direct.counts)
        assert traj.kinetics == kin

    def test_cycle_override(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--m", "10", "--cycles", "4",
                     "--out", str(out)]) == 0
        assert read_trajectory_csv(out).counts.size == 5

    def test_requires_out(self, capsys):
        assert main(["simulate", "--m", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_mode_flag(self, tmp_path, capsys):
        # argparse rejects the removed --mode with its usage error
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "coupled", "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_no_mode_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 10, "mode": "coupled"}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "unknown config keys: ['mode']" in capsys.readouterr().err

    def test_readme_command_output_unchanged(self, tmp_path):
        # the README's simulate command, byte for byte as before the coupled
        # construction moved to lockstep blocks
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--v", "0.5", "--m", "30", "--z0", "5",
                     "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d466369f57204a3a741c10a3e039fa5de270361a647a4e1a931b511173dcbb36")


class TestHCurves:
    def test_default_efficiencies(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["h-curves", "--x-max", "1.0", "--x-step", "0.25",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "v,x,profile,diagonal"
        assert len(rows) == 1 + 4 * 5
        assert sorted({float(r.split(",")[0]) for r in rows[1:]}) == [
            0.25, 0.5, 0.9, 1.0]

    def test_v_list_flag(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["h-curves", "--v", "0.5,1.0", "--x-max", "0.5",
                     "--x-step", "0.5", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 2


    # each case overrides --x-max 1.0 --x-step 0.25; its last flag is named
    @pytest.mark.parametrize("override", [
        ("--x-step", "0"), ("--x-step", "-0.25"), ("--x-step", "nan"),
        ("--x-step", "inf"), ("--x-step", "2.0"), ("--x-max", "0"),
        ("--x-max", "-1"), ("--x-max", "nan"), ("--x-max", "inf"),
        ("--x-max", "4.5"),
        # more than 10**6 grid intervals
        ("--x-step", "1e-300"), ("--x-max", "4", "--x-step", "3e-6"),
    ], ids="-".join)
    def test_bad_grid_option_named(self, tmp_path, capsys, override):
        out = tmp_path / "curves.csv"
        args = {"--x-max": "1.0", "--x-step": "0.25",
                **dict(zip(override[::2], override[1::2]))}
        assert main(["h-curves", "--x-max", args["--x-max"],
                     "--x-step", args["--x-step"], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {override[-2][2:].replace('-', '_')} must be")
        assert not out.exists()


class TestWSample:
    def test_round_trip_matches_library(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["w-sample", "--v", "0.5", "--z0", "2", "--count", "200",
                     "--seed", "4", "--out", str(out)]) == 0
        ens = read_ensemble_csv(out)
        direct = sample_limit(0.5, z=2, count=200, seed=4)
        np.testing.assert_array_equal(ens.samples, direct.samples)
        assert ens.v == 0.5 and ens.z == 2


class TestEstimate:
    def test_inline_exact_inversion(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["estimate", "--v", "1.0", "--m", "14", "--z0", "3",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        report = read_report_json(out)
        assert report.z_hat_mle == 3
        assert report.tau <= 0
        assert report.settings["v_known"] == 1.0

    def test_trajectory_file_input(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        assert main(["simulate", "--v", "0.5", "--m", "25", "--z0", "2",
                     "--seed", "3", "--out", str(traj_path)]) == 0
        out = tmp_path / "report.json"
        rc = main(["estimate", "--traj", str(traj_path), "--no-mle",
                   "--out", str(out)])
        assert rc == 0
        report = read_report_json(out)
        assert report.z_hat_mle is None
        assert report.z_hat_normal > 0
        assert report.settings["v_known"] == 0.5
        assert len(report.t_values) == 5

    def test_scale_not_a_power_of_b(self, tmp_path):
        # t_j = K * b**-(n_hit+j) * G(kappa_j) with the file's own K = 1e5,
        # which lies between 1.5**28 and 1.5**29
        kin = Kinetics(v=0.5, K=1e5)
        traj = simulate_reaction(SimConfig(kin, z0=3, n_cycles=34, seed=4))
        traj_path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, traj_path)
        out = tmp_path / "report.json"
        assert main(["estimate", "--traj", str(traj_path), "--no-mle",
                     "--out", str(out)]) == 0
        report = read_report_json(out)
        n_hit = int(np.argmax(traj.counts / kin.K >= report.settings["rho"]))
        kappas = traj.counts[n_hit:n_hit + 5] / kin.K
        np.testing.assert_array_equal(report.kappas, kappas)
        cycles = n_hit + np.arange(5)
        expected = 1e5 * 1.5 ** -cycles.astype(float) * inverse_profile(kappas, kin)
        np.testing.assert_allclose(report.t_values, expected, rtol=1e-14, atol=0)

    def test_supplied_efficiency_centres_tau(self, tmp_path):
        # --v may differ from the file's efficiency; it is the one that
        # inverts the densities
        traj_path = tmp_path / "traj.csv"
        assert main(["simulate", "--v", "0.5", "--m", "25", "--z0", "2",
                     "--seed", "3", "--out", str(traj_path)]) == 0
        out = tmp_path / "report.json"
        rc = main(["estimate", "--traj", str(traj_path), "--v", "0.6",
                   "--no-mle", "--out", str(out)])
        assert rc == 0
        report = read_report_json(out)
        assert report.settings["v_known"] == 0.6

    def test_fit_efficiency(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["estimate", "--v", "0.5", "--m", "25", "--z0", "2",
                   "--seed", "5", "--fit-v", "--no-mle", "--out", str(out)])
        assert rc == 0
        report = read_report_json(out)
        assert report.v_hat is not None
        assert abs(report.v_hat - 0.5) < 0.2
        assert report.settings["fit_efficiency"] is True

    def test_inline_needs_scale(self, capsys):
        assert main(["estimate", "--v", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scale_past_the_float_range_names_m(self, tmp_path, capsys):
        # K = 1.5**2000 overflows: exit 1 with a message naming m
        rc = main(["estimate", "--v", "0.5", "--m", "2000",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "m=2000" in err

    def test_sampling_flags_have_no_effect(self, tmp_path, capsys):
        # the likelihood scan is exact: --mle-seed and --mle-count are
        # accepted and named on stderr as having no effect
        out = tmp_path / "report.json"
        rc = main(["estimate", "--v", "0.5", "--m", "30", "--z0", "3",
                   "--seed", "4", "--mle-seed", "7", "--mle-count", "1000",
                   "--z-max", "12", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        notice = [line for line in captured.err.splitlines() if "no effect" in line]
        assert len(notice) == 1 and "mle_count" in notice[0]
        report = read_report_json(out)
        profile = report.diagnostics["mle_profile"]
        assert len(profile) == 12
        assert report.z_hat_mle == int(np.argmax(profile)) + 1
        assert "mle_count" not in report.settings

    def test_sampling_config_keys_have_no_effect(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mle_seed": 3}))
        out = tmp_path / "report.json"
        rc = main(["estimate", "--config", str(cfg), "--v", "0.5", "--m", "30",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        assert "no effect" in capsys.readouterr().err
        assert read_report_json(out).diagnostics["mle_profile"] is not None

    def test_no_notice_without_sampling_flags(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["estimate", "--v", "0.5", "--m", "30", "--seed", "4",
                     "--out", str(out)]) == 0
        assert "no effect" not in capsys.readouterr().err


class TestEstimateHorizon:
    """Without --cycles, an unobservable run is simulated 5 cycles longer."""

    @pytest.mark.parametrize("index", [169, 540])
    def test_benchmark_ops_past_the_short_horizon(self, tmp_path, capsys, index):
        # ops 169 (--fit-v) and 540 of the benchmark's estimate-scan
        # workload at seed 1103, whose argv draws the trajectory seed from
        # default_rng([1103, index]); both are z0=1 runs at v=0.5, m=30 that
        # have no crossing, or a single density, within m+5 cycles
        seed = int(np.random.default_rng([1103, index]).integers(2 ** 31, size=2)[0])
        out = tmp_path / "report.json"
        argv = ["estimate", "--v", "0.5", "--m", "30", "--z0", "1",
                "--seed", str(seed), "--z-max", "10", "--out", str(out)]
        if index % 2:
            argv.append("--fit-v")
        assert main(argv + ["--cycles", "35"]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert "40 cycles" in capsys.readouterr().err
        report = read_report_json(out)
        assert report.z_hat_mle == int(np.argmax(report.diagnostics["mle_profile"])) + 1

    @pytest.mark.parametrize("fit", [False, True])
    def test_readme_reports_keep_the_old_horizon(self, tmp_path, capsys, fit):
        # the README's inline estimate, and one without --fit-v, are
        # observable at m+5: that run is kept, and the default report is
        # byte for byte the one of an explicit --cycles m+5, the old default
        argv = ["estimate", "--v", "0.5", "--m", "30", "--z0", "5", "--seed", "1"]
        if fit:
            argv.append("--fit-v")
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(argv + ["--out", str(default)]) == 0
        assert "seed=1, 35 cycles;" in capsys.readouterr().err
        assert main(argv + ["--cycles", "35", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_readme_trajectory_report_unchanged(self, tmp_path):
        # a stored trajectory is never re-simulated
        traj = tmp_path / "traj.csv"
        assert main(["simulate", "--v", "0.5", "--m", "30", "--z0", "5",
                     "--seed", "1", "--out", str(traj)]) == 0
        assert read_trajectory_csv(traj).n_cycles == 35
        out = tmp_path / "report.json"
        assert main(["estimate", "--traj", str(traj), "--out", str(out)]) == 0
        report = read_report_json(out)
        assert report.z_hat_mle >= 1 and len(report.t_values) == 5

    def test_past_the_cap_the_usual_error(self, tmp_path, capsys):
        # this run stays below rho = 0.9 through m+20 cycles
        out = tmp_path / "report.json"
        assert main(["estimate", "--v", "0.1", "--m", "100", "--z0", "1",
                     "--seed", "1", "--rho", "0.9", "--no-mle",
                     "--out", str(out)]) == 1
        assert "density never reached 0.9 within 120 cycles" in capsys.readouterr().err
        assert not out.exists()


def test_repeated_calls_share_no_state(tmp_path):
    # one parser serves every call in a process: a flag or a rejected
    # call must not carry over into the next one
    fitted, plain = tmp_path / "fitted.json", tmp_path / "plain.json"
    base = ["estimate", "--v", "0.5", "--m", "25", "--z0", "2", "--seed", "5",
            "--no-mle"]
    assert main(base + ["--fit-v", "--out", str(fitted)]) == 0
    assert read_report_json(fitted).v_hat is not None
    assert main(base + ["--out", str(plain)]) == 0
    report = read_report_json(plain)
    assert report.v_hat is None
    assert report.settings["fit_efficiency"] is False
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--z-max", "many", "--out", str(plain)])
    assert exc.value.code == 2
    out = tmp_path / "res.json"
    assert main(["experiment", "--kind", "estimation", "--v", "1.0",
                 "--m", "12", "--z0", "2", "--replicates", "30",
                 "--seed", "2", "--out", str(out)]) == 0
    res = read_result_json(out)
    assert res.spec["fit_efficiency"] is False and res.spec["z0"] == 2


class TestExperimentCommand:
    def test_convergence(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = main(["experiment", "--kind", "convergence", "--v", "0.5",
                   "--m", "14", "--replicates", "50", "--ref-count", "400",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # progress must stay on stderr
        assert captured.err != ""
        res = read_result_json(out)
        assert res.kind == "convergence"
        assert 0.0 <= res.summary["ks"] <= 1.0

    def test_estimation(self, tmp_path):
        out = tmp_path / "res.json"
        rc = main(["experiment", "--kind", "estimation", "--v", "1.0",
                   "--m", "12", "--z0", "2", "--replicates", "30",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        res = read_result_json(out)
        assert res.summary["detected"] + res.summary["missed"] == 30

    def test_coupling(self, tmp_path):
        out = tmp_path / "res.json"
        rc = main(["experiment", "--kind", "coupling", "--v", "0.5",
                   "--z0", "5", "--m-values", "8,10", "--replicates", "20",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        res = read_result_json(out)
        assert res.summary["m_values"] == [8, 10]
        assert res.summary["max_violations"] == 0

    def test_reproducible_through_cli(self, tmp_path):
        args = ["experiment", "--kind", "convergence", "--m", "12",
                "--replicates", "40", "--ref-count", "300", "--seed", "6"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        # runtime and the echoed output path are the only run-specific parts
        for doc in (doc_a, doc_b):
            doc.pop("runtime_seconds")
            doc["spec"].pop("out")
        assert doc_a == doc_b

    def test_kind_required(self, capsys):
        assert main(["experiment", "--m", "10"]) == 1
        assert "error:" in capsys.readouterr().err


class TestConfigMerge:
    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "convergence", "v": 0.5, "m": 10,
                                   "replicates": 30, "ref_count": 300}))
        out = tmp_path / "res.json"
        rc = main(["experiment", "--config", str(cfg), "--m", "12",
                   "--out", str(out)])
        assert rc == 0
        res = read_result_json(out)
        assert res.spec["m"] == 12  # flag wins
        assert res.spec["v"] == 0.5  # config fills the rest
        assert res.spec["replicates"] == 30

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "convergence", "bogus": 1}))
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_bad_rho(self, tmp_path, capsys):
        rc = main(["experiment", "--kind", "convergence", "--rho", "1.5",
                   "--m", "10", "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_efficiency(self, tmp_path, capsys):
        rc = main(["simulate", "--v", "1.5", "--m", "10",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "traj.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qpcrkin", "simulate", "--m", "8",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.exists()
