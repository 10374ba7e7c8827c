"""End-to-end tests for the command line interface.

Every command is exercised through main(argv) with outputs parsed back
via the package readers, so the CLI is held to the same bit-level
reproducibility as the library calls it wraps.
"""

import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from qpcrkin.cli import _config_flags, _parser, main
from qpcrkin.kinetics import Kinetics, inverse_profile
from qpcrkin.simulate import (
    read_trajectory_csv,
    simulate_reaction,
    write_trajectory_csv,
)
from qpcrkin.limit_law import sample_limit, read_ensemble_csv
from qpcrkin.inference import read_report_json
from qpcrkin.experiments import ScenarioSpec, read_result_json

# the likelihood scan's refusal when the density cannot be certified
_CAP_ERROR = re.compile(r"error: density bound \S+ above tol=0\.0001 at the cap of "
                        r"65536 frequencies")


class TestSimulate:
    def test_matches_direct_call(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--v", "0.5", "--m", "12", "--z0", "2",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        traj = read_trajectory_csv(out)
        kin = Kinetics.from_exponent(0.5, 12)
        direct = simulate_reaction(kin, 2, 17, seed=9, replicate_id=0)
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
        # the README's simulate command, byte for byte: replicate 0 of
        # seed 1 is block 0 of the reaction streams drawn with one lane
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--v", "0.5", "--m", "30", "--z0", "5",
                     "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3631385c71e0d12866ea6e3d89259270bb445bbeb733a5de13135827a115929d")


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
        traj = simulate_reaction(kin, z0=3, n_cycles=34, seed=4)
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

    @pytest.mark.parametrize("header,named", [
        ("v=0.5 K=inf z0=1 seed=0 replicate=0", "scale K must be finite and positive"),
        ("v=0.5 K=1000 z0=1 seed=abc replicate=0", "metadata seed='abc'"),
    ], ids=["K-inf", "seed-abc"])
    def test_bad_trajectory_header_names_the_file(self, tmp_path, capsys, header, named):
        # K=inf used to load and end in "density never reached"
        traj = tmp_path / "traj.csv"
        traj.write_text(f"# {header}\ncycle,count,density\n0,1,0.001\n1,2,0.002\n")
        rc = main(["estimate", "--traj", str(traj), "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert f"error: {traj}: {named}" in captured.err

    def test_simulation_flags_refused_with_a_trajectory_file(self, tmp_path, capsys):
        # the trajectory comes from the file, so --m, --z0, --cycles and
        # --seed would be ignored: the error names each one given, on the
        # command line or in --config; --v and the scan flags still work
        traj_path = tmp_path / "traj.csv"
        assert main(["simulate", "--v", "0.5", "--m", "25", "--z0", "2",
                     "--seed", "3", "--out", str(traj_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cycles": 40}))
        out = tmp_path / "report.json"
        capsys.readouterr()
        rc = main(["estimate", "--traj", str(traj_path), "--config", str(cfg),
                   "--m", "25", "--seed", "3", "--out", str(out)])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert "--m, --cycles, --seed would be ignored" in err and "--z0" not in err
        rc = main(["estimate", "--traj", str(traj_path), "--z0", "1", "--out", str(out)])
        assert rc == 1 and "--z0 would be ignored" in capsys.readouterr().err
        assert main(["estimate", "--traj", str(traj_path), "--v", "0.5", "--rho", "0.04",
                     "--fit-v", "--z-max", "12", "--out", str(out)]) == 0
        report = read_report_json(out)
        assert report.settings["z_max"] == 12 and report.z_hat_mle is not None

    def test_fit_efficiency(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["estimate", "--v", "0.5", "--m", "25", "--z0", "2",
                   "--seed", "5", "--fit-v", "--no-mle", "--out", str(out)])
        assert rc == 0
        report = read_report_json(out)
        assert report.v_hat is not None
        assert abs(report.v_hat - 0.5) < 0.2
        assert report.settings["fit_efficiency"] is True

    def test_fit_above_full_efficiency_is_clipped(self, tmp_path):
        # at v = 1 about half the fits land above 1 (seed 1, the smallest
        # such seed: 1.00094): the fit is clipped to 1 and the exact
        # inversion recovers z0
        out = tmp_path / "report.json"
        assert main(["estimate", "--v", "1.0", "--m", "20", "--z0", "3",
                     "--seed", "1", "--fit-v", "--out", str(out)]) == 0
        report = read_report_json(out)
        assert report.v_hat == 1.0 and report.z_hat_mle == 3
        assert report.diagnostics["v_hat_clipped_from"] > 1.0

    def test_fit_just_below_full_efficiency_fails_at_the_cap(self, tmp_path, capsys):
        # the other half land just below 1, where the law of W(z) is a
        # peak too narrow for the density's frequency cap: seed 3 exits 1
        # with the typed precision error and writes no report.  This pins
        # a known defect (the likelihood lacks the observation's own
        # error); a mend turns it into a successful estimate
        out = tmp_path / "report.json"
        assert main(["estimate", "--v", "1.0", "--m", "20", "--z0", "3",
                     "--seed", "3", "--fit-v", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _CAP_ERROR.match(captured.err)
        assert not out.exists()

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

    @pytest.mark.parametrize("index", [46765, 197244])
    def test_benchmark_ops_past_the_short_horizon(self, tmp_path, capsys, index):
        # ops 46765 (--fit-v) and 197244 of the benchmark's estimate-scan
        # workload at seed 1103, whose argv draws the trajectory seed from
        # default_rng([1103, index]); both are z0=1 runs at v=0.5, m=30 that
        # have no crossing, or a single density, within m+5 cycles.  46765
        # is the first such fitted op; the first unfitted one, 73608,
        # crosses so late that its scan sums every frequency up to the cap
        # (test_late_crossing_is_estimated_at_the_cap)
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

    def test_late_crossing_is_estimated_at_the_cap(self, tmp_path, capsys):
        # op 73608 of the same workload: the longer horizon finds the
        # crossing at cycle 40, where t = 0.00115, far into the left tail
        # of W(z).  The density's second summation by parts certifies it
        # with every frequency up to the cap; with the first alone its
        # bound stayed above tol there
        seed = int(np.random.default_rng([1103, 73608]).integers(2 ** 31, size=2)[0])
        out = tmp_path / "report.json"
        assert main(["estimate", "--v", "0.5", "--m", "30", "--z0", "1",
                     "--seed", str(seed), "--z-max", "10", "--out", str(out)]) == 0
        assert "40 cycles" in capsys.readouterr().err
        report = read_report_json(out)
        assert report.z_hat_mle == 1
        assert report.z_hat_mle == int(np.argmax(report.diagnostics["mle_profile"])) + 1
        assert report.diagnostics["mle_points"] == 2 ** 16
        assert max(report.diagnostics["mle_bound"]) <= 1e-4

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
        # this run (seed 6, the smallest such seed) stays below rho = 0.9
        # through m+20 cycles
        out = tmp_path / "report.json"
        assert main(["estimate", "--v", "0.1", "--m", "100", "--z0", "1",
                     "--seed", "6", "--rho", "0.9", "--no-mle",
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

    def test_reference_count_has_no_effect(self, tmp_path, capsys):
        # runs are compared with the exact law: --ref-count is accepted
        # and named once on stderr as having no effect
        out = tmp_path / "res.json"
        rc = main(["experiment", "--kind", "convergence", "--m", "12",
                   "--replicates", "40", "--ref-count", "300", "--seed", "6",
                   "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        notice = [line for line in captured.err.splitlines() if "no effect" in line]
        assert len(notice) == 1 and "ref_count" in notice[0]
        assert "ref_count" not in read_result_json(out).spec

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

    @pytest.mark.parametrize("m_values", ["0,-3", ","])
    def test_coupling_rejects_a_bad_m_sweep(self, tmp_path, capsys, m_values):
        # an entry below 1, or no entry at all, is refused before any run
        out = tmp_path / "res.json"
        rc = main(["experiment", "--kind", "coupling", "--m-values", m_values,
                   "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert "m_values" in capsys.readouterr().err

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

    def test_defaults_are_the_scenario_defaults(self, tmp_path):
        out = str(tmp_path / "res.json")
        assert main(["experiment", "--kind", "coupling", "--out", out]) == 0
        spec = read_result_json(out).spec
        assert spec == ScenarioSpec(kind="coupling", out=out).to_json_dict()


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

    def test_curves_kind_rejected(self, tmp_path, capsys):
        # h-curves is the one route to the curve CSV; an experiment of
        # kind curves is refused before anything is written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "curves"}))
        out = tmp_path / "c.out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown kind 'curves'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [
        ("[1]", "config must be a JSON object"),
        ("{", "Expecting property name"),
    ], ids=["list", "not-json"])
    def test_config_refusal_names_the_file(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert f"error: {cfg}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,key", [
        ("simulate", {"seed": 1.5}, "seed"),
        ("experiment", {"kind": "estimation", "v": 1.0, "m": 12, "z0": 2.5,
                        "replicates": 50, "seed": 1}, "z0"),
        ("w-sample", {"count": 10.5}, "count"),
    ])
    def test_config_value_must_be_what_its_flag_parses(self, tmp_path, capsys, command,
                                                       doc, key):
        # each ran: the experiment drew from 2 molecules and reported 2.5,
        # the seed was truncated into the stream key and written as 1.5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: {key} must be an integer" in captured.err and captured.out == ""
        assert not out.exists()


def _flags():
    """(command, action) for every flag of every subcommand but --config and -h."""
    commands = {name: _parser().parse_args([name]).parser for name in
                ("simulate", "h-curves", "w-sample", "estimate", "experiment")}
    return [pytest.param(name, action, id=f"{name}-{action.dest}")
            for name, sub in commands.items() for action in sub._actions
            if action.option_strings and action.dest not in ("help", "config")]


class TestConfigIsFlags:
    """A config entry {dest: value} is the flag it names, given that value."""

    @pytest.mark.parametrize("command,action", _flags())
    def test_config_parses_as_its_flag(self, tmp_path, command, action):
        # a valued flag takes a JSON value of its own type (a list flag its
        # comma string); a switch takes true or false, and the bool that
        # is not its const is the same as leaving it out
        flag = action.option_strings[0]
        if action.nargs == 0:
            cases = [(action.const, [flag]), (not action.const, [])]
        elif action.type in (int, float):
            value = 3 if action.type is int else 0.25
            cases = [(value, [flag, str(value)])]
        else:
            cases = [("2,3", [flag, "2,3"])]
        cfg = tmp_path / "cfg.json"
        for value, argv in cases + [(None, [])]:
            cfg.write_text(json.dumps({action.dest: value}))
            via_config = _parser().parse_args([command, *_config_flags(
                _parser().parse_args([command]).parser, cfg)])
            assert vars(via_config) == vars(_parser().parse_args([command, *argv]))

    @pytest.mark.parametrize("command,doc,message", [
        pytest.param("simulate", {"seed": True}, "seed must be an integer, got true",
                     id="int-bool"),
        pytest.param("simulate", {"m": "10"}, 'm must be an integer, got "10"', id="int-string"),
        pytest.param("simulate", {"cycles": 40.5}, "cycles must be an integer, got 40.5",
                     id="int-float"),
        pytest.param("w-sample", {"z0": 2.5}, "z0 must be an integer, got 2.5", id="int-z0"),
        pytest.param("simulate", {"v": True}, "v must be a number, got true", id="float-bool"),
        pytest.param("simulate", {"v": "0.5"}, 'v must be a number, got "0.5"',
                     id="float-string"),
        pytest.param("h-curves", {"x_step": False}, "x_step must be a number, got false",
                     id="float-false"),
        pytest.param("estimate", {"fit_v": "no", "v": 0.5, "m": 30},
                     'fit_v must be true or false, got "no"', id="switch-string"),
        pytest.param("estimate", {"run_mle": 0, "v": 0.5, "m": 30},
                     "run_mle must be true or false, got 0", id="switch-number"),
        pytest.param("experiment", {"kind": "estimation", "fit_v": "no", "v": 0.5, "m": 12,
                                    "replicates": 20},
                     'fit_v must be true or false, got "no"', id="experiment-switch-string"),
        pytest.param("experiment", {"kind": "coupling", "m_values": [8, 10]},
                     "m_values must be a string, got [8, 10]", id="list-array"),
        pytest.param("h-curves", {"v_list": [0.5, 1.0]},
                     "v_list must be a string, got [0.5, 1.0]", id="float-list-array"),
        pytest.param("estimate", {"traj": 1, "v": 0.5}, "traj must be a string, got 1",
                     id="string-number"),
    ])
    def test_wrongly_typed_value_named_with_its_file(self, tmp_path, capsys, command, doc,
                                                      message):
        # each used to run, or died in a TypeError naming no key: v = true
        # simulated at v = 1, fit_v = "no" fitted the efficiency
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} (in {cfg})\n"
        assert not out.exists()


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
