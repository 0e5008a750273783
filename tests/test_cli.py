"""Command line behaviors: gen, synth, run, verify."""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_continuous_are

import attiq
from attiq.cli import CliError, _parse_filters, main
from attiq.dataset import read_dataset, sidecar_path, write_dataset
from attiq.sdp import SdpError
from attiq.sim import NoiseParams, ScenarioConfig, simulate_scenario
from attiq.synthesis import (
    default_design_noise,
    load_gains,
    save_gains,
    synthesize_schedule,
)
from quat_reference import euler_of_quat

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def gains_path(tmp_path_factory):
    schedule = synthesize_schedule(default_design_noise(150.0))
    path = tmp_path_factory.mktemp("gains") / "gains.json"
    save_gains(schedule, path)
    return path


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def gen(workdir, *extra):
    out = workdir / f"ds_{len(list(workdir.iterdir()))}.csv"
    code = main(["gen", "--out", str(out), *extra])
    assert code == 0
    return out


class TestGen:
    def test_same_seed_same_bytes(self, workdir):
        a = gen(workdir, "--case", "I", "--seed", "7", "--duration", "2")
        b = gen(workdir, "--case", "I", "--seed", "7", "--duration", "2")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, workdir):
        a = gen(workdir, "--case", "I", "--seed", "7", "--duration", "2")
        b = gen(workdir, "--case", "I", "--seed", "8", "--duration", "2")
        assert a.read_bytes() != b.read_bytes()

    def test_case3_true_pitch_exceeds_90deg(self, workdir):
        path = gen(workdir, "--case", "III", "--seed", "1")
        ds = read_dataset(path)
        # Z-Y-X extraction folds pitch into [-90, 90]: past vertical, a pure
        # pitch sweep reads as (roll+-180, 180-pitch, yaw+-180). The flipped
        # roll marks the folded samples; un-mirror those to recover the
        # continuous pitch
        eul = np.array([euler_of_quat(q) for q in ds.q_true])
        folded = np.cos(eul[:, 0]) < 0.0
        true_pitch = np.where(folded, np.pi - eul[:, 1], eul[:, 1])
        assert folded.any()
        assert np.degrees(true_pitch.max()) > 90.0

    def test_rate_zero_rejected(self, workdir, capsys):
        code = main(["gen", "--case", "I", "--rate", "0", "--out", "x.csv"])
        assert code == 2
        assert "sample_rate must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("duration, rows", [("0.001", 0), ("0.007", 1)])
    def test_fewer_than_two_samples_refused(self, workdir, capsys, duration, rows):
        # run refuses such a dataset whatever it holds, so gen writes none
        code = main(["gen", "--case", "I", "--duration", duration, "--out", "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"gives {rows} sample(s); a dataset needs at least 2" in err
        assert list(workdir.iterdir()) == []

    def test_prints_rows_and_hash(self, workdir, capsys):
        gen(workdir, "--case", "II", "--seed", "1", "--duration", "1")
        out = capsys.readouterr().out
        assert "(150 rows)" in out
        assert "sha256" in out

    @pytest.mark.parametrize("rate", [None, 300.0])
    def test_scenario_independent_of_working_directory(self, workdir, monkeypatch, rate):
        # Case II: a seed other than 1 once came from the working directory
        args = ["gen", "--case", "II", "--duration", "1"]
        if rate is not None:
            args += ["--rate", str(rate)]
        monkeypatch.chdir(REPO_ROOT)
        assert main([*args, "--out", str(workdir / "root.csv")]) == 0
        monkeypatch.chdir(workdir)
        assert main([*args, "--out", "tmp.csv"]) == 0
        assert (workdir / "root.csv").read_bytes() == (workdir / "tmp.csv").read_bytes()
        config = read_dataset(workdir / "tmp.csv").config
        assert config.seed == 1
        # the rate-dependent noise follows the rate
        assert config.noise == NoiseParams.mpu9250(rate or 150.0)


class TestSynth:
    def test_writes_loadable_schedule(self, workdir, capsys):
        code = main(["synth", "--out", "g.json"])
        assert code == 0
        schedule = load_gains(workdir / "g.json")
        assert schedule.gains.shape == (8, 6, 6)
        out = capsys.readouterr().out
        # one residual line per octant, all cross-checks tight
        resids = [
            float(line.split()[-1])
            for line in out.splitlines()
            if line and line.split()[0].isdigit()
        ]
        assert len(resids) == 8
        assert max(resids) < 1e-3

    def test_solves_each_riccati_problem_once(self, workdir, monkeypatch):
        # the eight octants name four center attitudes, one Riccati problem each
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_continuous_are(*args)

        monkeypatch.setattr(scipy.linalg, "solve_continuous_are", counted)
        assert main(["synth", "--out", "g.json"]) == 0
        assert len(calls) == 4

    def test_rerun_byte_identical(self, workdir):
        assert main(["synth", "--out", "a.json"]) == 0
        assert main(["synth", "--out", "b.json"]) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_parallel_references_rejected(self, workdir, capsys):
        (workdir / "noise.json").write_text('{"h": [0.0, 0.0, 50.0]}')
        code = main(["synth", "--config", "noise.json", "--out", "g.json"])
        assert code == 2
        assert "parallel" in capsys.readouterr().err

    def test_config_unknown_key_rejected(self, workdir, capsys):
        (workdir / "noise.json").write_text('{"sigma": 1.0}')
        code = main(["synth", "--config", "noise.json", "--out", "g.json"])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    def test_retuned_bias_noise_synthesizes(self, workdir, capsys):
        # twice the default n_b; the log-barrier LMI solver once stalled on it
        (workdir / "noise.json").write_text('{"n_b": 0.1}')
        assert main(["synth", "--config", "noise.json", "--out", "g.json"]) == 0
        assert load_gains(workdir / "g.json").noise.n_b == 0.1
        resids = [
            float(line.split()[-1])
            for line in capsys.readouterr().out.splitlines()
            if line and line.split()[0].isdigit()
        ]
        assert len(resids) == 8 and max(resids) < 1e-3

    def test_lmi_route_failure_refused(self, workdir, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise SdpError("no convergence")

        monkeypatch.setattr("attiq.sdp.solve_sdp", stalled)
        code = main(["synth", "--out", "g.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "LMI route" in err
        assert not (workdir / "g.json").exists()

    @pytest.mark.parametrize("config", ['{"g": 5}', '{"h": [1, 2]}'])
    def test_config_malformed_reference_vector_named(self, workdir, capsys, config):
        (workdir / "noise.json").write_text(config)
        code = main(["synth", "--config", "noise.json", "--out", "g.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "noise.json: " in err
        assert "must be a list of 3 numbers" in err
        assert not (workdir / "g.json").exists()


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory, gains_path):
    """One benchmark run shared by the inspection tests below."""
    work = tmp_path_factory.mktemp("run")
    dataset = work / "c2.csv"
    assert (
        main(
            ["gen", "--case", "II", "--seed", "1", "--duration", "3",
             "--out", str(dataset)]
        )
        == 0
    )
    out_dir = work / "out"
    code = main(
        ["run", "--dataset", str(dataset), "--gains", str(gains_path),
         "--reps", "2", "--out", str(out_dir)]
    )
    assert code == 0
    return dataset, out_dir


class TestRun:
    def test_report_validates_and_traces_exist(self, run_artifacts):
        dataset, out_dir = run_artifacts
        report = json.loads((out_dir / "report.json").read_text())
        res = importlib.resources.files("attiq") / "schemas" / "report.schema.json"
        jsonschema.validate(report, json.loads(res.read_text()))
        assert report["repetitions"] == 2
        assert {f["method"] for f in report["filters"]} == {"extended_h2", "ekf"}
        n = report["n_samples"]
        for name in ("trace_extended_h2.csv", "trace_ekf.csv"):
            assert len((out_dir / name).read_text().splitlines()) == n + 1

    def test_estimates_deterministic_across_reps(self, run_artifacts, gains_path):
        dataset, out_dir = run_artifacts
        from attiq.filters import run_filter

        ds = read_dataset(dataset)
        schedule = load_gains(gains_path)
        a = run_filter(ds, "h2", schedule=schedule)
        b = run_filter(ds, "h2", schedule=schedule)
        assert np.array_equal(a.q_est, b.q_est)

    def test_ekf_only_omits_h2(self, workdir, gains_path):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "2")
        code = main(
            ["run", "--dataset", str(dataset), "--filters", "ekf", "--out", "solo"]
        )
        assert code == 0
        report = json.loads((workdir / "solo" / "report.json").read_text())
        assert [f["method"] for f in report["filters"]] == ["ekf"]
        assert report["timing_ratio_h2_over_ekf"] is None
        assert not (workdir / "solo" / "trace_extended_h2.csv").exists()
        # without --gains the EKF is tuned with the default schedule's design noise
        code = main(
            ["run", "--dataset", str(dataset), "--filters", "ekf", "--gains",
             str(gains_path), "--out", "tuned"]
        )
        assert code == 0
        tuned = json.loads((workdir / "tuned" / "report.json").read_text())

        def accuracy(entry):
            return {k: v for k, v in entry.items() if not k.endswith("_step_ns")}

        assert accuracy(report["filters"][0]) == accuracy(tuned["filters"][0])

    def test_h2_alias_accepted(self, workdir, gains_path):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "2")
        code = main(
            ["run", "--dataset", str(dataset), "--filters", "h2", "--gains",
             str(gains_path), "--out", "alias"]
        )
        assert code == 0
        report = json.loads((workdir / "alias" / "report.json").read_text())
        assert [f["method"] for f in report["filters"]] == ["extended_h2"]

    def test_missing_dataset_fails(self, workdir, gains_path, capsys):
        code = main(["run", "--dataset", "nope.csv", "--gains", str(gains_path)])
        assert code == 2
        assert "dataset not found" in capsys.readouterr().err

    def test_h2_requires_gains(self, workdir, capsys):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        code = main(["run", "--dataset", str(dataset)])
        assert code == 2
        assert "--gains is required" in capsys.readouterr().err

    def test_corrupt_gain_file_schema_error(self, workdir, capsys):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        bad = workdir / "bad.json"
        bad.write_text('{"format_version": 99}')
        code = main(["run", "--dataset", str(dataset), "--gains", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err
        assert "format_version" in err

    def test_sidecar_missing_noise_key_is_format_error(self, workdir, gains_path, capsys):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        side = json.loads(sidecar_path(dataset).read_text())
        del side["noise"]["n_w"]
        sidecar_path(dataset).write_text(json.dumps(side))
        code = main(["run", "--dataset", str(dataset), "--gains", str(gains_path)])
        assert code == 2
        assert f"{sidecar_path(dataset)}: missing noise keys: n_w" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["sidecar", "gains"])
    def test_scalar_reference_vector_is_format_error(self, workdir, gains_path, capsys, target):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        gains = workdir / "gains.json"
        gains.write_bytes(gains_path.read_bytes())
        path = sidecar_path(dataset) if target == "sidecar" else gains
        data = json.loads(path.read_text())
        data["g"] = 5
        path.write_text(json.dumps(data))
        code = main(["run", "--dataset", str(dataset), "--gains", str(gains)])
        assert code == 2
        assert f"{path}: g must be a list of 3 numbers" in capsys.readouterr().err

    def test_gain_file_unknown_noise_key_rejected(self, workdir, gains_path, capsys):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        data = json.loads(gains_path.read_text())
        data["noise"]["sigma"] = 1
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--dataset", str(dataset), "--gains", str(bad)])
        assert code == 2
        assert f"{bad}: unknown noise keys: sigma" in capsys.readouterr().err

    def test_unknown_filter_named(self, workdir, gains_path, capsys):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        code = main(
            ["run", "--dataset", str(dataset), "--gains", str(gains_path),
             "--filters", "ukf"]
        )
        assert code == 2
        assert "ukf" in capsys.readouterr().err

    def test_one_sample_dataset_refused(self, workdir, gains_path, capsys):
        # one row at 150 Hz: the filters initialize and take no timed step.
        # gen refuses to write it, so the file comes from write_dataset
        config = ScenarioConfig.for_case("I", seed=1, duration=0.007)
        dataset = write_dataset(simulate_scenario(config), workdir / "one.csv")
        assert len(read_dataset(dataset).t) == 1
        code = main(["run", "--dataset", str(dataset), "--gains", str(gains_path), "--out", "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no filter step to time" in err
        assert not (workdir / "out" / "report.json").exists()

    def test_reps_validated(self, workdir, gains_path, capsys):
        dataset = gen(workdir, "--case", "I", "--seed", "2", "--duration", "1")
        code = main(
            ["run", "--dataset", str(dataset), "--gains", str(gains_path),
             "--reps", "0"]
        )
        assert code == 2
        assert "--reps" in capsys.readouterr().err


class TestParseFilters:
    @pytest.mark.parametrize(
        "arg,expected",
        [
            ("extended_h2,ekf", ["h2", "ekf"]),
            ("h2", ["h2"]),
            ("ekf", ["ekf"]),
            ("ekf,ekf", ["ekf"]),
            ("ekf, extended_h2", ["ekf", "h2"]),
        ],
    )
    def test_accepted(self, arg, expected):
        assert _parse_filters(arg) == expected

    @pytest.mark.parametrize("arg", ["", ",", "ukf", "h2;ekf"])
    def test_rejected(self, arg):
        with pytest.raises(CliError):
            _parse_filters(arg)


class TestVerify:
    def test_case_filter_selects_criteria(self, workdir, capsys):
        code = main(["verify", "--case", "III"])
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion 1 [PASS]" in out
        assert "criterion 6 [PASS]" in out
        assert "criterion 2" not in out

    def test_unknown_case_rejected(self, workdir, capsys):
        code = main(["verify", "--case", "V"])
        assert code == 2
        assert "unknown case" in capsys.readouterr().err


# gen, dataset and gain-file reads and run need numpy only; synth loads scipy
COLD_START_SCRIPT = """
import sys

from attiq.cli import main
from attiq.dataset import read_dataset
from attiq.synthesis import load_gains

gains = sys.argv[1]
assert main(["gen", "--case", "III", "--seed", "1", "--duration", "1", "--out", "d.csv"]) == 0
read_dataset("d.csv")
load_gains(gains)
assert main(["run", "--dataset", "d.csv", "--gains", gains, "--out", "run"]) == 0
assert "scipy" not in sys.modules
assert main(["synth", "--out", "g.json"]) == 0
assert "scipy.linalg" in sys.modules
"""


class TestColdStart:
    def test_only_synthesis_loads_scipy(self, workdir, gains_path):
        # a fresh interpreter: this one has loaded scipy already
        src = str(Path(attiq.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, str(gains_path)],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "g.json").exists()
