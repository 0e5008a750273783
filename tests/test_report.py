"""Report aggregation, JSON serialization, and trace files."""

import copy
import importlib.resources
import json
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from attiq import verify
from attiq.filters import attitude_errors, evaluate_run, run_filter
from attiq.report import (
    REPORT_SCHEMA_VERSION,
    TIMING_RATIO_THRESHOLD,
    TRACE_COLUMNS,
    build_report,
    format_report,
    save_report,
    write_trace,
)
from attiq.sim import ScenarioConfig, simulate_scenario
from attiq.synthesis import default_design_noise, synthesize_schedule


@pytest.fixture(scope="module")
def schedule():
    return synthesize_schedule(default_design_noise(150.0))


@pytest.fixture(scope="module")
def dataset():
    return simulate_scenario(ScenarioConfig.for_case("III", seed=1, duration=4.0))


@pytest.fixture(scope="module")
def runs(dataset, schedule):
    return {
        "h2": [run_filter(dataset, "h2", schedule=schedule) for _ in range(2)],
        "ekf": [run_filter(dataset, "ekf", noise_model=schedule.noise)],
    }


@pytest.fixture(scope="module")
def report(dataset, runs):
    return build_report(dataset, runs)


@pytest.fixture(scope="module")
def schema():
    res = importlib.resources.files("attiq") / "schemas" / "report.schema.json"
    return json.loads(res.read_text())


def entry(report, method):
    (found,) = [f for f in report["filters"] if f["method"] == method]
    return found


class TestSummarize:
    def test_accuracy_matches_evaluate_run(self, dataset, runs):
        summary = entry(build_report(dataset, {"h2": runs["h2"]}), "extended_h2")
        direct = evaluate_run(dataset, runs["h2"][0])
        assert np.allclose(summary["rms_axis_deg"], direct.rms_axis_deg)
        assert summary["rms_total_deg"] == pytest.approx(direct.rms_total_deg)
        assert summary["max_total_deg"] == pytest.approx(direct.max_total_deg)
        assert np.allclose(summary["rms_bias"], direct.rms_bias)
        assert summary["n_skipped"] == 0

    def test_timing_pooled_across_repetitions(self, dataset, runs):
        summary = entry(build_report(dataset, {"h2": runs["h2"]}), "extended_h2")
        pooled = np.concatenate([r.step_ns[1:] for r in runs["h2"]]).astype(float)
        assert summary["median_step_ns"] == pytest.approx(np.median(pooled))
        assert summary["mean_step_ns"] == pytest.approx(np.mean(pooled))
        assert summary["std_step_ns"] == pytest.approx(np.std(pooled))

    def test_empty_runs_rejected(self, dataset):
        with pytest.raises(ValueError, match="at least one run"):
            build_report(dataset, {"h2": []})


class TestBuildReport:
    def test_header_fields(self, dataset, report):
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["n_samples"] == len(dataset.t)
        assert report["repetitions"] == 2
        assert report["config"]["case"] == "III"
        assert [f["method"] for f in report["filters"]] == ["extended_h2", "ekf"]

    def test_timing_ratio_is_median_quotient(self, report):
        h2 = entry(report, "extended_h2")
        ekf = entry(report, "ekf")
        assert report["timing_ratio_h2_over_ekf"] == pytest.approx(
            h2["median_step_ns"] / ekf["median_step_ns"]
        )

    def test_single_filter_has_no_ratio(self, dataset, runs):
        solo = build_report(dataset, {"ekf": runs["ekf"]})
        assert solo["timing_ratio_h2_over_ekf"] is None
        assert [f["method"] for f in solo["filters"]] == ["ekf"]
        # without both filters there is no ratio check either
        assert all("ratio" not in c["name"] for c in solo["checks"])

    def test_case3_check_present_and_consistent(self, report):
        by_name = {c["name"]: c for c in report["checks"]}
        check = by_name["case_III_extended_h2_pitch_rms_deg"]
        assert check["measured"] == pytest.approx(entry(report, "extended_h2")["rms_axis_deg"][1])
        assert check["threshold"] == 0.5
        assert check["passed"] == (check["measured"] < check["threshold"])
        ratio_check = by_name["median_step_ratio_h2_over_ekf"]
        assert ratio_check["threshold"] == 0.75

    def test_case4_checks_cover_both_filters(self, schedule):
        ds = simulate_scenario(ScenarioConfig.for_case("IV", seed=1, duration=4.0))
        rep = build_report(
            ds,
            {
                "h2": [run_filter(ds, "h2", schedule=schedule)],
                "ekf": [run_filter(ds, "ekf", noise_model=schedule.noise)],
            },
        )
        names = {c["name"] for c in rep["checks"]}
        assert "case_IV_extended_h2_total_rms_deg" in names
        assert "case_IV_ekf_total_rms_deg" in names

    @pytest.mark.parametrize("extra_ns, passed", [(0, True), (1, False)])
    def test_ratio_gate_shared_with_criterion_3(self, dataset, runs, monkeypatch, extra_ns, passed):
        # at exactly the threshold both the report and criterion 3 pass
        n = len(dataset.t)
        step_ns = {
            "h2": np.full(n, TIMING_RATIO_THRESHOLD * 1000 + extra_ns),
            "ekf": np.full(n, 1000),
        }
        timed = {m: [replace(runs[m][0], step_ns=ns)] for m, ns in step_ns.items()}
        (check,) = [c for c in build_report(dataset, timed)["checks"] if "ratio" in c["name"]]
        assert check["measured"] == TIMING_RATIO_THRESHOLD + extra_ns / 1000
        assert check["passed"] is passed
        monkeypatch.setattr(verify, "simulate_scenario", lambda config: dataset)
        monkeypatch.setattr(verify, "run_filter", lambda ds, method, **kw: timed[method][0])
        assert verify.criterion_3_timing(None, None).passed is passed

    def test_rms_values_nonnegative(self, report):
        for f in report["filters"]:
            assert np.all(np.array(f["rms_axis_deg"]) >= 0.0)
            assert f["rms_total_deg"] >= 0.0
            assert f["max_total_deg"] >= f["rms_total_deg"]


class TestSerialization:
    def test_dict_validates_against_schema(self, report, schema):
        jsonschema.validate(report, schema)

    def test_single_filter_report_validates(self, dataset, runs, schema):
        solo = build_report(dataset, {"ekf": runs["ekf"]})
        jsonschema.validate(solo, schema)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d.update(schema_version=2),
            lambda d: d["filters"][0].update(method="h2"),
            lambda d: d["filters"][0].pop("rms_total_deg"),
        ],
    )
    def test_schema_rejects_malformed(self, report, schema, mutate):
        data = copy.deepcopy(report)
        mutate(data)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, schema)

    def test_save_is_deterministic(self, report, tmp_path):
        a = save_report(report, tmp_path / "a.json")
        b = save_report(report, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text()) == report

    def test_saved_report_formats_like_the_built_one(self, report, tmp_path):
        saved = json.loads(save_report(report, tmp_path / "r.json").read_text())
        assert format_report(saved) == format_report(report)


class TestFormat:
    def test_table_layout(self, report):
        text = format_report(report)
        lines = text.splitlines()
        assert "case III" in lines[0] and "repetitions 2" in lines[0]
        assert any(ln.startswith("extended_h2") for ln in lines)
        assert any(ln.startswith("ekf") for ln in lines)
        assert any("median step ratio extended_h2/ekf" in ln for ln in lines)
        assert any(ln.startswith(("[pass]", "[FAIL]")) for ln in lines)

    def test_failed_check_is_flagged(self, report):
        bad = dict(
            report,
            repetitions=1,
            filters=report["filters"][:1],
            checks=[
                {"name": "case_III_extended_h2_pitch_rms_deg", "measured": 2.0,
                 "threshold": 0.5, "passed": False}
            ],
            timing_ratio_h2_over_ekf=None,
        )
        assert "[FAIL] case_III_extended_h2_pitch_rms_deg" in format_report(bad)


class TestTrace:
    def test_columns_and_values(self, dataset, runs, tmp_path):
        run = runs["h2"][0]
        path = write_trace(dataset, run, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        assert tuple(lines[0].split(",")) == TRACE_COLUMNS
        assert len(lines) - 1 == len(dataset.t)
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [str(v) for v in run.step_ns]

        table = np.genfromtxt(path, delimiter=",", names=True)
        comps, totals = attitude_errors(run.q_est, dataset.q_true)
        assert np.allclose(table["t"], dataset.t)
        assert np.allclose(table["err_pitch_deg"], np.degrees(comps[:, 1]))
        assert np.allclose(table["err_total_deg"], np.degrees(totals))
        assert np.allclose(table["bias_err_x"], run.b_est[:, 0] - dataset.b_true[:, 0])
        assert np.array_equal(table["step_time_ns"].astype(np.int64), run.step_ns)
        assert np.all(table["err_total_deg"] >= 0.0)
