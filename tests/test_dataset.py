import json

import numpy as np
import pytest

from attiq.dataset import (
    COLUMNS,
    DatasetFormatError,
    config_from_dict,
    config_to_dict,
    read_dataset,
    sidecar_path,
    write_dataset,
)
from attiq.sim import NoiseParams, ScenarioConfig, simulate_scenario


@pytest.fixture(scope="module")
def small_dataset():
    cfg = ScenarioConfig.for_case("II", seed=42, duration=1.0)
    return simulate_scenario(cfg)


def write_small(small_dataset, tmp_path):
    return write_dataset(small_dataset, tmp_path / "case2.csv")


class TestWrite:
    def test_header_line(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        first = path.read_text().splitlines()[0]
        assert first == (
            "t,wx_m,wy_m,wz_m,ax_m,ay_m,az_m,mx_m,my_m,mz_m,"
            "q1_true,q2_true,q3_true,q4_true,bx_true,by_true,bz_true"
        )

    def test_row_count(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + small_dataset.config.n_samples

    def test_sidecar_written_alongside(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        side = sidecar_path(path)
        assert side == tmp_path / "case2.json"
        data = json.loads(side.read_text())
        assert data["case"] == "II"
        assert data["seed"] == 42


class TestRoundTrip:
    def test_bit_for_bit(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded.t, small_dataset.t)
        np.testing.assert_array_equal(loaded.w_m, small_dataset.w_m)
        np.testing.assert_array_equal(loaded.a_m, small_dataset.a_m)
        np.testing.assert_array_equal(loaded.m_m, small_dataset.m_m)
        np.testing.assert_array_equal(loaded.q_true, small_dataset.q_true)
        np.testing.assert_array_equal(loaded.b_true, small_dataset.b_true)

    def test_config_round_trip(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        loaded = read_dataset(path)
        assert loaded.config == small_dataset.config

    def test_loaded_truth_has_no_rates(self, small_dataset, tmp_path):
        loaded = read_dataset(write_small(small_dataset, tmp_path))
        assert loaded.w_true is None

    def test_bytes_match_row_by_row_rendering(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        ds = small_dataset
        table = np.column_stack([ds.t, ds.w_m, ds.a_m, ds.m_m, ds.q_true, ds.b_true])
        rows = [",".join(format(v, ".17g") for v in row) for row in table]
        expected = "\n".join([",".join(COLUMNS), *rows]) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_non_finite_values_round_trip(self, small_dataset, tmp_path):
        ds = simulate_scenario(small_dataset.config)
        ds.a_m[3] = np.nan
        ds.m_m[7, 1] = np.nan
        ds.w_m[9, 2] = -np.inf
        loaded = read_dataset(write_dataset(ds, tmp_path / "holes.csv"))
        for name in ("t", "w_m", "a_m", "m_m", "q_true", "b_true"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(ds, name))
        assert np.array_equal(np.isnan(loaded.a_m), np.isnan(ds.a_m))
        assert np.isnan(loaded.a_m).sum() == 3 and np.isnan(loaded.m_m).sum() == 1

    def test_rewrite_is_byte_identical(self, small_dataset, tmp_path):
        p1 = write_dataset(small_dataset, tmp_path / "a.csv")
        loaded = read_dataset(p1)
        p2 = write_dataset(loaded, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()


class TestReadErrors:
    def test_missing_sidecar(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        sidecar_path(path).unlink()
        with pytest.raises(DatasetFormatError, match="sidecar"):
            read_dataset(path)

    def test_malformed_header(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("wx_m", "gyro_x")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="header"):
            read_dataset(path)

    def test_short_row_names_row_number(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        lines = path.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:-2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="row 6"):
            read_dataset(path)

    def test_non_numeric_field_names_row_number(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[4] = "bogus"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="row 4"):
            read_dataset(path)

    def test_row_count_mismatch_against_config(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(DatasetFormatError, match="row count"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            read_dataset(path)

    def test_invalid_sidecar_json(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        sidecar_path(path).write_text("{not json")
        with pytest.raises(DatasetFormatError, match="JSON"):
            read_dataset(path)


class TestConfigDict:
    def test_unknown_key_named(self):
        data = config_to_dict(ScenarioConfig.for_case("I", seed=1))
        data["extra_knob"] = 1
        with pytest.raises(DatasetFormatError, match="extra_knob"):
            config_from_dict(data)

    def test_missing_key_named(self):
        data = config_to_dict(ScenarioConfig.for_case("I", seed=1))
        del data["sample_rate"]
        with pytest.raises(DatasetFormatError, match="sample_rate"):
            config_from_dict(data)

    def test_unknown_noise_key_named(self):
        data = config_to_dict(ScenarioConfig.for_case("I", seed=1))
        data["noise"]["n_q"] = 0.1
        with pytest.raises(DatasetFormatError, match="n_q"):
            config_from_dict(data)

    def test_round_trip_custom_values(self):
        cfg = ScenarioConfig.for_case(
            "III",
            seed=5,
            duration=12.5,
            sample_rate=200.0,
            angular_rate=0.3,
            noise=NoiseParams(n_w=1e-3, n_b=2e-4, n_a=0.02, n_m=0.7, b0=(0.1, 0.0, -0.1)),
            g=(0.0, 0.0, 9.80665),
            h=(20.0, 0.0, 45.0),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_column_order_is_fixed(self):
        assert COLUMNS[0] == "t"
        assert COLUMNS[10:14] == ("q1_true", "q2_true", "q3_true", "q4_true")
        assert len(COLUMNS) == 17
