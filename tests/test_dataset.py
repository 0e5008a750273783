import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attiq import dataset as dataset_module
from attiq.dataset import (
    CHUNK_ROWS,
    COLUMNS,
    DatasetFormatError,
    config_from_dict,
    config_to_dict,
    read_dataset,
    sidecar_path,
    write_csv,
    write_dataset,
)
from attiq.report import TRACE_COLUMNS
from attiq.sim import Dataset, NoiseParams, ScenarioConfig, simulate_scenario

DATASET_FORMATS = ("%.17g",) * len(COLUMNS)
TRACE_FORMATS = ("%.17g",) * (len(TRACE_COLUMNS) - 1) + ("%d",)
ROW_COUNTS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1]


@pytest.fixture(scope="module")
def small_dataset():
    cfg = ScenarioConfig.for_case("II", seed=42, duration=1.0)
    return simulate_scenario(cfg)


@pytest.fixture(scope="module")
def case_iv_dataset():
    """The default Case IV flight, seed 1: 9000 rows."""
    return simulate_scenario(ScenarioConfig.for_case("IV", seed=1))


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

    def test_bytes_match_row_by_row_rendering(self, small_dataset, case_iv_dataset, tmp_path):
        for ds in (small_dataset, case_iv_dataset):
            path = write_dataset(ds, tmp_path / "rows.csv")
            table = np.column_stack([ds.t, ds.w_m, ds.a_m, ds.m_m, ds.q_true, ds.b_true])
            rows = [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
            expected = "\n".join([",".join(COLUMNS), *rows]) + "\n"
            assert path.read_bytes() == expected.encode(), ds.config

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

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda side: side["noise"].pop("n_w"), "missing noise keys: n_w"),
            (lambda side: side.update(g=5), "g must be a list of 3 numbers"),
            (lambda side: side.update(extra_knob=1), "unknown config keys: extra_knob"),
        ],
        ids=["noise_key", "scalar_g", "unknown_key"],
    )
    def test_sidecar_format_error_names_file(self, small_dataset, tmp_path, mutate, message):
        path = write_small(small_dataset, tmp_path)
        side = json.loads(sidecar_path(path).read_text())
        mutate(side)
        sidecar_path(path).write_text(json.dumps(side))
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert str(info.value).startswith(f"{sidecar_path(path)}: {message}")

    def test_sidecar_not_an_object(self, small_dataset, tmp_path):
        path = write_small(small_dataset, tmp_path)
        sidecar_path(path).write_text("[1, 2]")
        with pytest.raises(DatasetFormatError, match="config must be a JSON object"):
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


def special_table(n_rows: int, n_cols: int, integer_last: bool) -> np.ndarray:
    """Values over the whole double range with nan, inf and -0.0 spread through."""
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    if table.size:
        cells = rng.choice(table.size, size=min(table.size, 4 * len(SPECIAL_VALUES)), replace=False)
        table.flat[cells] = np.resize(SPECIAL_VALUES, len(cells))
    if integer_last:
        table[:, -1] = rng.integers(0, 10**12, n_rows)
    return table


def savetxt_bytes(columns, table, formats) -> bytes:
    """The reference writer: np.savetxt with the same formats and header."""
    out = io.BytesIO()
    np.savetxt(out, table, fmt=list(formats), delimiter=",", header=",".join(columns), comments="")
    return out.getvalue()


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    @pytest.mark.parametrize(
        "columns, formats", [(COLUMNS, DATASET_FORMATS), (TRACE_COLUMNS, TRACE_FORMATS)],
        ids=["dataset", "trace"],
    )
    def test_bytes_match_savetxt(self, tmp_path, n_rows, columns, formats):
        table = special_table(n_rows, len(columns), integer_last=formats[-1] == "%d")
        path = write_csv(tmp_path / "t.csv", columns, table)
        assert path.read_bytes() == savetxt_bytes(columns, table, formats)

    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_dataset_round_trips_bit_for_bit(self, tmp_path, n_rows):
        table = special_table(n_rows, len(COLUMNS), integer_last=False)
        config = ScenarioConfig.for_case("I", seed=1, sample_rate=1.0, duration=n_rows or 0.25)
        ds = Dataset(
            config=config,
            t=table[:, 0],
            w_m=table[:, 1:4],
            a_m=table[:, 4:7],
            m_m=table[:, 7:10],
            q_true=table[:, 10:14],
            b_true=table[:, 14:17],
        )
        path = write_dataset(ds, tmp_path / "special.csv")
        assert path.read_bytes() == savetxt_bytes(COLUMNS, table, DATASET_FORMATS)
        loaded = read_dataset(path)
        for name in ("t", "w_m", "a_m", "m_m", "q_true", "b_true"):
            written, read = getattr(ds, name), getattr(loaded, name)
            assert read.shape == written.shape
            assert np.array_equal(read.view(np.uint64), written.view(np.uint64)), name

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="columns"):
            write_csv(tmp_path / "t.csv", COLUMNS, np.zeros((3, 5)))
        with pytest.raises(ValueError, match="columns"):
            write_csv(tmp_path / "t.csv", COLUMNS, np.zeros(17))


def written_fields(directory, values) -> list[str]:
    """write_csv's fields for values, one per line of a one-column file."""
    table = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    path = write_csv(directory / "fields.csv", ("x",), table)
    return path.read_text().splitlines()[1:]


def floats_of_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def product_fraction(value: float) -> Fraction:
    """The fraction of |value| 10^(16 - e), e the exact decimal exponent of value."""
    exact = abs(Fraction(value))
    e = math.floor(math.log10(exact))
    e += (Fraction(10) ** (e + 1) <= exact) - (Fraction(10) ** e > exact)
    product = exact * Fraction(10) ** (16 - e)
    return product - math.floor(product)


def near_tie(e: int, offset: Fraction) -> float:
    """A double in [10^e, 10^(e+1)) whose product fraction is exactly 1/2 + offset.

    In the binade [2^b, 2^(b+1)) a double is m 2^(b-52), so its product is
    m 5^k 2^(k+b-52) with k = 16 - e: a multiple of 2^-s, s = 52 - b - k. The
    fraction is (m 5^k mod 2^s) / 2^s, and 5^k is invertible mod 2^s.
    """
    b = math.ceil(e * math.log2(10))
    k, s = 16 - e, 52 - b - (16 - e)
    target = Fraction(1, 2) + offset
    assert 0 < s <= 52 and (target * 2**s).denominator == 1
    residue = int(target * 2**s) * pow(5**k, -1, 2**s) % 2**s
    m = 2**52 + (residue - 2**52) % 2**s
    return math.ldexp(m, b - 52)


def record_fallback(monkeypatch) -> list[float]:
    """The values write_csv hands to its '%.17g' fallback from now on."""
    fallen = []
    fallback = dataset_module._fallback_fields

    def recording(values):
        fallen.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(dataset_module, "_fallback_fields", recording)
    return fallen


MARGIN = Fraction(dataset_module._TIE_MARGIN)
NEAR_TIES = [
    (Fraction(0), True),
    (MARGIN / 2, True),
    (-MARGIN / 2, True),
    (MARGIN - Fraction(1, 2**47), True),
    (-MARGIN + Fraction(1, 2**47), True),
    (MARGIN + Fraction(1, 2**47), False),
    (-MARGIN - Fraction(1, 2**47), False),
    (2 * MARGIN, False),
]
# every decimal exponent from beyond one end of the kernel's table to beyond the other
EXPONENTS = range(dataset_module._E_MIN - 2, dataset_module._E_MAX + 3)


class TestPercentG:
    """write_csv's fields against Python's '%.17g', value by value."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1).map(lambda bits: float(floats_of_bits([bits])[0])),
                st.floats(min_value=-1e42, max_value=1e42),
                st.floats(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_any_double_prints_as_percent_g(self, tmp_path_factory, values):
        directory = tmp_path_factory.mktemp("percent_g", numbered=True)
        assert written_fields(directory, values) == ["%.17g" % v for v in values]

    def test_specials(self, tmp_path):
        values = [
            np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
            1.7976931348623157e308, -1.7976931348623157e308, 2.0**53, 2.0**53 + 2,
        ]
        values += list(floats_of_bits([0x7FF8000000000001, 0xFFF0000000000001]))
        assert written_fields(tmp_path, values) == ["%.17g" % v for v in values]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_neighbours(self, tmp_path, sign):
        values = []
        for p in EXPONENTS:
            power = float(f"1e{p}")
            values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
            values += [5 * power, 9.999999999999999 * power]
        values = [sign * v for v in values]
        assert written_fields(tmp_path, values) == ["%.17g" % v for v in values]

    def test_carry_into_the_next_decade(self, tmp_path):
        # the double nearest 1e-14 lies 1.2e-18 relative below it, so its
        # 17-digit rounding is 9.99...9|7 rounded up: it prints as the power
        assert Fraction(1e-14) < Fraction(1, 10**14)
        values = [1e-14, -1e-14, np.nextafter(1e-14, 0.0)]
        assert written_fields(tmp_path, values) == ["1e-14", "-1e-14", "%.17g" % values[2]]

    @pytest.mark.parametrize("e", [-7, -6, -5])
    def test_near_ties(self, tmp_path, monkeypatch, e):
        # within the tie margin of 1/2 the fallback decides; outside it the kernel does
        fallen = record_fallback(monkeypatch)
        for offset, inside in NEAR_TIES:
            value = near_tie(e, offset)
            assert product_fraction(value) == Fraction(1, 2) + offset
            fallen.clear()
            assert written_fields(tmp_path, [value, -value]) == ["%.17g" % value, "%.17g" % -value]
            assert fallen == ([value, -value] if inside else []), offset

    @pytest.mark.parametrize("e", [-3, -1, 0, 2, 4])
    def test_exact_ties(self, tmp_path, monkeypatch, e):
        fallen = record_fallback(monkeypatch)
        value = near_tie(e, Fraction(0))
        assert written_fields(tmp_path, [value]) == ["%.17g" % value]
        assert fallen == [value]

    def test_table_limits(self, tmp_path, monkeypatch):
        fallen = record_fallback(monkeypatch)
        inside = [1.5 * 10.0**dataset_module._E_MIN, 9.5 * 10.0**dataset_module._E_MAX]
        outside = [9.5 * 10.0 ** (dataset_module._E_MIN - 1), 1.5 * 10.0 ** (dataset_module._E_MAX + 1)]
        values = inside + outside
        assert written_fields(tmp_path, values) == ["%.17g" % v for v in values]
        assert fallen == outside

    def test_default_dataset_takes_no_fallback(self, case_iv_dataset, tmp_path, monkeypatch):
        fallen = record_fallback(monkeypatch)
        write_dataset(case_iv_dataset, tmp_path / "iv.csv")
        assert fallen == []
