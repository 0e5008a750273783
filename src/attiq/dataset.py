"""Dataset persistence: measurement/truth CSV plus a JSON config sidecar.

The CSV column layout is fixed; values are written with 17 significant
digits so numeric fields survive a write/read round trip bit-for-bit. The
sidecar (same path with a .json suffix) carries the generating
ScenarioConfig, including the seed. Truth angular rates are not stored, so a
loaded Dataset has w_true None.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .sim import Dataset, NoiseParams, ScenarioConfig

COLUMNS = (
    "t",
    "wx_m",
    "wy_m",
    "wz_m",
    "ax_m",
    "ay_m",
    "az_m",
    "mx_m",
    "my_m",
    "mz_m",
    "q1_true",
    "q2_true",
    "q3_true",
    "q4_true",
    "bx_true",
    "by_true",
    "bz_true",
)


class DatasetFormatError(ValueError):
    """Malformed dataset file (header, row shape, or sidecar config)."""


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


NOISE_KEYS = ("n_w", "n_b", "n_a", "n_m")


def sensor_model_to_dict(noise: NoiseParams, g, h) -> dict:
    """The noise block and reference vectors as sidecars and gain files hold them."""
    block = {key: getattr(noise, key) for key in NOISE_KEYS}
    block["b0"] = list(noise.b0)
    return {"noise": block, "g": list(g), "h": list(h)}


def sensor_model_from_dict(data: dict, error: type[ValueError]):
    """(noise, g, h) from the keys sensor_model_to_dict writes.

    A malformed noise block or reference vector raises error, the format
    error of the file being read.
    """
    block = data["noise"]
    if not isinstance(block, dict):
        raise error("noise must be a JSON object")
    unknown = sorted(set(block) - {*NOISE_KEYS, "b0"})
    if unknown:
        raise error(f"unknown noise keys: {', '.join(unknown)}")
    missing = [key for key in NOISE_KEYS if key not in block]
    if missing:
        raise error(f"missing noise keys: {', '.join(missing)}")
    try:
        noise = NoiseParams(
            **{key: float(block[key]) for key in NOISE_KEYS},
            b0=tuple(float(v) for v in block.get("b0", (0.0, 0.0, 0.0))),
        )
    except (TypeError, ValueError) as exc:
        raise error(f"invalid noise block: {exc}") from None
    return noise, *(reference_vector(data, key, error) for key in ("g", "h"))


def reference_vector(data: dict, key: str, error: type[ValueError]) -> tuple:
    """data[key] as a 3-tuple of floats; anything but a list of 3 numbers raises error."""
    value = data[key]
    try:
        vector = tuple(float(v) for v in value) if isinstance(value, (list, tuple)) else ()
    except (TypeError, ValueError):
        vector = ()
    if len(vector) != 3:
        raise error(f"{key} must be a list of 3 numbers, got {value!r}")
    return vector


def config_to_dict(config: ScenarioConfig) -> dict:
    return {
        "case": config.case,
        "seed": config.seed,
        "duration": config.duration,
        "sample_rate": config.sample_rate,
        "angular_rate": config.angular_rate,
        **sensor_model_to_dict(config.noise, config.g, config.h),
    }


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise DatasetFormatError("config must be a JSON object")
    allowed = {"case", "seed", "duration", "sample_rate", "angular_rate", "noise", "g", "h"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise DatasetFormatError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(allowed - set(data))
    if missing:
        raise DatasetFormatError(f"missing config keys: {', '.join(missing)}")
    noise, g, h = sensor_model_from_dict(data, DatasetFormatError)
    try:
        return ScenarioConfig(
            case=data["case"],
            seed=int(data["seed"]),
            duration=float(data["duration"]),
            sample_rate=float(data["sample_rate"]),
            angular_rate=float(data["angular_rate"]),
            noise=noise,
            g=g,
            h=h,
        )
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(str(exc)) from None


CHUNK_ROWS = 512  # rows formatted per write by write_csv


def write_csv(path, columns, table: np.ndarray, formats) -> Path:
    """Write a header line and one line per table row, comma-separated.

    formats gives one %-format per column. Rows are formatted CHUNK_ROWS at a
    time with one format string, so the file is never held as one string.
    """
    path = Path(path)
    if table.ndim != 2 or table.shape[1] != len(columns) or len(formats) != len(columns):
        raise ValueError(
            f"table of shape {table.shape} with {len(formats)} formats "
            f"does not match {len(columns)} columns"
        )
    row = ",".join(formats) + "\n"
    with path.open("w", encoding="ascii", newline="") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, len(table), CHUNK_ROWS):
            chunk = table[start : start + CHUNK_ROWS]
            f.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return path


def write_dataset(dataset: Dataset, path) -> Path:
    """Write measurements + truth to CSV and the config sidecar; returns path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.column_stack(
        [dataset.t, dataset.w_m, dataset.a_m, dataset.m_m, dataset.q_true, dataset.b_true]
    )
    write_csv(path, COLUMNS, table, ("%.17g",) * len(COLUMNS))
    sidecar_path(path).write_text(
        json.dumps(config_to_dict(dataset.config), indent=2, sort_keys=True) + "\n"
    )
    return path


def _raise_row_error(path: Path, rows: list[str], fallback: str):
    """Name the first row, numbered as a file line, with a wrong field count
    or a non-numeric field."""
    for i, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise DatasetFormatError(
                f"{path}: row {i} has {len(parts)} fields, expected {len(COLUMNS)}"
            )
        for part in parts:
            try:
                float(part)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {i}: {exc}") from None
    raise DatasetFormatError(f"{path}: {fallback}")


def read_dataset(path) -> Dataset:
    """Load a dataset written by write_dataset; blank lines are ignored.

    Truth angular rates are not part of the file format, so the loaded
    dataset's w_true is None.
    """
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise DatasetFormatError(f"{path}: empty dataset file")
    if tuple(name.strip() for name in lines[0].split(",")) != COLUMNS:
        raise DatasetFormatError(
            f"{path}: malformed header; expected {','.join(COLUMNS)}"
        )
    rows = lines[1:]
    table = np.empty((0, len(COLUMNS)))
    if rows:
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            _raise_row_error(path, rows, str(exc))
        if table.shape[1] != len(COLUMNS):
            _raise_row_error(path, rows, f"expected {len(COLUMNS)} fields per row")

    side = sidecar_path(path)
    if not side.exists():
        raise DatasetFormatError(f"{path}: missing config sidecar {side}")
    try:
        config = config_from_dict(json.loads(side.read_text()))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{side}: invalid JSON: {exc}") from None
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{side}: {exc}") from None

    expected_rows = config.n_samples
    if len(rows) != expected_rows:
        raise DatasetFormatError(
            f"{path}: row count mismatch: {len(rows)} rows, "
            f"config implies {expected_rows}"
        )
    return Dataset(
        config=config,
        t=table[:, 0],
        w_m=table[:, 1:4],
        a_m=table[:, 4:7],
        m_m=table[:, 7:10],
        q_true=table[:, 10:14],
        b_true=table[:, 14:17],
    )
