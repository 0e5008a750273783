"""Dataset persistence: measurement/truth CSV plus a JSON config sidecar.

The CSV column layout is fixed. Every field is the value's '%.17g', 17
significant digits, so numeric fields survive a write/read round trip
bit-for-bit. write_csv, which writes the trace CSV too, prints them with a
numpy kernel that reproduces '%.17g' byte for byte and hands the values it
cannot decide exactly to Python's formatting. The sidecar (same path with a
.json suffix) carries the generating ScenarioConfig, including the seed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import NamedTuple

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

# write_csv's '%.17g' kernel. A finite nonzero x with decimal exponent
# e = floor(log10|x|) in [_E_MIN, _E_MAX] is printed from D = round(|x| 10^(16-e)),
# its 17 significant digits. The product is formed in double-double arithmetic:
# Dekker's exact two-product p + err of |x| and hi, plus |x| lo, where hi + lo is
# 10^(16-e) from exact fractions. p + t, t = err + |x| lo, is within 5.2e-15 of
# the exact product: 2^-105 relative for hi + lo (2.5e-15 below 1e17), and half
# an ulp each for |x| lo (|.| < 16) and for its sum with err (|.| < 32). So D is
# the correctly rounded one unless t's fraction lies within _TIE_MARGIN of 1/2.
_E_MIN, _E_MAX = -40, 40
_TIE_MARGIN = 2.0**-40
_SPLIT = 2.0**27 + 1.0  # Dekker's splitting constant for doubles
_DIGITS = 17
# Each value's characters are gathered from a 36-byte source: D as 20 ASCII
# digits (three leading zeros, so digit j sits at byte 3 + j), then _LITERALS.
_LITERALS = b"-.e+0123456789\0\0"
_SOURCE = 20 + len(_LITERALS)
_PAD = _SOURCE - 1  # a NUL: write_csv drops every NUL
_WIDTH = 25  # the longest '%.17g', -1.2345678901234567e-308, and a separator


class _Kernel(NamedTuple):
    ten: np.ndarray  # (4, e): hi, hi's two Dekker halves, and lo of 10^(16-e)
    quads: np.ndarray  # 0000..9999 as 4-byte ASCII words, uint32
    trailing: np.ndarray  # trailing decimal zeros of 0..9999 as 4-digit groups
    literals: np.ndarray  # _LITERALS as uint32 words
    patterns: np.ndarray  # (pattern, _WIDTH) source byte of each character, then _PAD
    lengths: np.ndarray  # characters per pattern


# Pattern 2 l + sign is layout l, l = _DIGITS (e - _E_MIN) + kept - 1, with a
# leading '-' for sign 1. Zero's layout follows them, then the fallback's.
_ZERO = _DIGITS * (_E_MAX - _E_MIN + 1)
_EMPTY = _ZERO + 1


def _layout(e: int, kept: int) -> list[int]:
    """Source bytes of '%.17g' of a positive value with exponent e and kept digits."""
    lit = {c: 20 + i for i, c in enumerate(_LITERALS)}
    digits = [3 + j for j in range(kept)]
    if e < -4 or e >= _DIGITS:
        mantissa = digits[:1] + ([lit[ord(".")]] + digits[1:] if kept > 1 else [])
        return mantissa + [lit[c] for c in b"e%+03d" % e]
    if e < 0:
        return [lit[ord("0")], lit[ord(".")]] + [lit[ord("0")]] * (-e - 1) + digits
    whole = digits[: e + 1] + [lit[ord("0")]] * (e + 1 - kept)
    return whole + ([lit[ord(".")]] + digits[e + 1 :] if kept > e + 1 else [])


@functools.cache
def _kernel() -> _Kernel:
    """The kernel's tables, built on first use rather than at import."""
    from fractions import Fraction  # deferred: importing it adds 4 ms to a cold start

    ten = []
    for e in range(_E_MIN, _E_MAX + 1):
        exact = Fraction(10) ** (16 - e)
        hi = float(exact)
        big = _SPLIT * hi
        hi_h = big - (big - hi)
        ten.append((hi, hi_h, hi - hi_h, float(exact - Fraction(hi))))
    group = np.arange(10_000)
    quads = group[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    layouts = [
        _layout(e, kept) for e in range(_E_MIN, _E_MAX + 1) for kept in range(1, _DIGITS + 1)
    ]
    layouts += [[20 + _LITERALS.index(b"0")], []]
    positive = np.full((len(layouts), _WIDTH), _PAD, dtype=np.intp)
    for row, cols in zip(positive, layouts):
        row[: len(cols)] = cols
    negative = np.full_like(positive, _PAD)
    negative[:, 0] = 20 + _LITERALS.index(b"-")
    negative[:, 1:] = positive[:, :-1]
    patterns = np.stack([positive, negative], axis=1).reshape(-1, _WIDTH)
    lengths = np.repeat([len(cols) for cols in layouts], 2) + np.tile([0, 1], len(layouts))
    patterns[2 * _EMPTY + 1], lengths[2 * _EMPTY + 1] = _PAD, 0  # the fallback has no sign
    return _Kernel(
        ten=np.array(ten).T.copy(),
        quads=quads.astype(np.uint8).view(np.uint32).ravel(),
        trailing=sum((group % 10**n == 0).astype(np.intp) for n in range(1, 5)),
        literals=np.frombuffer(_LITERALS, dtype=np.uint32),
        patterns=patterns,
        lengths=lengths,
    )


def _fallback_fields(values: np.ndarray) -> list[bytes]:
    """'%.17g' of each value the kernel leaves undecided."""
    return [b"%.17g" % v for v in values.tolist()]


def _format_rows(table: np.ndarray, index: np.ndarray) -> bytes:
    """The CSV lines of a float table's rows, each field byte-identical to '%.17g'.

    index is scratch space of at least table.size rows of _WIDTH intp.
    """
    k = _kernel()
    x = table.ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0) = -inf, out of range like nan and inf
        e = np.floor(np.log10(a))
    fast = (e >= _E_MIN) & (e <= _E_MAX)
    a = np.where(fast, a, 1.0)
    row = np.where(fast, e - _E_MIN, -_E_MIN).astype(np.intp)  # the exponent's table row
    hi, hi_h, hi_l, lo = (np.take(column, row) for column in k.ten)
    p = a * hi
    big = _SPLIT * a
    a_h = big - (big - a)
    a_l = a - a_h
    t = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.floor(t)
    frac = t - whole
    floor_d = p.astype(np.int64) + whole.astype(np.int64)  # p is an integer past 2^53
    d = floor_d + (frac > 0.5)
    # floor_d below 10^16: log10 guessed one too high; d = 10^17: one too low, or
    # a carry into the next decade. '%.17g' decides those, and near-ties
    fast &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (floor_d >= 10**16) & (d < 10**17)
    d = np.where(fast, d, 10**16)

    top = d // 10**8
    bottom = d - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    groups = [lead, top // 10**4, top % 10**4, bottom // 10**4, bottom % 10**4]
    source = np.empty((len(x), _SOURCE // 4), dtype=np.uint32)
    for column, group in enumerate(groups):
        source[:, column] = k.quads[group]
    source[:, 5:] = k.literals
    zeros = k.trailing[groups[4]]
    run = groups[4] == 0
    for group in groups[3:0:-1]:
        zeros += run * k.trailing[group]
        run &= group == 0
    layout = np.where(fast, _DIGITS * row + _DIGITS - 1 - zeros, np.where(x == 0, _ZERO, _EMPTY))
    pattern = 2 * layout + np.signbit(x)
    # mode="clip" lets take write into index without a temporary; no index clips
    index = np.take(k.patterns, pattern, axis=0, out=index[: len(x)], mode="clip")
    index += (_SOURCE * np.arange(len(x)))[:, None]
    out = np.take(source.view(np.uint8).ravel(), index, mode="clip")
    lengths = k.lengths[pattern]
    out[np.arange(len(x)), lengths] = ord(",")
    undecided = np.flatnonzero(layout == _EMPTY)
    for i, field in zip(undecided, _fallback_fields(x[undecided])):
        out[i, : len(field) + 1] = np.frombuffer(field + b",", dtype=np.uint8)
        lengths[i] = len(field)
    line_ends = np.arange(table.shape[1] - 1, len(x), table.shape[1])
    out[line_ends, lengths[line_ends]] = ord("\n")
    out = out.ravel()
    return out[out != 0].tobytes()


def write_csv(path, columns, table: np.ndarray) -> Path:
    """Write a header line and one line per table row, comma-separated.

    Every field's bytes are the value's '%.17g', so integers below 2^53
    print as with '%d'. Rows are formatted CHUNK_ROWS at a time by the
    _format_rows kernel, so the file is never held as one string.
    """
    path = Path(path)
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(columns):
        raise ValueError(f"table of shape {table.shape} does not match {len(columns)} columns")
    with path.open("wb") as f:
        f.write((",".join(columns) + "\n").encode("ascii"))
        index = np.empty((CHUNK_ROWS * len(columns), _WIDTH), dtype=np.intp)
        for start in range(0, len(table), CHUNK_ROWS):
            f.write(_format_rows(table[start : start + CHUNK_ROWS], index))
    return path


def write_dataset(dataset: Dataset, path) -> Path:
    """Write measurements + truth to CSV and the config sidecar; returns path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.column_stack(
        [dataset.t, dataset.w_m, dataset.a_m, dataset.m_m, dataset.q_true, dataset.b_true]
    )
    write_csv(path, COLUMNS, table)
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
    """Load a dataset written by write_dataset; blank lines are ignored."""
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
