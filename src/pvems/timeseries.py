"""Uniform power-vs-time series: CSV ingestion, resampling and alignment.

PV and load profiles arrive with different sampling (2 s PV logging vs
15 min average load data) and must be brought onto one uniform grid before
simulation.  Everything here is a pure function over immutable series.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = [
    "PowerSeries",
    "ResampleMethod",
    "ResamplePolicy",
    "ProfileError",
    "load_power_csv",
    "resample",
    "align",
    "trapezoid_energy_wh",
    "format_utc",
    "format_utc_grid",
    "write_grid_csv",
    "write_power_csv",
]

log = logging.getLogger(__name__)


class ProfileError(ValueError):
    """Raised for malformed or inconsistent power profiles."""


class ResampleMethod(str, Enum):
    HOLD = "hold"      # zero-order hold
    LINEAR = "linear"  # linear interpolation


@dataclass(frozen=True)
class ResamplePolicy:
    """How to fill a finer grid from coarser samples.

    ``gap_limit_s`` bounds the source spacing we are willing to bridge;
    resampling across larger gaps is refused rather than invented.
    """

    method: ResampleMethod = ResampleMethod.HOLD
    gap_limit_s: float = 3600.0


@dataclass(frozen=True)
class PowerSeries:
    """Uniformly sampled power signal in watts.

    Sample ``i`` is taken at ``start + i * step_s``.  ``start`` is an
    aware UTC datetime; values are finite floats.
    """

    start: datetime
    step_s: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.start.tzinfo is None:
            object.__setattr__(self, "start", self.start.replace(tzinfo=timezone.utc))
        if self.step_s <= 0:
            raise ProfileError(f"step must be positive, got {self.step_s}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ProfileError("a series needs at least one sample")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ProfileError(f"non-finite power value at sample {bad}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> datetime:
        """Timestamp of the last sample."""
        return self.start + timedelta(seconds=self.step_s * (len(self.values) - 1))

    @property
    def start_epoch(self) -> float:
        return self.start.timestamp()

    def scaled(self, factor: float) -> "PowerSeries":
        return PowerSeries(self.start, self.step_s, self.values * factor)


def _parse_timestamp(text: str) -> datetime:
    """ISO-8601 UTC or integer epoch seconds -> aware UTC datetime."""
    text = text.strip()
    if text.lstrip("+-").isdigit():
        try:
            return datetime.fromtimestamp(int(text), tz=timezone.utc)
        except OverflowError as exc:  # beyond the platform's time_t
            raise ValueError(exc) from None
    iso = text.replace("Z", "+00:00") if text.endswith("Z") else text
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


_INGEST_BLOCK_ROWS = 8_192  # largest block of rows that load_power_csv reads at a time


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def load_power_csv(
    path: Union[str, Path],
    expected_unit: str = "W",
    column: Union[str, None] = None,
) -> PowerSeries:
    """Load a ``timestamp,power`` CSV into a validated PowerSeries.

    The header row is optional: the first row is one when its first
    cell is not a timestamp and its second cell, if any, not a number.
    Timestamps are ISO-8601 UTC or integer epoch seconds and must be
    strictly increasing on a uniform grid.  ``expected_unit`` is ``"W"``
    or ``"kW"``; kW inputs are converted to watts.  When the file has a
    header, ``column`` selects a named power column (defaults to the
    second column), which lets wide trace CSVs round-trip through this
    loader.

    The file is read in blocks of raw lines.  Once the first two rows
    fix the step, each block's leading run of canonical lines on the
    grid (see ``_grid_prefix``) is accepted at once; ``csv`` parses the
    rest for the per-row checks below, so values, messages and line
    numbers (counted in csv records) are those of reading row by row.
    """
    if expected_unit not in ("W", "kW"):
        raise ProfileError(f"expected_unit must be 'W' or 'kW', got {expected_unit!r}")
    scale = 1000.0 if expected_unit == "kW" else 1.0

    path = Path(path)
    if not path.exists():
        raise ProfileError(f"profile file not found: {path}")

    chunks: list[np.ndarray] = []  # accepted powers, in file order, unscaled
    power_idx = 1
    first = prev = step = step_td = None
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:
            raise ProfileError(f"{path}: line 1: {exc}") from None
        if header is None:
            raise ProfileError(f"{path}: empty file")
        if (header and not _parses(_parse_timestamp, header[0])
                and not (len(header) > 1 and _parses(float, header[1]))):
            if column is not None:
                if column not in header:
                    raise ProfileError(f"{path}: column {column!r} not in header {header}")
                power_idx = header.index(column)
            lineno, rows = 1, []
        elif column is not None:
            raise ProfileError(f"{path}: column selection requires a header row")
        else:
            lineno, rows = 0, [header]  # the first record is data

        for lines in _line_blocks(fh):
            accepted = 0
            if step is not None:
                accepted, values = _grid_prefix(lines, prev, step_td, power_idx)
                if accepted:
                    chunks.append(values)
                    prev += accepted * step_td
                    lineno += accepted
            powers = []
            try:
                for row in itertools.chain(rows, _csv_rows(lines[accepted:], fh)):
                    lineno += 1
                    if not row or all(not cell.strip() for cell in row):
                        continue
                    if len(row) <= power_idx:
                        raise ProfileError(f"{path}: line {lineno}: expected at least "
                                           f"{power_idx + 1} columns, got {len(row)}")
                    try:
                        ts = _parse_timestamp(row[0])
                    except ValueError as exc:
                        raise ProfileError(f"{path}: line {lineno}: bad timestamp "
                                           f"{row[0]!r}: {exc}") from None
                    try:
                        p = float(row[power_idx])
                    except ValueError:
                        raise ProfileError(f"{path}: line {lineno}: bad power value "
                                           f"{row[power_idx]!r}") from None
                    if not math.isfinite(p):
                        raise ProfileError(f"{path}: line {lineno}: non-finite power value")
                    if prev is None:
                        first = ts
                    else:
                        dt = (ts - prev).total_seconds()
                        if step is None:
                            step, step_td = dt, ts - prev
                        if dt <= 0:
                            raise ProfileError(f"{path}: line {lineno}: timestamps "
                                               "not strictly increasing")
                        if abs(dt - step) > 1e-6:
                            raise ProfileError(f"{path}: line {lineno}: irregular step "
                                               f"({dt} s, expected {step} s)")
                    prev = ts
                    powers.append(p)
            except csv.Error as exc:  # the faults of the rows before it come first
                raise ProfileError(f"{path}: line {lineno + 1}: {exc}") from None
            chunks.append(np.array(powers))
            rows = []
            del lines  # released before the next block is read

    if first is None:
        raise ProfileError(f"{path}: empty file")
    if step is None:
        raise ProfileError(f"{path}: need at least two rows to infer the sampling step")
    values = np.concatenate(chunks)
    return PowerSeries(first, step, values * scale if scale != 1.0 else values)


def _line_blocks(fh):
    """Lists of raw lines of ``fh``: 2 lines (those that fix the step on a
    plain file), then twice as many up to ``_INGEST_BLOCK_ROWS``.  Only
    the first list can be empty."""
    size, lines = 2, list(itertools.islice(fh, 2))
    while True:
        yield lines
        size = min(2 * size, _INGEST_BLOCK_ROWS)
        if not (lines := list(itertools.islice(fh, size))):
            return


def _csv_rows(lines: list[str], fh):
    """The csv records that start on ``lines``.  A record that goes on
    past them (a quoted line break) reads its rest from ``fh``, the
    source of ``lines``, so it is one record, as in one reader over the
    whole file."""
    reader = csv.reader(itertools.chain(lines, fh))
    while reader.line_num < len(lines):
        yield next(reader)


def _grid_prefix(lines: list[str], prev: datetime, step: timedelta,
                 power_idx: int) -> tuple[int, Union[np.ndarray, None]]:
    """How many leading raw ``lines`` continue the grid after ``prev``, and their powers.

    A line qualifies when it is exactly ``format_utc_grid``'s text for
    the next grid point, then ``,``, then cells, then a line end, and
    its ``power_idx`` cell gives a finite ``float``.  ``csv`` gives such
    a line's fields by splitting it at its commas unless it holds a
    quote, a NUL (refused before Python 3.11) or a field longer than
    ``csv.field_size_limit()``; so a line with a quote or a NUL, or
    longer than the limit, does not qualify, and every other one passes
    the per-row checks of ``load_power_csv`` with the same value
    (``float`` ignores the line end left on a last cell).  The prefix
    also ends where the number of cells changes, so that one split of
    the joined lines gives each line's cells.  A block whose first line
    is off the grid is rejected after formatting one timestamp.
    """
    n = len(lines)
    try:
        prev + n * step  # the grid must stay within datetime's years
    except OverflowError:
        return 0, None
    if not lines[0].startswith(format_utc_grid(prev, step, 1, 2)[0] + ","):
        return 0, None
    # the last line of a file may lack a line end
    ends = [n if lines[-1].endswith(("\n", "\r")) else n - 1]
    text = ",".join(lines)
    if '"' in text or "\0" in text:
        ends.append(next(k for k, line in enumerate(lines) if '"' in line or "\0" in line))
    limit = csv.field_size_limit()
    if max(map(len, lines)) > limit:
        ends.append(next(k for k, line in enumerate(lines) if len(line) > limit))
    commas = np.fromiter(map(str.count, lines, itertools.repeat(",")), np.intp, n)
    ends.extend(np.flatnonzero(commas != commas[0])[:1].tolist())
    n, width = min(ends), int(commas[0]) + 1
    if width <= power_idx:
        return 0, None
    cells = text.split(",", n * width)
    stamps = cells[0:n * width:width]
    expected = format_utc_grid(prev, step, 1, n + 1)
    if stamps != expected:
        n = next(k for k, (a, b) in enumerate(zip(stamps, expected)) if a != b)
    try:
        powers = np.array(list(map(float, cells[power_idx:n * width:width])))
    except ValueError:  # a bad power cell: the per-row checks report it
        return 0, None
    finite = np.isfinite(powers)
    if not finite.all():
        n = int(finite.argmin())
    return n, powers[:n]


def resample(series: PowerSeries, target_step_s: float,
             policy: ResamplePolicy = ResamplePolicy()) -> PowerSeries:
    """Resample onto a grid of ``target_step_s`` covering the same span.

    ``hold`` repeats the most recent source sample; ``linear``
    interpolates between neighbours.  Refuses to bridge source spacing
    wider than the policy's gap limit.
    """
    if target_step_s <= 0:
        raise ProfileError(f"target step must be positive, got {target_step_s}")
    if policy.gap_limit_s < target_step_s:
        raise ProfileError(f"gap_limit ({policy.gap_limit_s} s) must be >= "
                           f"target step ({target_step_s} s)")
    if len(series) > 1 and series.step_s > policy.gap_limit_s:
        raise ProfileError(f"source spacing {series.step_s} s exceeds gap limit "
                           f"{policy.gap_limit_s} s")

    if target_step_s == series.step_s:
        return series

    span = series.step_s * (len(series) - 1)
    n_out = int(math.floor(span / target_step_s + 1e-9)) + 1
    t_out = np.arange(n_out) * target_step_s
    values = _sample_at(series, t_out, policy.method)
    return PowerSeries(series.start, target_step_s, values)


def _sample_at(series: PowerSeries, t_rel: np.ndarray, method: ResampleMethod) -> np.ndarray:
    """Evaluate the series at times relative to its own start (seconds)."""
    if method is ResampleMethod.HOLD:
        idx = np.floor(t_rel / series.step_s + 1e-9).astype(int)
        idx = np.clip(idx, 0, len(series) - 1)
        return series.values[idx]
    t_src = np.arange(len(series)) * series.step_s
    return np.interp(t_rel, t_src, series.values)


def align(a: PowerSeries, b: PowerSeries,
          policy: ResamplePolicy = ResamplePolicy()) -> tuple[PowerSeries, PowerSeries]:
    """Put two series onto one grid: the finer step, overlapping span only.

    The coarser series is resampled (hold by default); non-overlapping
    ends are truncated.  Raises when the spans do not overlap.
    """
    fine, coarse = (a, b) if a.step_s <= b.step_s else (b, a)
    step = fine.step_s

    t0 = max(a.start_epoch, b.start_epoch)
    t1 = min(a.end.timestamp(), b.end.timestamp())
    if t0 > t1 + 1e-9:
        raise ProfileError("series do not overlap in time")

    # Snap the common window onto the finer series' grid.
    k0 = int(math.ceil((t0 - fine.start_epoch) / step - 1e-9))
    k1 = int(math.floor((t1 - fine.start_epoch) / step + 1e-9))
    if k1 < k0:
        raise ProfileError("series do not overlap in time")
    start = fine.start + timedelta(seconds=k0 * step)
    n = k1 - k0 + 1

    fine_out = PowerSeries(start, step, fine.values[k0:k1 + 1])

    if len(coarse) > 1 and coarse.step_s > policy.gap_limit_s:
        raise ProfileError(f"source spacing {coarse.step_s} s exceeds gap limit "
                           f"{policy.gap_limit_s} s")
    t_rel = start.timestamp() - coarse.start_epoch + np.arange(n) * step
    coarse_out = PowerSeries(start, step, _sample_at(coarse, t_rel, policy.method))

    return (fine_out, coarse_out) if a.step_s <= b.step_s else (coarse_out, fine_out)


def trapezoid_energy_wh(series: PowerSeries) -> float:
    """Trapezoidal integral of the series in watt-hours."""
    if len(series) < 2:
        return 0.0
    return float(np.trapezoid(series.values, dx=series.step_s)) / 3600.0


def format_utc(dt: datetime) -> str:
    """ISO-8601 with a Z suffix, seconds resolution when possible."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


_WHOLE_SECOND_ROW = np.frombuffer(b"0000-00-00T00:00:00Z\n", dtype=np.uint8)
# The variable fields of a _WHOLE_SECOND_ROW, copied in whole items.
_WHOLE_SECOND_FIELDS = np.dtype({"names": ["date", "hour", "minute", "second"],
                                 "formats": ["S10", "S2", "S2", "S2"],
                                 "offsets": [0, 11, 14, 17],
                                 "itemsize": len(_WHOLE_SECOND_ROW)})
_TWO_DIGITS = np.array([f"{i:02d}" for i in range(60)], dtype="S2")
_YEAR_1, _YEAR_10000 = np.datetime64("0001-01-01", "us"), np.datetime64("10000-01-01", "us")


def format_utc_grid(start: datetime, step: timedelta, lo: int,
                    hi: int) -> list[str]:
    """``format_utc(start + k * step)`` for ``k`` in ``range(lo, hi)``, vectorised.

    Rows whose microseconds are not zero keep their ``.ffffff`` part, as
    ``isoformat`` does.  ``start`` is converted to UTC once, which equals
    converting each row for any fixed-offset zone (series loaded from
    CSV are UTC).  An increasing grid of whole seconds is written as
    ASCII bytes from per-day date text and two-digit tables.
    """
    return _utc_grid_lines(start, step, lo, hi).decode("ascii").split("\n")[:-1]


def _utc_grid_lines(start: datetime, step: timedelta, lo: int, hi: int) -> bytes:
    """``format_utc_grid``'s texts as ASCII, each ended by a line feed."""
    origin = np.datetime64(start.astimezone(timezone.utc).replace(tzinfo=None), "us")
    step_us = step // timedelta(microseconds=1)
    stamps = origin + (np.arange(lo, hi, dtype=np.int64) * step_us).astype("m8[us]")
    us = stamps.astype(np.int64)
    whole = us % 1_000_000 == 0
    if (len(stamps) and step_us > 0 and whole.all()
            and _YEAR_1 <= stamps[0] and stamps[-1] < _YEAR_10000):
        return _format_whole_seconds(us // 1_000_000)
    text = np.datetime_as_string(stamps, unit="us").tolist()
    return "".join(t[:19] + "Z\n" if w else t + "Z\n"
                   for t, w in zip(text, whole.tolist())).encode("ascii")


def _format_whole_seconds(seconds: np.ndarray) -> bytes:
    """``YYYY-MM-DDTHH:MM:SSZ`` and a line feed for each of increasing epoch
    seconds within years 1-9999, as ASCII."""
    day, second = np.divmod(seconds, 86_400)
    new_day = np.empty(len(day), dtype=bool)
    new_day[0] = True
    np.not_equal(day[1:], day[:-1], out=new_day[1:])
    dates = np.datetime_as_string(day[new_day].astype("M8[D]")).astype("S10")
    rows = np.empty((len(day), len(_WHOLE_SECOND_ROW)), dtype=np.uint8)
    rows[:] = _WHOLE_SECOND_ROW
    fields = rows.reshape(-1).view(_WHOLE_SECOND_FIELDS)
    fields["date"] = dates[np.cumsum(new_day) - 1]
    hour, second = np.divmod(second, 3600)
    minute, second = np.divmod(second, 60)
    fields["hour"] = _TWO_DIGITS[hour]
    fields["minute"] = _TWO_DIGITS[minute]
    fields["second"] = _TWO_DIGITS[second]
    return rows.tobytes()


_WRITE_BLOCK_ROWS = 16_384  # rows formatted at a time by write_grid_csv


def write_grid_csv(path: Union[str, Path], start: datetime, step: timedelta,
                   columns: dict[str, np.ndarray],
                   labels: Union[dict[str, Sequence[str]], None] = None,
                   header: bool = True) -> None:
    """One CSV row per grid point ``start + k * step``: the grid-CSV format.

    A ``timestamp`` column as ``format_utc``, then ``columns`` as
    ``repr`` of their float64 values, or as ``labels[name][code]`` for a
    coded column.  Rows end in CRLF like the csv module's; no field can
    hold a delimiter, quote or line break.  Columns are formatted
    ``_WRITE_BLOCK_ROWS`` rows at a time, so memory stays bounded, and
    each float is formatted once per run of equal cells (see
    ``_float_texts``), on arrays by ``_format_floats``, which calls
    ``repr`` only for the cells it cannot prove.  Texts stay ASCII bytes
    from the formatters to the file.  Logs ``wrote <name> rows <n>
    formatted <k> of <cells> float cells repr <r>`` at INFO.
    """
    tables = {name: np.array([text.encode() for text in table], dtype=object)
              for name, table in (labels or {}).items()}
    columns = {name: col if name in tables else np.asarray(col, dtype=np.float64)
               for name, col in columns.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = len(next(iter(columns.values())))
    formatted = reprs = 0
    with path.open("wb") as fh:
        if header:
            fh.write((",".join(["timestamp", *columns]) + "\r\n").encode())
        for lo in range(0, n, _WRITE_BLOCK_ROWS):
            hi = min(lo + _WRITE_BLOCK_ROWS, n)
            fields = [_utc_grid_lines(start, step, lo, hi).split(b"\n")[:-1]]
            left = None  # the bits and texts of the last float column
            for name, col in columns.items():
                if name in tables:
                    fields.append(tables[name].take(col[lo:hi]).tolist())
                    continue
                bits = col[lo:hi].view(np.int64)
                texts, k, r = _float_texts(bits, left)
                formatted += k
                reprs += r
                fields.append(texts.tolist())
                left = bits, texts
            fh.write(b"\r\n".join(map(b",".join, zip(*fields))) + b"\r\n")
    n_floats = n * sum(name not in tables for name in columns)
    log.info("wrote %s rows %d formatted %d of %d float cells repr %d",
             path.name, n, formatted, n_floats, reprs)


def _float_texts(bits: np.ndarray, left: Union[tuple[np.ndarray, np.ndarray], None]
                 ) -> tuple[np.ndarray, int, int]:
    """``repr`` of each float64 whose bits are ``bits``, as an object
    array of ASCII bytes, the number of cells formatted and the number
    of ``repr`` calls made.

    Only the first cell of each run of equal bits is formatted, and a
    run head whose bits equal the same row of ``left`` (the bits and
    texts of the nearest float column to the left) takes that text.  Bits, not
    ``==``: ``0.0`` equals ``-0.0`` and NaN equals nothing, but equal
    bits always have equal ``repr``.
    """
    head = np.empty(len(bits), dtype=bool)
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    rows = np.flatnonzero(head)
    texts = np.empty(len(rows), dtype=object)
    fresh = np.ones(len(rows), dtype=bool)
    if left is not None:
        left_bits, left_texts = left
        np.not_equal(bits[rows], left_bits[rows], out=fresh)
        texts[~fresh] = left_texts[rows[~fresh]]
    strings, reprs = _format_floats(bits[rows[fresh]].view(np.float64))
    texts[fresh] = strings
    return texts.take(np.cumsum(head) - 1), len(strings), reprs


def _binade_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each biased exponent ``b`` of the binades that meet [1e-4, 1e16):
    ``16 - floor(log10(2**(b - 1023)))`` and the least double at or above
    the power of ten inside the binade (``inf`` when there is none)."""
    shift, threshold = np.zeros(2048, np.int64), np.full(2048, np.inf)
    for b in range(1009, 1077):
        e = b - 1023
        # exact: 2**e and 5**-e are never powers of ten
        dec = len(str(2 ** e)) - 1 if e >= 0 else len(str(5 ** -e)) - 1 + e
        shift[b] = 16 - dec
        # 1e-3 .. 1e-1 (and 1e-4) round up, so ``a >= t`` is ``a >= 10**k``
        t = float(f"1e{dec + 1}")
        if t < 2.0 ** (e + 1):
            threshold[b] = t
    return shift, threshold


_SHIFT, _NEXT_POW10 = _binade_tables()
_HALF_ULP = np.ldexp(1.0, np.arange(2048) - 1076)  # of a float with biased exponent b
_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact
_SPLIT = 134_217_729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)  # Veltkamp's split
_POW10_LO = _POW10 - _POW10_HI


def _digits4() -> np.ndarray:
    """``b"%04d" % i`` for ``i`` in ``range(10_000)``, as an ``S4`` array."""
    pairs = np.arange(100, dtype=np.uint8)[:, None] // np.array([10, 1], np.uint8) % 10
    table = np.empty((100, 100, 4), dtype=np.uint8)
    table[:, :, :2] = pairs[:, None] + ord("0")
    table[:, :, 2:] = pairs[None, :] + ord("0")
    return table.reshape(10_000, 4).view("S4")[:, 0]


_DIGITS4 = _digits4()
_DIGITS17 = np.dtype({"names": ["d0", "d1", "d2", "d3", "d4"],
                      "formats": ["u1", "S4", "S4", "S4", "S4"],
                      "offsets": [0, 1, 5, 9, 13], "itemsize": 17})
_UNPROVEN = 0xFFFF  # sort key of the cells left to repr


def _format_floats(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``repr(v).encode()`` for each float ``v`` of ``values`` (an ``S24``
    array) and the number of cells that were left to ``repr``.

    ``repr`` writes the decimal with the fewest significant digits that
    reads back as ``v`` and, of several, the one nearest ``v``.  It lays
    it out positionally when ``E = floor(log10|v|)`` is in [-4, 15], that
    is ``1e-4 <= |v| < 1e16``; those cells are decided here on arrays,
    and every other cell (zeros, subnormals, inf, NaN, the exponent form)
    and every cell the steps below leave unproven goes to ``repr``.

    1. ``E`` comes from the binary exponent: a binade holds at most one
       power of ten (``_NEXT_POW10``).  With ``j = 16 - E`` in [1, 20],
       ``y = |v| * 10**j`` is in [1e16, 1e17), so a unit of ``y`` is the
       17th significant digit.
    2. ``10**j`` is a double, so Dekker's TwoProduct gives ``y = p + err``
       exactly, ``p = fl(y)``.  ``p >= 1e16 > 2**53`` is an integer, so
       ``q = p + floor(err)`` is ``floor(y)`` and ``phi = err - floor(err)``
       is ``y - q`` in [0, 1), both exact.
    3. A decimal reads back as ``v`` iff it lies in ``v``'s rounding
       interval: up to ``h`` units above ``y`` (half an ulp of ``v``,
       times ``10**j``) and ``h_lo`` below (``h / 2`` when ``v`` is a power
       of two), ends included iff ``v``'s significand is even.  An ulp is
       ``2**-53`` to ``2**-52`` of ``|v|``, so ``0.55 < h_lo <= h < 11.2``.
       The ends are taken as included, which never decides: an end has
       as many decimals as bits below the point, at most ``j`` only for
       ``|v| >= 2**52``.  There ``v`` is an integer, so ``y`` is a multiple
       of 10 units (the nearest of step 5), and neither end (``v +- 1/2``,
       or ``v +- 1`` with ``v`` even) is a multiple of 100 units.
    4. Decimals of at most 15 significant digits are multiples of 100
       units, of 16 digits multiples of 10 (one from a neighbouring
       decade that reads back puts the power of ten between it and
       ``v``, a multiple of 100, in the interval too).  The interval,
       under 22.4 units wide, holds at most one multiple of 100, and the
       multiples of ``g`` (100 or 10) in it nearest ``y`` can only be the
       ones next to ``y``: with ``rem = q mod g``, the one below is in iff
       ``phi <= h_lo - rem`` and the one above iff ``phi >= g - rem - h``.
       The right sides are exact: ``h`` is ``5**j < 2**47`` times a power
       of two, below 16, so it and ``rem`` or ``g - rem`` (below 128) fit
       in 51 bits.
    5. So the shortest, then nearest, decimal is: the multiple of 100 if
       one is in; else the multiple of 10 in and nearer ``y`` (below iff
       ``rem < 5``); else the integer nearest ``y``, ``q + (phi > 0.5)``,
       always in as ``h_lo > 0.5``.  Unproven, and left to ``repr``: two
       multiples of 10 at equal distance (``phi == 0``, ``rem == 5``), ties
       at 17 digits (``phi == 0.5``) and ``1e17`` units, the next decade
       (no double in range rounds to a power of ten above it).
    6. The digits, trailing zeros stripped, are laid out as ASCII from a
       table of 4-digit texts, in groups of rows with the same decimal
       point position, sign and digit count.
    """
    values = np.asarray(values, dtype=np.float64)
    texts = np.empty(len(values), dtype="S24")
    a = np.abs(values)
    cells = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    a = a[cells]
    bits = a.view(np.int64)
    biased = bits >> 52
    j = _SHIFT[biased] - (a >= _NEXT_POW10[biased])
    t = _POW10[j]
    p = a * t
    a_hi = a * _SPLIT  # Dekker's TwoProduct: a * t == p + err
    a_hi -= a_hi - a
    a_lo = a - a_hi
    t_hi, t_lo = _POW10_HI[j], _POW10_LO[j]
    err = ((a_hi * t_hi - p) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    floor = np.floor(err)
    q = p.astype(np.int64) + floor.astype(np.int64)
    phi = err - floor
    h = t * _HALF_ULP[biased]
    h_lo = np.where(bits & ((1 << 52) - 1) == 0, 0.5 * h, h)
    rem100 = q - q // 100 * 100
    rem10 = rem100 - rem100 // 10 * 10
    below100 = phi <= h_lo - rem100
    above100 = phi >= (100 - rem100) - h
    below10 = phi <= h_lo - rem10
    above10 = phi >= (10 - rem10) - h
    in100 = below100 | above100
    in10 = below10 | above10
    up10 = above10 & (~below10 | (rem10 >= 5))
    q += np.where(in100, 100 * above100 - rem100,
                  np.where(in10, 10 * up10 - rem10, phi > 0.5))
    n_digits = 17 - in10  # significant digits
    at15 = np.flatnonzero(in100)
    if len(at15):
        m, zeros = q[at15] // 100, np.zeros(len(at15), np.int64)
        for k in (8, 4, 2, 1):
            cut = m // 10 ** k
            whole = cut * 10 ** k == m
            m = np.where(whole, cut, m)
            zeros += k * whole
        n_digits[at15] = 15 - zeros
    # sort key: decimal point position + 3 (``20 - j``), sign, digit count
    key = ((40 - 2 * j + (values[cells] < 0)) * 18 + n_digits).astype(np.uint16)
    key[((phi == 0.0) & (rem10 == 5) & below10 & above10)
        | (~in10 & (phi == 0.5)) | (q >= 10 ** 17)] = _UNPROVEN
    order = np.argsort(key, kind="stable")
    key = key[order]
    proven = np.searchsorted(key, _UNPROVEN)
    order, key, q = order[:proven], key[:proven], q[order[:proven]]
    high = q // 100_000_000
    low = q - high * 100_000_000
    high4, low4 = high // 10_000, low // 10_000
    first = high4 // 10_000
    ascii17 = np.empty((proven, 17), dtype=np.uint8)
    groups = ascii17.reshape(-1).view(_DIGITS17)
    groups["d0"] = first + ord("0")
    groups["d1"] = _DIGITS4[high4 - first * 10_000]
    groups["d2"] = _DIGITS4[high - high4 * 10_000]
    groups["d3"] = _DIGITS4[low4]
    groups["d4"] = _DIGITS4[low - low4 * 10_000]
    out = np.zeros((proven, 24), dtype=np.uint8)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])[:proven]
    for b0, b1, k in zip(starts.tolist(), [*starts[1:].tolist(), proven],
                         key[starts].tolist()):
        point, minus, n = k // 36 - 3, k // 18 % 2, k % 18
        rows, src = slice(b0, b1), ascii17[b0:b1]
        dst = out[rows, minus:]
        if minus:
            out[rows, 0] = ord("-")
        if point > 0:  # ddd.ddd or ddd.0
            dst[:, :point] = src[:, :point]
            dst[:, point] = ord(".")
            dst[:, point + 1:max(n, point + 1) + 1] = src[:, point:max(n, point + 1)]
        else:  # 0.00ddd
            dst[:, :2 - point] = np.frombuffer(b"0.000", np.uint8)[:2 - point]
            dst[:, 2 - point:2 - point + n] = src[:, :n]
    texts[cells[order]] = out.view("S24")[:, 0]
    rest = np.ones(len(values), dtype=bool)
    rest[cells[order]] = False
    rest = np.flatnonzero(rest)
    texts[rest] = [repr(v).encode() for v in values[rest].tolist()]
    return texts, len(rest)


def write_power_csv(series: PowerSeries, path: Union[str, Path],
                    header: bool = True) -> None:
    """Write ``timestamp,power`` rows that load_power_csv reads back losslessly."""
    write_grid_csv(path, series.start, timedelta(seconds=series.step_s),
                   {"power": series.values}, header=header)
