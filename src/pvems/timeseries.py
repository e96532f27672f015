"""Uniform power-vs-time series: CSV ingestion, resampling and alignment.

PV and load profiles arrive with different sampling (2 s PV logging vs
15 min average load data) and must be brought onto one uniform grid before
simulation.  Everything here is a pure function over immutable series.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import re
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


_INGEST_BLOCK_BYTES = 1 << 20  # bytes of whole lines load_power_csv checks at a time

# The bytes of a power cell on load_power_csv's grid path.
_NUMERIC_BYTES = b"0123456789.eE+-"
_NUMERIC = np.zeros(256, dtype=bool)
_NUMERIC[np.frombuffer(_NUMERIC_BYTES, np.uint8)] = True
_LAST_UTC = datetime.max.replace(tzinfo=timezone.utc)


def _parses(parse, text) -> bool:
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

    The header and the rows that fix the step are read with ``csv``.
    The rest of the file is read in blocks of whole lines of about
    ``_INGEST_BLOCK_BYTES`` bytes, and each block's leading run of
    canonical lines on the grid (see ``_canonical_rows``) is accepted on
    arrays.  From the first line that is not canonical, ``csv`` reads
    the rest of the block for the per-row checks below, so values,
    messages and line numbers (counted in csv records) are those of
    reading row by row.  A row holding bytes that are not UTF-8 is
    refused as ``line <n>: not UTF-8 text``.  Logs ``read <name> rows
    <n> csv <k>`` at INFO, ``k`` being the rows that ``csv`` read.
    """
    if expected_unit not in ("W", "kW"):
        raise ProfileError(f"expected_unit must be 'W' or 'kW', got {expected_unit!r}")
    scale = 1000.0 if expected_unit == "kW" else 1.0

    path = Path(path)
    if not path.exists():
        raise ProfileError(f"profile file not found: {path}")

    rows = _Rows(path)
    with path.open("rb") as fh:
        src = _Lines(fh)
        text = src.text_lines()
        try:
            header = next(csv.reader(text), None)
        except csv.Error as exc:
            raise ProfileError(f"{path}: line 1: {exc}") from None
        if header is None:
            raise ProfileError(f"{path}: empty file")
        if _escaped(header):
            raise ProfileError(f"{path}: line 1: not UTF-8 text")
        if (header and not _parses(_parse_timestamp, header[0])
                and not (len(header) > 1 and _parses(float, header[1]))):
            if column is not None:
                if column not in header:
                    raise ProfileError(f"{path}: column {column!r} not in header {header}")
                rows.power_idx = header.index(column)
            rows.lineno, first = 1, []
        elif column is not None:
            raise ProfileError(f"{path}: column selection requires a header row")
        else:
            first = [header]  # the first record is data
        rows.check(itertools.chain(first, csv.reader(text)), until_step=True)
        text.close()

        while block := src.block(_INGEST_BLOCK_BYTES):
            end, values = _canonical_rows(block, rows.prev, rows.step_td, rows.power_idx)
            if end:
                rows.accept(values)
            if end < len(block):
                lines = io.StringIO(_decode(block[end:]), newline="").readlines()
                more = src.text_lines()
                rows.check(_csv_rows(lines, more))
                more.close()

    if rows.first is None:
        raise ProfileError(f"{path}: empty file")
    if rows.step is None:
        raise ProfileError(f"{path}: need at least two rows to infer the sampling step")
    values = np.concatenate(rows.chunks)
    log.info("read %s rows %d csv %d", path.name, len(values), rows.csv_rows)
    return PowerSeries(rows.first, rows.step, values * scale if scale != 1.0 else values)


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 becomes a lone
    surrogate (``surrogateescape``), which ``_escaped`` finds in its row."""
    return data.decode("utf-8", "surrogateescape")


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _escaped(row: list[str]) -> bool:
    """Whether a csv record decoded by ``_decode`` held bytes that are not UTF-8."""
    return not all(map(str.isascii, row)) and any(map(_ESCAPED_BYTE.search, row))


class _Lines:
    """A binary file read in whole lines: byte blocks for the grid path,
    and text lines for ``csv``."""

    def __init__(self, fh) -> None:
        self.fh, self.rest = fh, b""

    def block(self, size: int) -> bytes:
        """The next whole lines: ``size`` bytes or more, cut after the last
        LF, or, with none, after the last CR that cannot start a CRLF, and
        read on, twice as much at a time, until there is such a cut or
        the file ends.  Empty at the end of the file."""
        data = self.rest + (more := self.fh.read(size))
        while more:
            cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, len(data) - 1) + 1
            if cut:
                break
            data += (more := self.fh.read(len(data)))
        else:
            cut = len(data)
        self.rest = data[cut:]
        return data[:cut]

    def text_lines(self):
        """The next lines as UTF-8 text, split as a text-mode file with
        ``newline=""`` splits them; lines read but not taken go back to
        the file when the generator is closed."""
        while block := self.block(1):
            lines = io.StringIO(_decode(block), newline="").readlines()
            taken = 0
            try:
                for line in lines:
                    taken += 1
                    yield line
            finally:
                rest = "".join(lines[taken:]).encode("utf-8", "surrogateescape")
                self.rest = rest + self.rest


class _Rows:
    """The per-row checks of ``load_power_csv`` and the powers of the rows
    that pass them, in file order and unscaled."""

    def __init__(self, path: Path) -> None:
        self.path, self.power_idx, self.lineno = path, 1, 0
        self.first = self.prev = self.step = self.step_td = None
        self.chunks: list[np.ndarray] = []
        self.csv_rows = 0

    def accept(self, values: np.ndarray) -> None:
        """Take ``values`` as the powers of the next grid rows, one line each."""
        self.chunks.append(values)
        self.prev += len(values) * self.step_td
        self.lineno += len(values)

    def check(self, records, until_step: bool = False) -> None:
        """Check each csv record of ``records`` as a row; with ``until_step``,
        stop after the row that fixes the step."""
        path, idx, powers = self.path, self.power_idx, []
        try:
            for row in records:
                self.lineno += 1
                if _escaped(row):
                    raise ProfileError(f"{path}: line {self.lineno}: not UTF-8 text")
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) <= idx:
                    raise ProfileError(f"{path}: line {self.lineno}: expected at least "
                                       f"{idx + 1} columns, got {len(row)}")
                try:
                    ts = _parse_timestamp(row[0])
                except ValueError as exc:
                    raise ProfileError(f"{path}: line {self.lineno}: bad timestamp "
                                       f"{row[0]!r}: {exc}") from None
                try:
                    p = float(row[idx])
                except ValueError:
                    raise ProfileError(f"{path}: line {self.lineno}: bad power value "
                                       f"{row[idx]!r}") from None
                if not math.isfinite(p):
                    raise ProfileError(f"{path}: line {self.lineno}: non-finite power value")
                if self.prev is None:
                    self.first = ts
                else:
                    dt = (ts - self.prev).total_seconds()
                    if self.step is None:
                        self.step, self.step_td = dt, ts - self.prev
                    if dt <= 0:
                        raise ProfileError(f"{path}: line {self.lineno}: timestamps "
                                           "not strictly increasing")
                    if abs(dt - self.step) > 1e-6:
                        raise ProfileError(f"{path}: line {self.lineno}: irregular step "
                                           f"({dt} s, expected {self.step} s)")
                self.prev = ts
                powers.append(p)
                if until_step and self.step is not None:
                    break
        except csv.Error as exc:  # the faults of the rows before it come first
            raise ProfileError(f"{path}: line {self.lineno + 1}: {exc}") from None
        self.chunks.append(np.array(powers))
        self.csv_rows += len(powers)


def _csv_rows(lines: list[str], more):
    """The csv records that start on ``lines``.  A record that goes on
    past them (a quoted line break) reads its rest from ``more``, the
    lines that follow, so it is one record, as in one reader over the
    whole file."""
    reader = csv.reader(itertools.chain(lines, more))
    while reader.line_num < len(lines):
        yield next(reader)


def _canonical_rows(block: bytes, prev: datetime, step: timedelta,
                    power_idx: int) -> tuple[int, Union[np.ndarray, None]]:
    """How many leading bytes of ``block`` are canonical lines that continue
    the grid after ``prev``, and their powers.

    ``block`` starts at a line start.  A line is canonical when

    - it ends in LF or CRLF and holds no other CR, no NUL, no quote and
      no byte above ASCII, so a text-mode file ends it at its LF and
      ``csv`` splits it at its commas alone;
    - it is no longer than ``csv.field_size_limit()`` and has as many
      commas as the block's first line;
    - it starts with ``format_utc``'s text of the next grid point (within
      datetime's years) and a comma;
    - its ``power_idx`` cell is made of ``[0-9.eE+-]`` and gives a finite
      float.

    Such a line passes the per-row checks of ``load_power_csv`` with the
    same value: numpy's cast of bytes to float64 is Python's correctly
    rounded ``float``.  Stamps and power cells are gathered from
    fixed-stride ``S<len>`` views of ``block``, one fancy index per
    length (stamps are 20 bytes, or 27 with a fraction of a second), and
    the stamps of a length compared as one byte string.
    """
    if power_idx == 0:
        return 0, None
    a = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(a == 10)
    ends = ends[:(_LAST_UTC - prev) // step]  # the grid stays within datetime's years
    if len(ends):  # stop at the first line with a NUL, a quote, a CR or non-ASCII
        body = a[:ends[-1]]
        odd = np.flatnonzero((body.view(np.int8) < 1) | (body == 34) | (body == 13))
        odd = odd[(a[odd] != 13) | (a[odd + 1] != 10)]  # but a CR before the LF
        ends = ends[:np.searchsorted(ends, odd[0])] if len(odd) else ends
    if len(ends) == 0:
        return 0, None
    commas = np.flatnonzero(a[:ends[-1]] == 44)
    counts = np.diff(np.searchsorted(commas, ends), prepend=0)
    width = int(counts[0])
    if width < power_idx:
        return 0, None
    n = _leading(counts == width)
    ends, cells = ends[:n], commas[:n * width].reshape(n, width)
    starts = np.empty(n, np.intp)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    lo = cells[:, power_idx - 1] + 1
    hi = cells[:, power_idx] if power_idx < width else ends - (a[ends - 1] == 13)
    want = _utc_grid_lines(prev, step, 1, n + 1, b",")
    commas_want = np.flatnonzero(np.frombuffer(want, np.uint8) == 44)
    at = np.empty(n, np.intp)  # where each stamp starts in ``want``
    at[0], at[1:] = 0, commas_want[:-1] + 1
    stamp_sizes = commas_want - at
    n = _leading((cells[:, 0] - starts == stamp_sizes) & (hi > lo)
                 & (ends - starts <= csv.field_size_limit()))
    first_off = n  # each stamp and its comma against the grid's
    for size, rows in _by_size(stamp_sizes[:n]):
        got = _windows(block, size + 1)[starts[rows]]
        expected = _windows(want, size + 1)[at[rows]]
        if got.tobytes() != expected.tobytes():
            first_off = min(first_off, int(rows[np.argmax(got != expected)]))
    n = first_off
    lo, sizes = lo[:n], (hi - lo)[:n]
    values = np.empty(n)
    for size, rows in _by_size(sizes):
        texts = _windows(block, size)[lo[rows]]
        if texts.tobytes().translate(None, _NUMERIC_BYTES):  # a byte outside them
            numeric = _NUMERIC[texts.view(np.uint8).reshape(-1, size)].all(axis=1)
            values[rows[~numeric]] = np.nan
            rows, texts = rows[numeric], texts[numeric]
        values[rows] = _floats(texts)
    n = _leading(np.isfinite(values))
    return (int(ends[n - 1]) + 1, values[:n]) if n else (0, None)


def _floats(texts: np.ndarray) -> np.ndarray:
    """``float`` of each text of ``texts`` (an ``S<len>`` array), NaN where
    ``float`` refuses it.  Each run of equal texts is cast once, as
    ``write_grid_csv`` formats each run of equal floats once."""
    head = np.empty(len(texts), dtype=bool)
    head[:1] = True
    np.not_equal(texts[1:], texts[:-1], out=head[1:])
    runs = texts[head]
    try:
        values = runs.astype(np.float64)
    except ValueError:  # a spelling that float refuses, such as "1e" or "1.2.3"
        values = np.array([float(t) if _parses(float, t) else math.nan
                           for t in runs.tolist()])
    return values[np.cumsum(head) - 1]


def _windows(data: bytes, size: int) -> np.ndarray:
    """Every ``size``-byte window of ``data``, as a read-only ``S<size>``
    view whose item ``i`` starts at byte ``i``."""
    return np.ndarray(len(data) - size + 1, f"S{size}", data, 0, (1,))


def _by_size(sizes: np.ndarray):
    """``(size, rows)`` for each distinct value of ``sizes``, ``rows`` its
    indices in increasing order."""
    order = np.argsort(sizes, kind="stable")
    distinct, heads = np.unique(sizes[order], return_index=True)
    return zip(distinct.tolist(), np.split(order, heads[1:]))


def _leading(ok: np.ndarray) -> int:
    """The number of leading ``True`` values of ``ok``."""
    return len(ok) if ok.all() else int(ok.argmin())


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


# A stamp, with ".000000" before the Z in a grid with fractions of a
# second; its variable fields (format, offset) are copied in whole items.
_STAMP = b"0000-00-00T00:00:00.000000Z"
_FRACTION = slice(19, 26)  # the ".ffffff" of a _STAMP
_STAMP_FIELDS = {"date": ("S10", 0), "hour": ("S2", 11), "minute": ("S2", 14),
                 "second": ("S2", 17), "high": ("S2", 20), "low": ("S4", 22)}
_TWO_DIGITS = np.array([f"{i:02d}" for i in range(100)], dtype="S2")
_YEAR_1, _YEAR_10000 = np.datetime64("0001-01-01", "us"), np.datetime64("10000-01-01", "us")


def format_utc_grid(start: datetime, step: timedelta, lo: int,
                    hi: int) -> list[str]:
    """``format_utc(start + k * step)`` for ``k`` in ``range(lo, hi)``, vectorised.

    Rows whose microseconds are not zero keep their ``.ffffff`` part, as
    ``isoformat`` does.  ``start`` is converted to UTC once, which equals
    converting each row for any fixed-offset zone (series loaded from
    CSV are UTC).  An increasing grid within years 1-9999 is written as
    ASCII bytes from per-day date text and digit tables.
    """
    return _utc_grid_lines(start, step, lo, hi).decode("ascii").split("\n")[:-1]


def _utc_grid_lines(start: datetime, step: timedelta, lo: int, hi: int,
                    end: bytes = b"\n") -> bytes:
    """``format_utc_grid``'s texts as ASCII, each followed by ``end``."""
    return _utc_grid_stamps(start, step, lo, hi, end).tobytes().replace(b"\0", b"")


def _utc_grid_stamps(start: datetime, step: timedelta, lo: int, hi: int,
                     end: bytes = b"") -> np.ndarray:
    """``format_utc_grid``'s texts, each followed by ``end``, as an ``S``
    array whose NUL bytes are not text (see ``_join_cells``)."""
    origin = np.datetime64(start.astimezone(timezone.utc).replace(tzinfo=None), "us")
    step_us = step // timedelta(microseconds=1)
    stamps = origin + (np.arange(lo, hi, dtype=np.int64) * step_us).astype("m8[us]")
    if (len(stamps) and step_us > 0
            and _YEAR_1 <= stamps[0] and stamps[-1] < _YEAR_10000):
        return _format_stamps(stamps.astype(np.int64), end)
    text = np.datetime_as_string(stamps, unit="us").tolist()
    whole = (stamps.astype(np.int64) % 1_000_000 == 0).tolist()
    return np.array([(t[:19] if w else t).encode("ascii") + b"Z" + end
                     for t, w in zip(text, whole)], dtype="S")


def _format_stamps(us: np.ndarray, end: bytes) -> np.ndarray:
    """``format_utc``'s text of each of increasing epoch microseconds within
    years 1-9999, followed by ``end``: ``YYYY-MM-DDTHH:MM:SSZ``, or, when
    some microseconds are not zero, with ``.ffffff`` before the ``Z``
    where they are not and NUL bytes in its place where they are."""
    seconds, micro = np.divmod(us, 1_000_000)
    fraction = bool(micro.any())
    day, second = np.divmod(seconds, 86_400)
    new_day = np.empty(len(day), dtype=bool)
    new_day[0] = True
    np.not_equal(day[1:], day[:-1], out=new_day[1:])
    dates = np.datetime_as_string(day[new_day].astype("M8[D]")).astype("S10")
    row = (_STAMP if fraction else _STAMP[:_FRACTION.start] + _STAMP[_FRACTION.stop:]) + end
    names = list(_STAMP_FIELDS)[:6 if fraction else 4]
    rows = np.empty((len(day), len(row)), dtype=np.uint8)
    rows[:] = np.frombuffer(row, np.uint8)
    fields = rows.reshape(-1).view(np.dtype({
        "names": names, "formats": [_STAMP_FIELDS[k][0] for k in names],
        "offsets": [_STAMP_FIELDS[k][1] for k in names], "itemsize": len(row)}))
    fields["date"] = dates[np.cumsum(new_day) - 1]
    hour, second = np.divmod(second, 3600)
    minute, second = np.divmod(second, 60)
    fields["hour"] = _TWO_DIGITS[hour]
    fields["minute"] = _TWO_DIGITS[minute]
    fields["second"] = _TWO_DIGITS[second]
    if fraction:
        high, low = np.divmod(micro, 10_000)
        fields["high"] = _TWO_DIGITS[high]
        fields["low"] = _DIGITS4[low]
        rows[micro == 0, _FRACTION] = 0  # whole seconds have no fraction
    return rows.view(f"S{len(row)}")[:, 0]


def _join_cells(cells: Sequence[np.ndarray], sep: bytes = b"",
                end: bytes = b"") -> np.ndarray:
    """Rows of text cells as one ``uint8`` array: row ``i`` is the ``i``-th
    item of each ``S`` array of ``cells``, joined by ``sep`` and ended
    by ``end``.  A cell's NUL bytes are dropped, so a text shorter than
    its array's width, or with NULs in its middle, is laid out without
    them; no cell text holds a NUL of its own.
    """
    ends = [sep] * (len(cells) - 1) + [end]
    rows = np.empty((len(cells[0]), sum(c.dtype.itemsize + len(e)
                                        for c, e in zip(cells, ends))), dtype=np.uint8)
    at = 0
    for cell, e in zip(cells, ends):
        size = cell.dtype.itemsize
        rows[:, at:at + size] = np.ascontiguousarray(cell).view(np.uint8).reshape(-1, size)
        rows[:, at + size:at + size + len(e)] = np.frombuffer(e, np.uint8)
        at += size + len(e)
    text = rows != 0
    return rows.reshape(-1) if text.all() else rows[text]


_WRITE_BLOCK_ROWS = 8_192  # rows formatted at a time by write_grid_csv


def write_grid_csv(path: Union[str, Path], start: datetime, step: timedelta,
                   columns: dict[str, np.ndarray],
                   labels: Union[dict[str, Sequence[str]], None] = None,
                   header: bool = True) -> None:
    """One CSV row per grid point ``start + k * step``: the grid-CSV format.

    A ``timestamp`` column as ``format_utc``, then ``columns`` as
    ``repr`` of their float64 values, or as ``labels[name][code]`` for a
    coded column.  Rows end in CRLF like the csv module's; no field can
    hold a delimiter, quote or line break, and a label holding a NUL is
    refused.  Columns are formatted ``_WRITE_BLOCK_ROWS`` rows at a
    time, so memory stays bounded, and each float is formatted once per
    run of equal cells (see ``_float_texts``), on arrays by
    ``_format_floats``, which calls ``repr`` only for the cells it
    cannot prove.  Texts stay fixed-width ASCII arrays from the
    formatters to the file: a block's rows are laid out in one byte
    array (``_join_cells``).  Logs ``wrote <name> rows <n> formatted
    <k> of <cells> float cells repr <r>`` at INFO.
    """
    tables = {}
    for name, table in (labels or {}).items():
        texts = [text.encode() for text in table]
        if any(b"\0" in text for text in texts):
            raise ValueError(f"a label of column {name!r} holds a NUL")
        tables[name] = np.array(texts, dtype="S")
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
            cells = [_utc_grid_stamps(start, step, lo, hi)]
            left = None  # the bits and texts of the last float column
            for name, col in columns.items():
                if name in tables:
                    cells.append(tables[name].take(col[lo:hi]))
                    continue
                bits = col[lo:hi].view(np.int64)
                texts, k, r = _float_texts(bits, left)
                formatted += k
                reprs += r
                cells.append(texts)
                left = bits, texts
            fh.write(_join_cells(cells, b",", b"\r\n"))
    n_floats = n * sum(name not in tables for name in columns)
    log.info("wrote %s rows %d formatted %d of %d float cells repr %d",
             path.name, n, formatted, n_floats, reprs)


def _float_texts(bits: np.ndarray, left: Union[tuple[np.ndarray, np.ndarray], None]
                 ) -> tuple[np.ndarray, int, int]:
    """``repr`` of each float64 whose bits are ``bits``, as an ``S`` array
    of ASCII as wide as its longest text, the number of cells formatted
    and the number of ``repr`` calls made.

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
    texts = np.empty(len(rows), dtype="S24")
    fresh = np.ones(len(rows), dtype=bool)
    if left is not None:
        left_bits, left_texts = left
        np.not_equal(bits[rows], left_bits[rows], out=fresh)
        texts[~fresh] = left_texts[rows[~fresh]]
    strings, reprs = _format_floats(bits[rows[fresh]].view(np.float64))
    texts[fresh] = strings
    # as wide as the longest text, so that the rows carry less padding
    width = texts.view(np.uint8).reshape(-1, 24).any(axis=0).sum()
    return texts.astype(f"S{width}").take(np.cumsum(head) - 1), len(strings), reprs


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
