"""Uniform power-vs-time series: CSV ingestion, resampling and alignment.

PV and load profiles arrive with different sampling (2 s PV logging vs
15 min average load data) and must be brought onto one uniform grid before
simulation.  Everything here is a pure function over immutable series.
"""

from __future__ import annotations

import csv
import functools
import io
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
    "ProfileError",
    "load_power_csv",
    "resample",
    "align",
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
class PowerSeries:
    """Uniformly sampled power signal in watts.

    Sample ``i`` is taken at ``start + i * step_s``, in whole microseconds.
    ``start`` is an aware UTC datetime; values are finite floats.
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
        if not (math.isfinite(vals.min()) and math.isfinite(vals.max())):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ProfileError(f"non-finite power value at sample {bad}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> datetime:
        """Timestamp of the last sample; a ``ProfileError`` past datetime's
        years."""
        n = len(self.values) - 1  # one sample takes no step, whatever its step
        try:
            return self.start + n * timedelta(seconds=self.step_s) if n else self.start
        except OverflowError:
            raise ProfileError(f"series from {self.start} of {len(self.values)} samples "
                               f"{self.step_s} s apart ends past year 9999") from None

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


# bytes of whole lines that load_power_csv checks at a time, and of the
# int64 times that _sample_at holds at a time
_INGEST_BLOCK_BYTES = 1 << 20

# The bytes of a power cell on load_power_csv's grid path.
_NUMERIC_BYTES = b"0123456789.eE+-"
_NUMERIC = np.zeros(256, dtype=bool)
_NUMERIC[np.frombuffer(_NUMERIC_BYTES, np.uint8)] = True
_LAST_UTC = datetime.max.replace(tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


def _parses(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def load_power_csv(path: Union[str, Path], expected_unit: str = "W") -> PowerSeries:
    """Load a ``timestamp,power`` CSV into a validated PowerSeries.

    The header row is optional: the first row is one when its first
    cell is not a timestamp and its second cell, if any, not a number.
    The power is each row's second cell.
    Timestamps are ISO-8601 UTC or integer epoch seconds on one grid: the
    first two rows fix its step in whole microseconds, and a row off it by
    any amount is refused.  ``expected_unit`` is ``"W"`` or ``"kW"``; kW
    inputs are converted to watts.

    The file is read once, by ``_Reader`` with one ``csv`` reader.
    ``csv`` reads the header and the rows that fix the step.  The rest is
    read in blocks of whole lines of about ``_INGEST_BLOCK_BYTES`` bytes:
    each block's leading run of canonical lines, each the next grid
    stamp, a comma and a numeric power cell (see ``_canonical_rows``),
    is accepted on arrays, and its other lines are
    pending: ``csv`` reads every record that starts on them for the
    per-row checks below, so values, messages and line numbers (counted
    in csv records) are those of reading row by row.  A row holding
    bytes that are not UTF-8 is refused as ``line <n>: not UTF-8 text``.
    Logs ``read <name> rows <n> csv <k>`` at INFO, ``k`` being the rows
    that ``csv`` read.
    """
    if expected_unit not in ("W", "kW"):
        raise ProfileError(f"expected_unit must be 'W' or 'kW', got {expected_unit!r}")

    path = Path(path)
    if not path.exists():
        raise ProfileError(f"profile file not found: {path}")

    with path.open("rb") as fh:
        rows = _Reader(path, fh)
        values = rows.read()
    log.info("read %s rows %d csv %d", path.name, len(values), rows.csv_rows)
    if expected_unit == "kW":
        if math.isinf(1000.0 * max(float(values.max()), -float(values.min()))):
            with np.errstate(over="ignore"):  # only to name the first one
                kw = float(values[np.isinf(values * 1000.0)][0])
            raise ProfileError(f"{path}: {kw!r} kW overflows in W")
        values *= 1000.0
    return PowerSeries(rows.first, rows.step.total_seconds(), values)


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 becomes a lone
    surrogate (``surrogateescape``), which ``_escaped`` finds in its row."""
    return data.decode("utf-8", "surrogateescape")


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# A line as a text-mode file with newline="" ends it: a CR ends one only
# when the byte after it is known and is not an LF.
_LINE = re.compile(rb"[^\r\n]*(?:\n|\r\n|\r(?=[^\n]))")


def _escaped(row: list[str]) -> bool:
    """Whether a csv record decoded by ``_decode`` held bytes that are not UTF-8."""
    return not all(map(str.isascii, row)) and any(map(_ESCAPED_BYTE.search, row))


class _Reader:
    """A profile file read front to back, and the per-row checks of
    ``load_power_csv``: the file cursor, the line number (in csv
    records), the grid so far and the unscaled powers of the rows that
    pass, in one array grown a block ahead.  ``read`` gives the file its
    only ``csv`` reader, which takes the pending lines, then lines from
    the cursor one at a time, so it never takes a line that a block needs.
    """

    def __init__(self, path: Path, fh) -> None:
        self.path, self.fh, self.rest = path, fh, b""
        self.pending: list[str] = []
        self.lineno = self.n = self.csv_rows = 0
        self.first = self.prev = self.step = None
        self.values = np.empty(0)

    def read(self) -> np.ndarray:
        """The powers of every row of the file, unscaled."""
        records = csv.reader(self._lines())
        self._check(records)
        while block := self._block(_INGEST_BLOCK_BYTES):
            end, values = _canonical_rows(block, self.prev, self.step)
            if end:
                self._append(values)
                self.prev += len(values) * self.step
                self.lineno += len(values)
            if end < len(block):
                self._check(records, block[end:])
        if self.first is None:
            raise ProfileError(f"{self.path}: empty file")
        if self.step is None:
            raise ProfileError(f"{self.path}: need at least two rows to infer the sampling step")
        self.values.resize(self.n, refcheck=False)
        return self.values

    def _block(self, size: int) -> bytes:
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

    def _lines(self):
        """``csv``'s lines: the pending ones, then the cursor's one at a
        time, as text."""
        while True:
            if self.pending:
                lines, self.pending = self.pending, []
                yield from lines
                continue
            while not (line := _LINE.match(self.rest)) and (
                    more := self.fh.read(len(self.rest) + 1)):
                self.rest += more
            if not (end := line.end() if line else len(self.rest)):
                return
            line, self.rest = self.rest[:end], self.rest[end:]
            yield _decode(line)

    def _append(self, values: np.ndarray) -> None:
        """Put ``values`` after the powers so far."""
        n, k = self.n, len(values)
        if n + k > len(self.values):  # room for one more block as long
            self.values.resize(n + 2 * k, refcheck=False)
        self.values[n:n + k] = values
        self.n = n + k

    def _check(self, records, tail: bytes = b"") -> None:
        """Check ``records`` as rows: with ``tail`` (the whole lines after a
        block's grid rows), those that start on its lines; without, those
        up to the row that fixes the step, the first being the header if
        it looks like one."""
        self.pending = io.StringIO(_decode(tail), newline="").readlines()
        until = records.line_num + len(self.pending) if tail else math.inf
        path, powers = self.path, []
        try:
            for row in records:
                self.lineno += 1
                if _escaped(row):
                    raise ProfileError(f"{path}: line {self.lineno}: not UTF-8 text")
                if any(map(str.strip, row)) and not (
                        self.lineno == 1 and not _parses(_parse_timestamp, row[0])
                        and not (len(row) > 1 and _parses(float, row[1]))):
                    if len(row) < 2:
                        raise ProfileError(f"{path}: line {self.lineno}: expected at "
                                           f"least 2 columns, got {len(row)}")
                    try:
                        ts = _parse_timestamp(row[0])
                    except ValueError as exc:
                        raise ProfileError(f"{path}: line {self.lineno}: bad timestamp "
                                           f"{row[0]!r}: {exc}") from None
                    try:
                        p = float(row[1])
                    except ValueError:
                        raise ProfileError(f"{path}: line {self.lineno}: bad power value "
                                           f"{row[1]!r}") from None
                    if not math.isfinite(p):
                        raise ProfileError(f"{path}: line {self.lineno}: non-finite "
                                           "power value")
                    if self.prev is None:
                        self.first = ts
                    else:
                        dt = ts - self.prev
                        if self.step is None:  # the last row csv reads before the blocks
                            self.step, until = dt, records.line_num
                        if dt <= timedelta(0):
                            raise ProfileError(f"{path}: line {self.lineno}: timestamps "
                                               "not strictly increasing")
                        if dt != self.step:
                            raise ProfileError(f"{path}: line {self.lineno}: irregular step ("
                                               f"{dt.total_seconds()} s, expected "
                                               f"{self.step.total_seconds()} s)")
                    self.prev = ts
                    powers.append(p)
                if records.line_num >= until:
                    break
        except csv.Error as exc:  # the faults of the rows before it come first
            raise ProfileError(f"{path}: line {self.lineno + 1}: {exc}") from None
        self._append(np.array(powers))
        self.csv_rows += len(powers)


def _canonical_rows(block: bytes, prev: datetime,
                    step: timedelta) -> tuple[int, Union[np.ndarray, None]]:
    """How many leading bytes of ``block`` are canonical lines that continue
    the grid after ``prev``, and their powers.

    ``block`` starts at a line start, and its lines are cut at its LFs.
    A line is canonical when

    - it starts with ``_utc_grid_stamps``' text of the next grid point
      (within datetime's years);
    - a comma follows at the stamp's length;
    - its power cell, from there to the line end, is made of
      ``[0-9.eE+-]`` and gives a finite float;
    - it ends in LF or CRLF;
    - it is no longer than ``csv.field_size_limit()``.

    Every byte of such a line is a stamp byte, that comma, a numeric
    byte or its line end.  So it holds no NUL, quote, byte above ASCII,
    other comma or CR but the one before its LF: a text-mode file ends
    it at its LF, ``csv`` reads its two cells as their bytes (RFC 4180
    section 2), and it passes the per-row checks of ``load_power_csv``
    with the same value, numpy's cast of bytes to float64 being Python's
    correctly rounded ``float``.  Stamps and power cells are gathered
    from fixed-stride ``S<len>`` views of ``block``, one fancy index per
    length, and the stamps of a length (20 bytes, or 27 with a fraction
    of a second) are compared with the grid's as one byte string.  A
    run of power texts that numpy refuses to cast is left to ``csv``
    (``_floats``).
    """
    a = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(a == 10)
    ends = ends[:(_LAST_UTC - prev) // step]  # the grid stays within datetime's years
    starts = np.empty(len(ends), np.intp)
    starts[:1], starts[1:] = 0, ends[:-1] + 1
    # room for the shortest stamp, its comma and a digit, so a block of
    # short lines lays out no stamps for them
    n = _leading((ends - starts > 21) & (ends - starts <= csv.field_size_limit()))
    if n == 0:
        return 0, None
    ends, starts = ends[:n], starts[:n]
    stamps = _utc_grid_stamps(prev, step, 1, n + 1)
    lengths = _lengths(stamps)
    lo, hi = starts + lengths + 1, ends - (a[ends - 1] == 13)
    n = _leading((hi > lo) & (a.take(lo - 1, mode="clip") == 44))  # the comma
    for size, rows in _by_size(lengths[:n]):
        got, expected = _windows(block, size)[starts[rows]], _prefixes(stamps, size)[rows]
        if got.tobytes() != expected.tobytes():
            n = min(n, int(rows[np.argmax(got != expected)]))
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
    """``float`` of each text of ``texts`` (an ``S<len>`` array), all NaN
    when ``float`` refuses one.  Each run of equal texts is cast once, as
    ``write_grid_csv`` formats each run of equal floats once."""
    head = np.empty(len(texts), dtype=bool)
    head[:1] = True
    np.not_equal(texts[1:], texts[:-1], out=head[1:])
    runs = texts[head]
    try:
        values = runs.astype(np.float64)
    except ValueError:  # a spelling that float refuses, such as "1e" or "1.2.3"
        return np.full(len(texts), math.nan)
    return values[np.cumsum(head) - 1]


def _windows(data: Union[bytes, np.ndarray], size: int) -> np.ndarray:
    """Every ``size``-byte window of ``data``, as an ``S<size>`` view whose
    item ``i`` starts at byte ``i`` (none when ``data`` is shorter than
    ``size``): read-only over ``bytes``, and over a ``uint8`` array
    writable, each assignment copying whole items."""
    return np.ndarray(max(len(data) - size + 1, 0), f"S{size}", data, 0, (1,))


def _by_size(sizes: np.ndarray):
    """``(size, rows)`` for each distinct value of ``sizes``, in increasing
    order, ``rows`` its indices in increasing order; unsorted if one."""
    if not len(sizes):
        return []
    if sizes.min() == sizes.max():
        return [(int(sizes[0]), np.arange(len(sizes)))]
    order = np.argsort(sizes, kind="stable")
    heads = np.flatnonzero(np.diff(sizes[order])) + 1
    return zip(sizes[order[np.insert(heads, 0, 0)]].tolist(), np.split(order, heads))


def _leading(ok: np.ndarray) -> int:
    """The number of leading ``True`` values of ``ok``."""
    return len(ok) if ok.all() else int(ok.argmin())


def resample(series: PowerSeries, target_step_s: float,
             method: ResampleMethod = ResampleMethod.HOLD) -> PowerSeries:
    """Resample onto ``(end - start) // target + 1`` points ``target_step_s``
    apart in whole microseconds: ``hold`` repeats the most recent source
    sample, ``linear`` interpolates between neighbours."""
    if target_step_s == series.step_s:
        return series
    target = _grid_step(target_step_s)
    values = _sample_at(series, series.start, target,
                        (series.end - series.start) // target + 1, method)
    return PowerSeries(series.start, target_step_s, values)


def _grid_step(step_s: float) -> timedelta:
    """A grid's step in whole microseconds, from 1 to below 2**63 (int64)."""
    if not 0 < step_s * 1e6 < 2 ** 63 or not (step := timedelta(seconds=step_s)):
        raise ProfileError(f"step must be from 1 to 2**63 microseconds, got {step_s} s")
    return step


def _sample_at(series: PowerSeries, start: datetime, step: timedelta, n: int,
               method: ResampleMethod) -> np.ndarray:
    """The series at the ``n`` times ``start + k * step``: a hold takes sample
    ``(start - series.start + k * step) // its step`` in int64 microseconds,
    about 1 MiB at a time; ``linear`` interpolates at float seconds."""
    if method is ResampleMethod.LINEAR:
        t = (start - series.start).total_seconds() + np.arange(n) * step.total_seconds()
        return np.interp(t, np.arange(len(series)) * series.step_s, series.values)
    t0, source = (start - series.start) // _US, _grid_step(series.step_s) // _US
    out = np.empty(n)
    rows = _INGEST_BLOCK_BYTES // out.itemsize
    for lo in range(0, n, rows):  # each block's times, then its samples
        idx = np.arange(lo, min(lo + rows, n), dtype=np.int64)
        idx *= step // _US
        idx += t0
        idx //= source
        np.take(series.values, idx, mode="clip", out=out[lo:lo + len(idx)])
    return out


def align(a: PowerSeries, b: PowerSeries,
          method: ResampleMethod = ResampleMethod.HOLD) -> tuple[PowerSeries, PowerSeries]:
    """Put ``b`` onto ``a``'s grid over the span both cover: ``a`` keeps
    its points ``a.start + k * step`` in that span, snapped onto them in
    whole microseconds, and ``b`` is sampled at them (hold by default),
    whichever step is finer.  Raises, giving both spans, when no point
    of ``a`` lies in the span."""
    step = _grid_step(a.step_s)
    t0, t1 = max(a.start, b.start), min(a.end, b.end)
    k0, k1 = -((a.start - t0) // step), (t1 - a.start) // step
    if k1 < k0:
        raise ProfileError(f"series do not overlap in time ({a.start} to {a.end}, "
                           f"and {b.start} to {b.end})")
    start = a.start + k0 * step
    return (PowerSeries(start, a.step_s, a.values[k0:k1 + 1]),
            PowerSeries(start, a.step_s, _sample_at(b, start, step, k1 - k0 + 1, method)))


# A stamp's fields, with ".ffffff" before the Z in a grid with fractions
# of a second; each is copied in whole items from a table of its texts.
_STAMP_FIELDS = {"date": ("S10", 0), "hour": ("S4", 10), "minute": ("S3", 14),
                 "second": ("S2", 17), "point": ("S1", 19), "high": ("S2", 20),
                 "low": ("S4", 22)}
_TWO_DIGITS = np.array([f"{i:02d}" for i in range(100)], dtype="S2")
_HOURS = np.array([f"T{i:02d}:".encode() for i in range(24)], dtype="S4")
_MINUTES = np.array([f"{i:02d}:".encode() for i in range(60)], dtype="S3")


_YEAR_1, _YEAR_10000 = (int(np.datetime64(year, "us").astype(np.int64))
                        for year in ("0001-01-01", "10000-01-01"))
_HOUR_US = 3_600_000_000
_TILE_ROWS = 36_000  # the most points of an hour that _hour_tile lays out: 0.1 s
_HOUR_AT = _STAMP_FIELDS["minute"][1]  # bytes of a stamp's date and "THH:"


def _utc_grid_stamps(start: datetime, step: timedelta, lo: int, hi: int) -> np.ndarray:
    """The stamp of each grid point ``start + k * step``, ``k`` in
    ``range(lo, hi)``, as an ``S`` array of ASCII texts, each padded with
    NUL bytes to the array's width: ISO-8601 UTC with a ``Z``,
    ``YYYY-MM-DDTHH:MM:SSZ``, with ``.ffffff`` before the ``Z`` where the
    microseconds are not zero, as ``isoformat`` writes them.  ``start`` is
    converted to UTC once, which equals converting each row for any
    fixed-offset zone (series loaded from CSV are UTC).

    Stamps come from tables: each hour's date and ``THH:`` followed by
    the hour's slab of a tile of ``MM:SS`` texts when the step divides an
    hour into at most ``_TILE_ROWS`` points (``_tiled_stamps``), else row
    by row (``_format_stamps``).  A step that is not positive, or a
    grid leaving years 1-9999, which ``load_power_csv`` cannot read back,
    raises ``ValueError``."""
    if hi <= lo:
        return np.empty(0, dtype="S20")
    origin = np.datetime64(start.astimezone(timezone.utc).replace(tzinfo=None), "us")
    step_us = step // _US
    first = int(origin.astype(np.int64)) + lo * step_us
    if step_us <= 0 or first < _YEAR_1 or first + (hi - lo - 1) * step_us >= _YEAR_10000:
        raise ValueError(f"no stamps for {start.isoformat()} + k * {step}, k in [{lo}, {hi}): "
                         "the step must be positive and the points within years 1-9999")
    if _HOUR_US % step_us == 0 and _HOUR_US // step_us <= _TILE_ROWS:
        return _tiled_stamps(first, hi - lo, step_us)
    if hi - lo == 1:  # one point needs no step, which may not fit in int64
        return _format_stamps(np.array([first]))
    return _format_stamps(first + np.arange(hi - lo, dtype=np.int64) * step_us)


def _tiled_stamps(first: int, n: int, step_us: int) -> np.ndarray:
    """``_format_stamps`` of ``first + k * step_us``, ``k`` in ``range(n)``,
    for a step that divides an hour: each row is a row of ``_hour_tile``
    with its hour's date and ``THH:`` written over its blank start.  The
    tile's rows are copied as whole byte ranges in at most three slabs:
    the first hour's rest, the whole hours as one broadcast, and the
    last hour's start."""
    tile = _hour_tile(step_us, first % step_us)
    (per_hour, width), tile = tile.shape, tile.reshape(-1)
    hour, offset = divmod(first, _HOUR_US)
    k0 = offset // step_us  # the first row's place in its hour's tile
    hours = hour + np.arange((k0 + n - 1) // per_hour + 1, dtype=np.int64)
    heads = np.empty((len(hours), _HOUR_AT), dtype=np.uint8)
    heads[:, :-1] = np.datetime_as_string(hours.astype("M8[h]")).astype("S13") \
        .view(np.uint8).reshape(len(hours), -1)
    heads[:, -1] = ord(":")
    heads = heads.view(f"S{_HOUR_AT}")[:, 0]
    rows = np.empty(n * width, dtype=np.uint8)
    row_heads = rows.view(np.dtype({"names": ["head"], "formats": [f"S{_HOUR_AT}"],
                                    "offsets": [0], "itemsize": width}))["head"]
    head = min(n, per_hour - k0)
    full, tail = divmod(n - head, per_hour)
    # each slab: its first row, its first hour in ``heads``, its number of
    # hours, and the tile rows t0:t1 that each of them gets
    slabs = ((0, 0, 1, k0, k0 + head), (head, 1, full, 0, per_hour),
             (head + full * per_hour, 1 + full, int(tail > 0), 0, tail))
    for at, h, count, t0, t1 in slabs:
        size = t1 - t0
        rows[at * width:(at + count * size) * width].reshape(count, size * width)[:] = \
            tile[t0 * width:t1 * width]
        row_heads[at:at + count * size].reshape(count, size)[:] = heads[h:h + count, None]
    return rows.view(f"S{width}")


@functools.lru_cache(maxsize=4)
def _hour_tile(step_us: int, phase: int) -> np.ndarray:
    """``_format_stamps``' rows of the grid points ``phase + k * step_us``
    within an hour, as the rows of a read-only ``uint8`` array whose
    first ``_HOUR_AT`` bytes, the date and ``THH:``, are left blank."""
    us = phase + np.arange(_HOUR_US // step_us, dtype=np.int64) * step_us
    tile = _format_stamps(us).view(np.uint8).reshape(len(us), -1).copy()
    tile[:, :_HOUR_AT] = 0
    tile.flags.writeable = False
    return tile


def _format_stamps(us: np.ndarray) -> np.ndarray:
    """``_utc_grid_stamps``' text of each of increasing epoch microseconds
    within years 1-9999: ``YYYY-MM-DDTHH:MM:SSZ``, or, when some
    microseconds are not zero, with ``.ffffff`` before the ``Z`` where
    they are not, and NUL bytes after the ``Z`` where they are."""
    seconds, micro = np.divmod(us, 1_000_000)
    fraction = bool(micro.any())
    day, clock = np.divmod(seconds, 86_400)
    hour, in_hour = np.divmod(clock, 3600)
    minute, second = np.divmod(in_hour, 60)
    new_day = np.empty(len(day) + 1, dtype=bool)
    new_day[0] = new_day[-1] = True
    np.not_equal(day[1:], day[:-1], out=new_day[1:-1])
    heads = np.flatnonzero(new_day)
    dates = np.datetime_as_string(day[heads[:-1]].astype("M8[D]")).astype("S10")
    names = list(_STAMP_FIELDS)[:7 if fraction else 4]
    size = 27 if fraction else 20
    rows = np.empty((len(day), size), dtype=np.uint8)
    fields = rows.reshape(-1).view(np.dtype({
        "names": names, "formats": [_STAMP_FIELDS[k][0] for k in names],
        "offsets": [_STAMP_FIELDS[k][1] for k in names], "itemsize": size}))
    fields["date"] = np.repeat(dates, np.diff(heads))
    fields["hour"] = _HOURS[hour]
    fields["minute"] = _MINUTES[minute]
    fields["second"] = _TWO_DIGITS[second]
    rows[:, -1] = ord("Z")
    if fraction:
        high, low = np.divmod(micro, 10_000)
        fields["point"] = b"."
        fields["high"] = _TWO_DIGITS[high]
        fields["low"] = _DIGITS4[low]
        rows[micro == 0, 19:] = np.frombuffer(b"Z" + bytes(7), np.uint8)  # no fraction
    return rows.view(f"S{size}")[:, 0]


_WRITE_BLOCK_ROWS = 8_192  # rows laid out at a time by write_grid_csv
_FORMAT_BATCH = 4_096  # floats formatted at a time by _format_floats


def write_grid_csv(path: Union[str, Path], start: datetime, step: timedelta,
                   columns: dict[str, np.ndarray],
                   labels: Union[dict[str, Sequence[str]], None] = None) -> None:
    """One CSV row per grid point ``start + k * step``: the grid-CSV format.

    A ``timestamp`` column (see ``_utc_grid_stamps``), then ``columns`` as
    ``repr`` of their float64 values, or as ``labels[name][code]`` for a
    coded column; a grid that ``_utc_grid_stamps`` refuses is refused
    before the file is opened.  Rows end in CRLF like the csv module's;
    no field can hold a delimiter, quote or line break, and a label
    holding a NUL is refused.  Rows are laid out ``_WRITE_BLOCK_ROWS`` at
    a time, so memory stays bounded (see ``_grid_rows``), and each float
    is formatted once per run of equal cells, on arrays by
    ``_format_floats``.  Logs ``wrote <name> rows <n> formatted <k> of
    <cells> float cells`` at INFO.
    """
    tables = {}
    for name, table in (labels or {}).items():
        texts = [b"," + text.encode() for text in table]
        if any(b"\0" in text for text in texts):
            raise ValueError(f"a label of column {name!r} holds a NUL")
        texts = np.array(texts, dtype="S")
        tables[name] = texts, _lengths(texts)
    columns = {name: col if name in tables else np.asarray(col, dtype=np.float64)
               for name, col in columns.items()}
    n = len(next(iter(columns.values())))
    _utc_grid_stamps(start, step, max(n - 1, 0), n)  # the last point: refuses a bad grid
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    formatted = 0
    with path.open("wb") as fh:
        fh.write((",".join(["timestamp", *columns]) + "\r\n").encode())
        for lo in range(0, n, _WRITE_BLOCK_ROWS):
            hi = min(lo + _WRITE_BLOCK_ROWS, n)
            rows, k = _grid_rows(start, step, lo, hi, columns, tables)
            formatted += k
            fh.write(rows)
    n_floats = n * sum(name not in tables for name in columns)
    log.info("wrote %s rows %d formatted %d of %d float cells",
             path.name, n, formatted, n_floats)


def _grid_rows(start: datetime, step: timedelta, lo: int, hi: int,
               columns: dict[str, np.ndarray],
               tables: dict[str, tuple[np.ndarray, np.ndarray]]
               ) -> tuple[np.ndarray, int]:
    """Rows ``lo`` to ``hi`` of ``write_grid_csv``'s file as one ``uint8``
    array, and the number of float cells formatted.

    Each column is held as a table of texts (an ``S`` array), each row's
    index into it and each cell's length: the float texts of
    ``_float_cells`` or the column's label texts, each with the comma
    before it.  The row lengths give each cell its byte offset, and each
    column is copied into place in one fancy assignment to a window view
    of the rows (``_put``), column by column from the left.  A text is
    copied as a window as wide as the column's longest, so the bytes
    after it land in the cells after it, which are copied later.  The
    stamps and line ends are copied last, at their own lengths, so a
    window may run over the end of a row as long as it stops short of
    the next row's first float or label cell.
    """
    stamps = _utc_grid_stamps(start, step, lo, hi)
    stamp_lens = _lengths(stamps)
    floats = [col[lo:hi].view(np.int64) for name, col in columns.items()
              if name not in tables]
    float_texts, float_cells, formatted = _float_cells(floats)
    float_cells = iter(float_cells)
    cells = []
    for name, col in columns.items():
        if name in tables:
            texts, lens = tables[name]
            codes = col[lo:hi]
            cells.append((texts, codes, lens.take(codes)))
        else:
            cells.append((float_texts, *next(float_cells)))
    length = stamp_lens.astype(np.int64) + 2
    for _, _, lens in cells:
        length += lens
    ends = np.cumsum(length)
    room = 2 + int(stamp_lens.min())  # from a cell's end to the next row's first cell
    rows = np.empty(int(ends[-1]) + room, dtype=np.uint8)
    starts = ends - length
    at = starts + stamp_lens
    for texts, index, lens in cells:
        _put(rows, at, texts, index, lens, room)
        at += lens
    _put(rows, starts, stamps, None, stamp_lens, 0)
    _windows(rows, 2)[at] = b"\r\n"
    return rows[:ends[-1]], formatted


def _lengths(texts: np.ndarray) -> np.ndarray:
    """The length of each text of an ``S`` array, in the least unsigned
    integer type that holds its width."""
    return np.char.str_len(texts).astype(np.min_scalar_type(texts.dtype.itemsize))


def _put(rows: np.ndarray, at: np.ndarray, texts: np.ndarray,
         index: Union[np.ndarray, None], lens: np.ndarray, room: int) -> None:
    """Copy the first ``lens[i]`` bytes of ``texts[index[i]]`` (of
    ``texts[i]`` without ``index``) to ``rows[at[i]]``, as windows as wide
    as the longest when no window runs more than ``room`` bytes past its
    text, else one length at a time."""
    if not len(lens):
        return
    cells = texts if index is None else texts.take(index)
    size = int(lens.max())
    if size - int(lens.min()) <= room:
        _windows(rows, size)[at] = _prefixes(cells, size)
        return
    for size, some in _by_size(lens):
        _windows(rows, size)[at[some]] = _prefixes(cells[some], size)


def _prefixes(texts: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` bytes of each text of an ``S`` array, as a view."""
    return np.ndarray(len(texts), f"S{size}", texts, 0, (texts.dtype.itemsize,))


def _float_cells(columns: list[np.ndarray]
                 ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], int]:
    """The texts of the float64 columns whose bits are ``columns``, each
    after a comma (``_format_floats``); per column each row's index into
    them and each cell's text length; and the number of cells formatted.

    Only the first cell of each run of equal bits is formatted, and a
    run head whose bits equal the same row of the column to its left
    takes that cell's text.  Bits, not ``==``: ``0.0`` equals ``-0.0`` and
    NaN equals nothing, but equal bits always have equal ``repr``.
    """
    n = len(columns[0]) if columns else 0
    runs, values, left = [], [np.empty(0, np.int64)], None
    for bits in columns:
        head = np.empty(n, dtype=bool)
        head[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=head[1:])
        rows = np.flatnonzero(head)
        fresh = np.not_equal(bits[rows], left[rows]) if left is not None \
            else np.ones(len(rows), dtype=bool)
        runs.append((rows, fresh))
        values.append(bits[rows[fresh]])
        left = bits
    values = np.concatenate(values).view(np.float64)
    texts, lens = _format_floats(values, b",")
    cells, k, left = [], 0, None
    for rows, fresh in runs:
        index = np.empty(len(rows), dtype=np.intp)  # of each run's text
        count = int(np.count_nonzero(fresh))
        index[fresh] = np.arange(k, k + count)
        k += count
        if left is not None:  # the left column's text of the same row
            index[~fresh] = left[rows[~fresh]]
        if len(rows) < n:  # each run's index on each of its rows
            index = np.repeat(index, np.diff(rows, append=n))
        cells.append((index, lens.take(index)))
        left = index
    return texts, cells, len(values)


def _digits4() -> np.ndarray:
    """``b"%04d" % i`` for ``i`` in ``range(10_000)``, as an ``S4`` array."""
    pairs = np.arange(100, dtype=np.uint8)[:, None] // np.array([10, 1], np.uint8) % 10
    table = np.empty((100, 100, 4), dtype=np.uint8)
    table[:, :, :2] = pairs[:, None] + ord("0")
    table[:, :, 2:] = pairs[None, :] + ord("0")
    return table.reshape(10_000, 4).view("S4")[:, 0]


_DIGITS4 = _digits4()
# A digit row of _format_batch: 16 zeros, a significand's 17 digits, and
# 19 bytes that no text shows.
_DIGITS = np.dtype({"names": ["d0", "d1", "d2", "d3", "d4"],
                    "formats": ["u1", "S4", "S4", "S4", "S4"],
                    "offsets": [16, 17, 21, 25, 29], "itemsize": 52})
_MIN_EXPONENT = -324  # E of the least subnormal


@functools.cache
def _trailing_zeros4() -> np.ndarray:
    """The trailing zeros of ``b"%04d" % i``, for ``i`` in ``range(10_000)``."""
    zeros = (np.arange(10_000)[:, None] % np.array([10, 100, 1_000, 10_000])
             == 0).sum(axis=1)
    zeros.flags.writeable = False  # cached: shared by every caller
    return zeros


@functools.cache
def _suffixes() -> tuple[np.ndarray, np.ndarray]:
    """``b"e%+03d" % E`` for each ``E`` from ``_MIN_EXPONENT`` to 308, at
    index ``E - _MIN_EXPONENT``, as an ``S5`` array, and their lengths."""
    texts = np.array([f"e{e:+03d}".encode() for e in range(_MIN_EXPONENT, 309)],
                     dtype="S5")
    lens = _lengths(texts)
    texts.flags.writeable = lens.flags.writeable = False  # cached: shared by every caller
    return texts, lens


def _format_floats(values: np.ndarray, lead: bytes = b""
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``lead + repr(v).encode()`` for each float ``v`` of ``values``: an
    ``S32`` array whose item ``i`` starts with text ``i``, followed by
    bytes that are not cleared, and the length of each text.

    ``repr`` writes the decimal with the fewest significant digits that
    reads back as ``v`` and, of several, the one nearest ``v``, the one
    with an even last digit at equal distance.  It lays it out
    positionally when ``E = floor(log10|v|)`` is in [-4, 15], that is
    ``1e-4 <= |v| < 1e16``, and as ``d.ddde+XX`` otherwise.  ``±inf`` and
    NaN have fixed texts, and ``±0.0`` is laid out as the digits ``0``.
    Every other cell is decided on arrays, ``_FORMAT_BATCH`` cells at a
    time, in integers by ``_exact_digits``, which gives the 17 significant
    digits and ``E`` that ``_format_batch`` lays out.  ``lead`` is at most
    8 bytes.
    """
    values = np.asarray(values, dtype=np.float64)
    texts = np.empty(len(values), dtype="S32")
    lens = np.empty(len(values), dtype=np.uint8)
    batch = max(1, min(len(values), _FORMAT_BATCH))
    rows = np.empty((batch + 1, len(lead) + 39), dtype=np.uint8)  # see _format_batch
    digits = np.empty(batch, dtype=_DIGITS)
    digits.view(np.uint8).reshape(batch, _DIGITS.itemsize)[:, :16] = ord("0")
    at = np.empty(batch, dtype=np.int64)
    for lo in range(0, len(values), batch):
        m = min(batch, len(values) - lo)
        _format_batch(values[lo:lo + m], lead, rows[:m], digits[:m], at[:m],
                      lens[lo:lo + m])
        texts[lo:lo + m] = _windows(rows.reshape(-1), 32)[at[:m]]
    return texts, lens


def _format_batch(values: np.ndarray, lead: bytes, rows: np.ndarray,
                  digits: np.ndarray, at: np.ndarray, lens: np.ndarray) -> None:
    """Lay out ``lead + repr(v)`` of each of ``values`` in a row of ``rows``
    (followed by at least a row's bytes), with ``digits`` (rows of
    ``_DIGITS`` whose first 16 bytes are zeros); set where each text
    starts in ``rows`` and its length.

    The decimal point of every row is in one column, ``point``: the 16
    columns before it get the 16 digits up to the last integer digit,
    and the 20 after it the 20 digits after that, both copied from a row
    of 16 zeros and the 17 significant digits (``_DIGITS``), at an offset
    set by ``E`` (0 in the exponent form).  Below 1 the integer digit is
    one of the zeros, and so are the zeros after the point.  The text
    starts at ``lead`` and the sign, copied before the first integer
    digit; it ends after the last significant digit, or after the first
    decimal when that is a trailing zero, and in the exponent form with
    the exponent from ``_suffixes`` after the last digit (over the point
    when there is one digit).  The bytes around a text are not cleared.
    """
    m, width = rows.shape
    point = len(lead) + 17
    bits = values.view(np.uint64)
    a = np.abs(values)
    q = np.zeros(m, dtype=np.int64)  # 0.0: the digits 0, E = 0
    e = np.zeros(m, dtype=np.int64)
    rest = np.flatnonzero((a > 0) & (a < np.inf))  # not 0.0, inf or NaN
    if len(rest):
        q[rest], e[rest] = _exact_digits(a[rest].view(np.uint64))
    raw = digits.view(np.uint8)
    high = q // 100_000_000
    low = q - high * 100_000_000
    high4, low4 = high // 10_000, low // 10_000
    first = high4 // 10_000
    groups = [high4 - first * 10_000, high - high4 * 10_000, low4, low - low4 * 10_000]
    digits["d0"] = first + ord("0")
    for name, group in zip(("d1", "d2", "d3", "d4"), groups):
        digits[name] = _DIGITS4[group]
    trailing_zeros4 = _trailing_zeros4()
    zeros = trailing_zeros4[groups[3]]
    rare = np.flatnonzero(groups[3] == 0)  # the last four digits are zeros
    if len(rare):
        more = 4 * (first[rare] == 0)
        for group in groups[:3]:
            g = group[rare]
            more = np.where(g != 0, trailing_zeros4[g], 4 + more)
        zeros[rare] += more
    n = np.maximum(17 - zeros, 1)  # significant digits
    sign = (bits >> 63).astype(np.int64)
    sci = (e < -4) | (e > 15)
    e_point = np.where(sci, 0, e)  # E of the digit before the point
    src = np.arange(0, m * _DIGITS.itemsize, _DIGITS.itemsize)
    flat = rows.reshape(-1)
    np.ndarray(m, "S16", flat, point - 16, (width,))[...] = \
        _windows(raw, 16)[src + np.maximum(e_point + 1, 0)]
    rows[:, point] = ord(".")
    np.ndarray(m, "S20", flat, point + 1, (width,))[...] = _windows(raw, 20)[src + 17 + e_point]
    integer_at = point - 1 - np.maximum(e_point, 0)
    at[:] = integer_at - len(lead) - sign
    dst = np.arange(0, m * width, width)
    signs = np.array([b"\0" + lead, lead + b"-"], dtype=f"S{len(lead) + 1}")
    _windows(flat, len(lead) + 1)[dst + integer_at - len(lead) - 1] = signs[sign]
    lens[:] = point + 1 + np.maximum(n - e_point - 1, 1) - at
    sci = np.flatnonzero(sci)
    if len(sci):
        n_sci = n[sci]
        suffix_at = point + np.where(n_sci > 1, n_sci, 0)
        suffix = e[sci] - _MIN_EXPONENT
        suffix_texts, suffix_lens = _suffixes()
        _windows(flat, 5)[dst[sci] + suffix_at] = suffix_texts[suffix]
        lens[sci] = suffix_at + suffix_lens[suffix] - at[sci]
    special = np.flatnonzero(~(a < np.inf))  # inf and NaN, laid out as 0.0 above
    if len(special):
        texts = np.array([lead + text for text in (b"nan", b"inf", b"-inf")])
        kind = np.where(np.isnan(a[special]), 0, 1 + sign[special])
        _windows(flat, texts.dtype.itemsize)[dst[special]] = texts[kind]
        at[special] = 0
        lens[special] = np.char.str_len(texts)[kind]
    at += dst


# floor(log10(2**q)) for the least and the greatest binary exponent q of a
# double's significand c (c * 2**q, c < 2**53)
_K_MIN, _K_MAX = -324, 292
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """For each ``k`` in [``_K_MIN``, ``_K_MAX``], at index ``k - _K_MIN``:
    ``g = floor(10**-k * 2**-r) + 1``, the 126 leading bits of ``10**-k``
    rounded up (``r = floor(log2(10**-k)) - 125``), as the 32-bit limbs of
    its high and low 63 bits, high limb first; and ``r + 127``."""
    limbs = np.empty((_K_MAX - _K_MIN + 1, 4), dtype=np.uint64)
    shift = np.empty(_K_MAX - _K_MIN + 1, dtype=np.int64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        if k <= 0:
            power = 10 ** -k
            r = power.bit_length() - 126
            g = (power >> r if r >= 0 else power << -r) + 1
        else:  # 10**k is not a power of two: floor(log2(10**-k)) = -bit_length
            power = 10 ** k
            r = -power.bit_length() - 125
            g = (1 << -r) // power + 1
        high, low = g >> 63, g & _M63
        limbs[i] = high >> 32, high & _M32, low >> 32, low & _M32
        shift[i] = r + 127
    limbs.flags.writeable = shift.flags.writeable = False  # cached: shared by every caller
    return limbs, shift


def _exact_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits (trailing zeros included) and ``E`` of
    ``repr`` of the positive finite doubles whose bits are ``bits``.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020), in integers on ``uint64`` arrays.  With ``v = c * 2**q``, ``k``
    is ``floor(log10(2**q))`` (of ``3/4 * 2**q`` when ``v`` is a power of
    two above the least normal, whose gap below is half the gap above),
    so the rounding interval is 1 to 10 units of ``10**k`` wide and holds
    at most one multiple of 10 units.  ``vb``, ``vbl`` and ``vbr`` are
    ``v`` and the interval's ends in quarter units, rounded to odd from
    the product of ``4c * 2**h`` with ``g`` (``_pow10_table``), which
    Giulietti proves exact enough to decide every comparison below
    (``_round_to_odd``).
    The decimal is the multiple of 10 units in the interval if there is
    one, else the integer in it, else the nearer of the two integers
    about ``v``, the even one at equal distance, as ``repr`` picks.
    Java's ``Double.toString`` keeps two digits at least; ``repr`` does
    not, so the multiples of 10 are tried for every ``v``, subnormals
    too, with no special case for the least subnormals.
    """
    limbs, shift = _pow10_table()
    biased = (bits >> 52).astype(np.int64)
    fraction = bits & np.uint64((1 << 52) - 1)
    q = np.maximum(biased, 1) - 1075
    c = fraction | (biased > 0).astype(np.uint64) << 52
    power2 = (fraction == 0) & (biased > 1)
    k = (q * 661_971_961_083 - power2 * 274_743_187_321) >> 41
    i = k - _K_MIN
    h = (q + shift[i]).astype(np.uint64)
    vbl, vb, vbr = _round_to_odd(limbs.take(i, axis=0), c << 2, power2, h)
    odd = (c & 1).astype(np.int64)
    s = vb >> 2
    s10 = s // 10 * 10
    low10 = vbl + odd <= s10 << 2
    high10 = ((s10 + 10) << 2) + odd <= vbr
    low1 = vbl + odd <= s << 2
    high1 = ((s + 1) << 2) + odd <= vbr
    nearer = vb - (s << 2) - 2
    f = np.where(low10 != high10, s10 + 10 * high10,
                 np.where(low1 != high1, s + high1,
                          s + ((nearer > 0) | ((nearer == 0) & (s & 1 == 1)))))
    n = np.searchsorted(_POW10_INT, f, side="right")
    return f * _POW10_INT[17 - n], k + n - 1


def _round_to_odd(g: np.ndarray, cb: np.ndarray, power2: np.ndarray,
                  h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's ``rop`` of ``g`` (rows of ``_pow10_table``'s limbs) with
    each of ``(cb - 2 + power2) << h``, ``cb << h`` and ``(cb + 2) << h``,
    all below ``2**63``: ``floor(g * cp / 2**127)``, its last bit set when
    the remainder is not zero, as signed integers, where the low 64 bits
    of the product with ``g``'s low 63 bits are dropped.

    Only the products of ``cb << h`` with ``g``'s low and high 63 bits,
    ``g0`` and ``g1``, are formed.  The outer ``cp`` differ from it by
    ``2**s`` (``s`` is ``h + 1`` above and ``h + 1 - power2`` below), so
    ``g0 << s`` and ``g1 << s`` are added to or taken from those 128-bit
    products with their carries, as Ryū's ``mulShiftAll64`` shares one
    product.
    """
    cp = cb << h
    c0, c1 = cp & _M32, cp >> 32
    g0 = (g[:, 2] << 32) | g[:, 3]  # the low and the high 63 bits of g
    g1 = (g[:, 0] << 32) | g[:, 1]
    x0, x1 = g0 * cp, _high_product(g[:, 2], g[:, 3], c0, c1)  # low and high 64 bits
    y0, y1 = g1 * cp, _high_product(g[:, 0], g[:, 1], c0, c1)
    s = h + np.uint64(1)
    r = np.uint64(64) - s
    x0s, y0s = x0 + (g0 << s), y0 + (g1 << s)  # modulo 2**64: less on a carry
    vbr = _rop(x1 + (g0 >> r) + (x0s < x0), y0s, y1 + (g1 >> r) + (y0s < y0))
    s -= power2
    r = np.uint64(64) - s
    x0s, y0s = g0 << s, g1 << s
    vbl = _rop(x1 - (g0 >> r) - (x0 < x0s), y0 - y0s, y1 - (g1 >> r) - (y0 < y0s))
    return vbl, _rop(x1, y0, y1), vbr


def _rop(x1: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """``rop``'s result from the high 64 bits ``x1`` of the product with
    ``g``'s low 63 bits and the 128-bit product ``y1 * 2**64 + y0`` with
    its high 63 bits."""
    z = (y0 >> 1) + x1
    return ((y1 + (z >> 63)) | ((z & _M63) + _M63 >> 63)).astype(np.int64)


def _high_product(a1: np.ndarray, a0: np.ndarray, b0: np.ndarray,
                  b1: np.ndarray) -> np.ndarray:
    """The high 64 bits of ``(a1 * 2**32 + a0) * (b1 * 2**32 + b0)``, from
    32-bit limbs held in ``uint64``."""
    cross0, cross1 = a0 * b1, a1 * b0
    middle = (a0 * b0 >> 32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)


def write_power_csv(series: PowerSeries, path: Union[str, Path]) -> None:
    """Write ``timestamp,power`` rows that load_power_csv reads back losslessly."""
    write_grid_csv(path, series.start, timedelta(seconds=series.step_s),
                   {"power": series.values})
