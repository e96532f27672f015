"""Ramp-rate math: the per-minute ramp definition, the moving-average
battery command, violation detection, and the offline analyses (bucket
histogram over a long series, controlled-ramp counts across candidate
averaging windows).

Two distinct evaluation paths exist on purpose: the offline histogram
uses raw 1-minute differences, while the dispatch loop evaluates
consecutive samples of the window-averaged signal (normalised to %/min).

The dispatch loop's window average is exact: ``fsum_window_mean`` gives
the bits of ``fsum(window) / n`` for every window.  It sums all windows
at once on arrays with error-free transformations and proves, window by
window, that the float result is the correctly rounded sum; only the
windows it cannot prove go through ``math.fsum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .timeseries import PowerSeries

__all__ = [
    "RampConfig",
    "RampHistogram",
    "ramp_rate",
    "ma_command",
    "violates",
    "ramp_histogram",
    "window_sweep",
    "moving_average",
    "fsum_window_mean",
    "count_violation_events",
]


@dataclass(frozen=True)
class RampConfig:
    """Nameplate, ramp limit and control timing.

    ``window_s`` is the averaging window of the smoothing command;
    ``tick_s`` the control cycle.
    """

    nameplate_w: float = 6_740.0
    limit_pct_per_min: float = 10.0
    window_s: float = 20.0
    tick_s: float = 2.0

    def __post_init__(self) -> None:
        if self.nameplate_w <= 0:
            raise ValueError("nameplate_w must be positive")
        if self.limit_pct_per_min <= 0:
            raise ValueError("limit_pct_per_min must be positive")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        n = self.window_s / self.tick_s
        if self.window_s <= 0 or abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(f"window_s ({self.window_s}) must be a positive "
                             f"multiple of tick_s ({self.tick_s})")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_s / self.tick_s))

    @property
    def tick_minutes(self) -> float:
        return self.tick_s / 60.0


def ramp_rate(p_now_w: float, p_prev_w: float, cfg: RampConfig,
              dt_min: float = 1.0) -> float:
    """Signed ramp rate in percent of nameplate per minute (elementwise on arrays)."""
    if dt_min <= 0:
        raise ValueError(f"dt_min must be positive, got {dt_min}")
    return (p_now_w - p_prev_w) / cfg.nameplate_w / dt_min * 100.0


def violates(rr_pct_per_min: float, cfg: RampConfig) -> bool:
    """True when the magnitude reaches the configured limit (inclusive).

    Elementwise on arrays; NaN never violates.
    """
    return abs(rr_pct_per_min) >= cfg.limit_pct_per_min


def ma_command(pv_window, p_now_w: float, cfg: RampConfig) -> float:
    """Battery command that pins the net PV output to its recent average.

    ``pv_window`` holds the last ``window_samples`` PV readings
    including the current one.  The command is charge-positive: PV above
    its average charges the excess into the battery, PV below discharges
    the shortfall.  An underfilled window (warm-up) commands nothing.
    """
    window = list(pv_window)
    if len(window) < cfg.window_samples:
        return 0.0
    if len(window) > cfg.window_samples:
        raise ValueError(f"window holds {len(window)} samples, expected "
                         f"{cfg.window_samples}")
    return p_now_w - fsum(window) / len(window)


@dataclass(frozen=True)
class RampHistogram:
    """Counts of 1-minute ramps per magnitude bucket.

    The buckets deliberately overlap (>=5 contains >=10 and so on);
    ramps are bucketed by absolute value.
    """

    below_5: int
    ge_5: int
    ge_10: int
    gt_10: int
    ge_50: int
    total_minutes: int

    def percentages(self) -> dict[str, float]:
        t = self.total_minutes
        return {
            "<5": 100.0 * self.below_5 / t,
            ">=5": 100.0 * self.ge_5 / t,
            ">=10": 100.0 * self.ge_10 / t,
            ">10": 100.0 * self.gt_10 / t,
            ">=50": 100.0 * self.ge_50 / t,
        }


def ramp_histogram(series: PowerSeries, cfg: RampConfig) -> RampHistogram:
    """Bucket the 1-minute ramps of a power series by absolute magnitude."""
    spm = 60.0 / series.step_s
    if abs(spm - round(spm)) > 1e-9:
        raise ValueError(f"series step ({series.step_s} s) must divide 60 s")
    spm = int(round(spm))
    marks = series.values[::spm]
    if len(marks) < 2:
        raise ValueError("series shorter than one minute")
    rr = np.abs(np.diff(marks)) / cfg.nameplate_w * 100.0
    return RampHistogram(
        below_5=int(np.count_nonzero(rr < 5.0)),
        ge_5=int(np.count_nonzero(rr >= 5.0)),
        ge_10=int(np.count_nonzero(rr >= 10.0)),
        gt_10=int(np.count_nonzero(rr > 10.0)),
        ge_50=int(np.count_nonzero(rr >= 50.0)),
        total_minutes=len(rr),
    )


def moving_average(values: np.ndarray, n: int) -> np.ndarray:
    """Trailing mean over ``n`` samples; the first ``n - 1`` outputs are NaN."""
    if n < 1:
        raise ValueError("window must span at least one sample")
    out = np.full(len(values), np.nan)
    if len(values) >= n:
        csum = np.cumsum(np.insert(values, 0, 0.0))
        out[n - 1:] = (csum[n:] - csum[:-n]) / n
    return out


_WINDOW_BLOCK = 16_384  # windows that fsum_window_mean sums at a time


def fsum_window_mean(values: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Trailing mean over ``n`` samples, and how many windows went through ``fsum``.

    Each output has the bits of ``fsum(window) / n``, exact by
    construction unlike ``moving_average``'s cumsum difference; the
    first ``n - 1`` outputs are NaN, and a window that ``fsum`` refuses
    raises its error.  The windows are summed on arrays,
    ``_WINDOW_BLOCK`` at a time (``n - 1`` samples of overlap), by a
    cascade of error-free TwoSum steps (Ogita, Rump and Oishi,
    *Accurate Sum and Dot Product*, 2005): the head ``s`` and the
    rounding errors ``e`` sum exactly to the window's sum ``S``.  When
    the float sum of ``e`` is exact, ``fl(s + sum(e))`` is ``S`` rounded
    to nearest even, as in ``fsum``, ties included.  It is exact when
    ``sum(|e|) <= 2**52 q``, ``q`` the smallest ulp of the window's
    nonzero samples: every sample, head and error is a multiple of
    ``q``, so every partial sum of the errors is one of at most 53 bits
    and no addition rounds.  Each error is at most ``2**-53`` of a head
    of at most ``n`` samples, so the test passes whenever the window's
    largest nonzero sample is below ``2**52 / n**2`` times its smallest.

    ``fsum`` itself sums the other windows: those that the test does not
    prove, those with a sample that is not finite or large enough to
    overflow a sum (``|x| >= 2**1020 / 2**n.bit_length()``: ``fsum``
    raises or gives ``inf`` or ``nan`` there, and the cascade could round
    past the largest float), and zero sums of windows holding a
    ``-0.0``, whose sign ``fsum`` sets (``+0.0`` on Python 3.11) and the
    cascade does not.
    """
    if n < 1:
        raise ValueError("window must span at least one sample")
    x = np.asarray(values, dtype=float)
    out = np.full(len(x), np.nan)
    m = len(x) - n + 1
    if m <= 0:
        return out, 0
    # samples whose windows fsum sums
    big = 2.0 ** (1020 - n.bit_length())
    odd = ~((x < big) & (x > -big))
    neg_zero = (x == 0.0) & np.signbit(x)
    odd_in = _windows_holding(odd, n) if odd.any() else None
    neg_zero_in = _windows_holding(neg_zero, n) if neg_zero.any() else None

    k = min(m, _WINDOW_BLOCK)
    buffers = np.empty((7, k))
    resummed: list[int] = []
    for start in range(0, m, k):
        stop = min(start + k, m)
        w = stop - start
        block = x[start:stop + n - 1]
        if odd_in is not None and odd_in[start:stop].any():
            block = np.where(odd[start:stop + n - 1], 0.0, block)
        s, s2, t, bb, e, a, q = buffers[:, :w]
        ulp = np.spacing(np.abs(block))
        ulp[block == 0.0] = np.inf
        s[:] = block[:w]
        q[:] = ulp[:w]
        e.fill(0.0)
        a.fill(0.0)
        for j in range(1, n):
            b = block[j:j + w]
            _two_sum(s, b, s2, bb, t)  # s2 + t == s + b exactly
            np.add(e, t, out=e)
            np.abs(t, out=t)
            np.add(a, t, out=a)
            np.minimum(q, ulp[j:j + w], out=q)
            s, s2 = s2, s
        r = np.add(s, e, out=s2)  # S rounded once where e summed exactly
        np.multiply(q, 2.0 ** 52, out=q)
        sure = a <= q
        if odd_in is not None:
            sure &= ~odd_in[start:stop]
        if neg_zero_in is not None:
            sure &= ~(neg_zero_in[start:stop] & (r == 0.0))
        np.divide(r, n, out=out[n - 1 + start:n - 1 + stop])
        if not sure.all():
            resummed += (start + np.flatnonzero(~sure)).tolist()
    for i in resummed:
        out[n - 1 + i] = fsum(x[i:i + n].tolist()) / n
    return out, len(resummed)


def _two_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, bb: np.ndarray,
             e: np.ndarray) -> None:
    """Knuth's TwoSum into buffers: ``s = fl(a + b)`` and ``s + e == a + b``
    exactly, barring overflow.  ``bb`` is scratch; ``a`` and ``b`` stay."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=bb)
    np.subtract(s, bb, out=e)
    np.subtract(a, e, out=e)
    np.subtract(b, bb, out=bb)
    np.add(e, bb, out=e)


def _windows_holding(flags: np.ndarray, n: int) -> np.ndarray:
    """Whether each full window of ``n`` samples holds a True flag."""
    counts = np.concatenate(([0], np.cumsum(flags)))
    return counts[n:] > counts[:-n]


def count_violation_events(flags: np.ndarray) -> int:
    """Number of maximal runs of consecutive True flags."""
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0
    starts = flags & ~np.concatenate(([False], flags[:-1]))
    return int(np.count_nonzero(starts))


def window_sweep(series: PowerSeries, cfg: RampConfig,
                 windows_s: list[float]) -> list[tuple[float, int]]:
    """Controlled-ramp counts of the pure smoothing filter per window.

    For each candidate window the filter is replayed against the series
    with no battery limits: violations are detected on consecutive
    samples of the averaged signal, and with unlimited execution every
    detected ramp event is neutralised, so the count equals the number
    of detected events.  Wider windows smooth harder and detect fewer.
    Raises ``OverflowError`` when a window's average is not finite: the
    running sum behind ``moving_average`` overflowed, as it does when
    the sum of a window does.  The message says which of the two.
    """
    results: list[tuple[float, int]] = []
    for w in windows_s:
        n = w / series.step_s
        if w <= 0 or abs(n - round(n)) > 1e-9:
            raise ValueError(f"window {w} s is not a multiple of the series "
                             f"step ({series.step_s} s)")
        n = int(round(n))
        with np.errstate(over="ignore", invalid="ignore"):
            avg = moving_average(series.values, n)
        if not np.isfinite(avg[n - 1:]).all():
            try:
                fsum_window_mean(series.values, n)
            except OverflowError as exc:
                raise OverflowError(f"the sum of a {w:g} s window of PV power "
                                    f"overflows ({exc})") from None
            raise OverflowError(f"the running sum behind the {w:g} s window "
                                "average of PV power overflows")
        rr = ramp_rate(avg[1:], avg[:-1], cfg, series.step_s / 60.0)
        results.append((w, count_violation_events(violates(rr, cfg))))
    return results
