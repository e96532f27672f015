"""Ramp-rate math: the per-minute ramp definition, the exact window mean
that the dispatch loop's smoothing command follows, the ramp-limit rule,
and the offline analyses (bucket histogram over a long series,
controlled-ramp counts across candidate averaging windows).

Two distinct evaluation paths exist on purpose: the offline histogram
uses raw 1-minute differences, while the dispatch loop evaluates
consecutive samples of the window-averaged signal (normalised to %/min).

One exact rule, ``violations``, decides every ramp-limit flag: the
dispatch loop's detector, each window of the sweep and the leaked-ramp
test of the KPI accounting; ``events_of`` groups the flagged ticks
into events for both the sweep and the accounting.

The dispatch loop's window average is exact: ``fsum_window_mean`` gives
the bits of ``fsum(window) / n`` for every window.  It sums all windows
at once on arrays with error-free transformations and proves, window by
window, that the float result is the correctly rounded sum; only the
windows it cannot prove go through ``math.fsum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf

import numpy as np

from .timeseries import PowerSeries

__all__ = [
    "RampConfig",
    "RampHistogram",
    "ramp_rate",
    "violations",
    "ramp_histogram",
    "samples_per_minute",
    "window_sweep",
    "fsum_window_mean",
    "events_of",
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
        if not self.tick_s * 1e6 < 2 ** 63:  # ems.prepass's int64 clock
            raise ValueError(f"ramp.tick_s ({self.tick_s:g} s) must be below "
                             "2**63 microseconds")
        n = self.window_s / self.tick_s
        if not 0.5 <= n < inf or abs(n - round(n)) > 1e-9:
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


def samples_per_minute(step_s: float) -> int:
    """The samples in a minute of a series of step ``step_s``; a step that
    does not divide 60 s is a ``ValueError``."""
    spm = 60.0 / step_s
    if abs(spm - round(spm)) > 1e-9:
        raise ValueError(f"series step ({step_s} s) must divide 60 s")
    return int(round(spm))


def ramp_histogram(series: PowerSeries, cfg: RampConfig) -> RampHistogram:
    """Bucket the 1-minute ramps of a power series by absolute magnitude."""
    marks = series.values[::samples_per_minute(series.step_s)]
    if len(marks) < 2:
        raise ValueError("series shorter than one minute")
    with np.errstate(over="ignore"):  # an inf ramp is above every bucket edge
        rr = np.abs(np.diff(marks)) / cfg.nameplate_w * 100.0
    return RampHistogram(
        below_5=int(np.count_nonzero(rr < 5.0)),
        ge_5=int(np.count_nonzero(rr >= 5.0)),
        ge_10=int(np.count_nonzero(rr >= 10.0)),
        gt_10=int(np.count_nonzero(rr > 10.0)),
        ge_50=int(np.count_nonzero(rr >= 50.0)),
        total_minutes=len(rr),
    )


_BAND = 2.0 ** -48  # relative half-width of the band decided in fractions


def violations(values: np.ndarray, n: int, cfg: RampConfig,
               step_s: float) -> np.ndarray:
    """Whether each of the finite ``values``, ``step_s`` apart, ends a
    ramp of the trailing ``n``-sample mean that reaches the limit.

    Consecutive means differ by exactly ``(x[i] - x[i-n]) / n``, so
    sample ``i >= n`` violates when ``L = |x[i] - x[i-n]| * 6000`` is at
    least ``R = limit * nameplate * n * step_s``, on the exact values of
    the floats; samples ``i < n`` never do.  Floats decide ``lhs =
    fl(|fl(x[i] - x[i-n])| * 6000) >= rhs = fl(fl(fl(limit * nameplate)
    * n) * step_s)``, and ``fractions.Fraction`` re-decides the ticks
    with ``lhs`` within ``rhs * (1 ± 2**-48)``, each distinct pair of
    samples once; it decides every tick unless ``limit * nameplate >=
    2**-1022`` and ``2**-960 <= rhs <= 2**960``.  Proof that the band
    covers the float error, with ``u = 2**-53``: within those bounds
    every product is a normal float, so ``rhs / R`` is within ``(1 ±
    u)**3``.  A difference that rounds to a normal float puts ``lhs /
    L`` within ``(1 ± u)**2``; the band's rounded edges lie beyond
    ``rhs * (1 ± (2**-48 - 2u))``, and ``(1 + 2**-48 - 2u)(1 - u)**3 >
    (1 + u)**2`` and ``(1 - 2**-48 + 2u)(1 + u)**3 < (1 - u)**2``, so
    ``lhs`` above the band means ``L > R`` and below it ``L < R``.  A
    difference that rounds to zero or a subnormal is exact, and then
    ``L`` and ``lhs`` are below ``2**-1009 < R``.  An ``lhs`` of ``inf``
    comes from ``L > 2**1023 > R``: an overflowing step violates.
    """
    if n < 1:
        raise ValueError("window must span at least one sample")
    x = np.asarray(values, dtype=float)
    out = np.zeros(len(x), dtype=bool)
    limit_w = cfg.limit_pct_per_min * cfg.nameplate_w
    rhs = limit_w * n * step_s
    with np.errstate(over="ignore"):
        lhs = np.subtract(x[n:], x[:-n])
        np.abs(lhs, out=lhs)
        np.multiply(lhs, 6000.0, out=lhs)
    np.greater_equal(lhs, rhs, out=out[n:])
    if limit_w >= 2.0 ** -1022 and 2.0 ** -960 <= rhs <= 2.0 ** 960:
        band = lhs >= rhs * (1.0 - _BAND)
        band &= lhs <= rhs * (1.0 + _BAND)
        near = np.flatnonzero(band)
    else:
        near = np.arange(len(lhs))
    if near.size:
        from fractions import Fraction  # only ticks near the limit need it

        exact_rhs = (Fraction(cfg.limit_pct_per_min) * Fraction(cfg.nameplate_w)
                     * n * Fraction(step_s))
        a, b = x[near + n], x[near]
        pairs = np.empty(near.size, dtype=complex)  # unique sorts it at array speed
        pairs.real, pairs.imag = np.maximum(a, b), np.minimum(a, b)
        pairs, inverse = np.unique(pairs, return_inverse=True)
        exact = np.array([(Fraction(p.real) - Fraction(p.imag)) * 6000 >= exact_rhs
                          for p in pairs.tolist()])
        out[near + n] = exact[inverse]
    return out


def fsum_window_mean(values: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Trailing mean over ``n`` samples, and how many windows went through ``fsum``.

    Each output has the bits of ``fsum(window) / n``; the first
    ``n - 1`` outputs are NaN, and a window that ``fsum`` refuses
    raises its error.  Every window of ``values`` is summed at once, on
    arrays, by a cascade of error-free TwoSum steps (Ogita, Rump and
    Oishi, *Accurate Sum and Dot Product*, 2005): the head ``s`` and the
    rounding errors ``e`` sum exactly to the window's sum ``S``.  When
    the float sum of ``e`` is exact, ``fl(s + sum(e))`` is ``S`` rounded
    to nearest even, as in ``fsum``, ties included.  It is exact when
    ``sum(|e|) <= 2**52 q``, ``q`` the smallest ulp of the window's
    nonzero samples: every sample, head and error is a multiple of
    ``q``, so every partial sum of the errors is one of at most 53 bits
    and no addition rounds.  Each error is at most ``2**-53`` of a head
    of at most ``n`` samples, so the test passes whenever the window's
    largest nonzero sample is below ``2**52 / n**2`` times its smallest.
    The arrays are a few times the size of ``values``: ``prepass`` hands
    it one block of ticks and the ``n - 1`` samples before it at a time.

    ``fsum`` itself sums the other windows: those that the test does not
    prove, those with a sample that is not finite or large enough to
    overflow a sum (``|x| >= _sum_bound(n)``: ``fsum``
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
    big = _sum_bound(n)
    odd = ~((x < big) & (x > -big))
    neg_zero = (x == 0.0) & np.signbit(x)
    y = np.where(odd, 0.0, x) if odd.any() else x  # what the cascade sums

    s, s2, t, bb, e, a, q = np.empty((7, m))
    ulp = np.abs(y)
    np.spacing(ulp, out=ulp)
    ulp[y == 0.0] = np.inf
    s[:] = y[:m]
    q[:] = ulp[:m]
    e.fill(0.0)
    a.fill(0.0)
    for j in range(1, n):
        b = y[j:j + m]
        _two_sum(s, b, s2, bb, t)  # s2 + t == s + b exactly
        np.add(e, t, out=e)
        np.abs(t, out=t)
        np.add(a, t, out=a)
        np.minimum(q, ulp[j:j + m], out=q)
        s, s2 = s2, s
    r = np.add(s, e, out=s2)  # S rounded once where e summed exactly
    np.multiply(q, 2.0 ** 52, out=q)
    sure = a <= q
    if y is not x:
        sure &= ~_windows_holding(odd, n)
    if neg_zero.any():
        sure &= ~(_windows_holding(neg_zero, n) & (r == 0.0))
    np.divide(r, n, out=out[n - 1:])
    resummed = np.flatnonzero(~sure).tolist()
    for i in resummed:
        out[n - 1 + i] = fsum(x[i:i + n].tolist()) / n
    return out, len(resummed)


def _sum_bound(n: int) -> float:
    """No sum of ``n`` samples below this in magnitude reaches ``2**1020``."""
    return 2.0 ** (1020 - n.bit_length())


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


def events_of(ticks: np.ndarray) -> np.ndarray:
    """The event of each violating tick, numbered from 1: ``ticks`` are
    the sorted indices of the violating ticks, and an event is a maximal
    run of consecutive ones."""
    starts = np.ones(len(ticks), dtype=bool)  # a gap in the ticks starts an event
    np.not_equal(np.diff(ticks), 1, out=starts[1:])
    return np.cumsum(starts)


def window_sweep(series: PowerSeries, cfg: RampConfig,
                 windows_s: list[float]) -> list[tuple[float, int]]:
    """Controlled-ramp counts of the pure smoothing filter per window.

    For each candidate window the filter is replayed against the series
    with no battery limits: ``violations`` flags the ramps of the window
    mean, and with unlimited execution every detected ramp event is
    neutralised, so the count equals the number of detected events.
    Wider windows smooth harder and detect fewer.  Raises
    ``OverflowError`` when the sum of a window overflows.
    """
    x = series.values
    peak = float(np.max(np.abs(x)))
    results: list[tuple[float, int]] = []
    for w in windows_s:
        n = w / series.step_s
        if w <= 0 or abs(n - round(n)) > 1e-9:
            raise ValueError(f"window {w} s is not a multiple of the series "
                             f"step ({series.step_s} s)")
        n = int(round(n))
        if peak >= _sum_bound(n):
            try:
                fsum_window_mean(x, n)
            except OverflowError as exc:
                raise OverflowError(f"the sum of a {w:g} s window of PV power "
                                    f"overflows ({exc})") from None
        events = events_of(np.flatnonzero(violations(x, n, cfg, series.step_s)))
        results.append((w, int(events.max(initial=0))))
    return results
