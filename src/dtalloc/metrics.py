"""Residuals, mean-square aggregation over replicas, and the empirical rate estimator.

The mean-square estimator of a residual r is sqrt(mean_r ||r||^2) over
independent replicas; all norms are Frobenius norms on (n, u) stacks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRACE_COLUMNS = (
    "optimality_distance",
    "feasibility_gap",
    "tracking_norm",
    "gradient_dispersion",
)


def residuals(x, y, problem, kkt):
    """The four residuals of a state, batched over any leading axes.

    x, y: (..., n, u) stacks; y is None when the algorithm carries no
    tracker.  Returns ({name: (...) array}, grad f(x)); the gradient is
    handed back so a caller stepping from x does not compute it twice.

    optimality_distance   ||x - x*||_F
    feasibility_gap       ||1'x - 1'd||_2
    tracking_norm         ||y||_F  (0 if the algorithm carries no tracker)
    gradient_dispersion   ||(I - 11'/n) grad f(x)||_F
    """
    x = np.asarray(x, float)
    dx = x - kkt.x_star
    fe = x.sum(axis=-2) - problem.total_demand
    g = problem.costs.gradient(x)
    gd = g - g.mean(axis=-2, keepdims=True)
    if y is None:
        track = np.zeros(x.shape[:-2])
    else:
        track = np.sqrt((y * y).sum(axis=(-2, -1)))
    return {
        "optimality_distance": np.sqrt((dx * dx).sum(axis=(-2, -1))),
        "feasibility_gap": np.sqrt((fe * fe).sum(axis=-1)),
        "tracking_norm": track,
        "gradient_dispersion": np.sqrt((gd * gd).sum(axis=(-2, -1))),
    }, g


def aggregate(per_replica):
    """Mean-square aggregate: sqrt(mean over axis 0 of squares).

    per_replica: (R, T+1) array of per-replica residual magnitudes.
    A single replica passes through unchanged.
    """
    a = np.asarray(per_replica, float)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[0] == 0:
        raise ValueError("no replicas to aggregate")
    return np.sqrt(np.mean(a * a, axis=0))


@dataclass(frozen=True)
class RateEstimate:
    q: float
    k_end: int
    window: int          # effective window after any shrinking
    shrunk: bool         # window was cut short by a zero residual
    exact_convergence: bool  # terminal residual exactly zero -> q = 0


def empirical_rate(trace, k_end=25000, window=1000):
    """Geometric mean of successive residual ratios over the final window.

    q = (r[k_end] / r[k_end - N])^(1/N) by telescoping.  Zero residuals
    cannot enter a geometric mean: if the terminal residual is exactly zero
    the run converged to machine zero and the rate is reported as 0; an
    interior zero shrinks the window to the trailing all-positive span, and
    a zero just before a nonzero terminal residual leaves no span: q is NaN.
    """
    r = np.asarray(trace, float)
    if k_end >= len(r):
        raise ValueError(f"k_end={k_end} outside trace of length {len(r)}")
    if window < 1 or window > k_end:
        raise ValueError("window must satisfy 1 <= window <= k_end")
    if r[k_end] == 0.0:
        return RateEstimate(q=0.0, k_end=k_end, window=0, shrunk=True,
                            exact_convergence=True)
    # the last zero inside the window truncates it to the span after it
    zero = np.flatnonzero(r[k_end - window:k_end + 1] == 0.0)
    n_eff = window - int(zero[-1]) - 1 if zero.size else window
    if n_eff == 0:
        return RateEstimate(q=float("nan"), k_end=k_end, window=0, shrunk=True,
                            exact_convergence=False)
    q = float((r[k_end] / r[k_end - n_eff]) ** (1.0 / n_eff))
    return RateEstimate(q=q, k_end=k_end, window=n_eff,
                        shrunk=(n_eff != window), exact_convergence=False)


def loglinear_r2(trace, last=5000):
    """R^2 of a straight-line fit to log(residual) over the last `last` points."""
    r = np.asarray(trace, float)
    tail = r[-last:]
    k = np.arange(len(r))[-last:]
    keep = tail > 0
    tail, k = tail[keep], k[keep]
    if len(tail) < 3:
        return 1.0  # converged to exact zero: perfectly linear in any sense
    y = np.log(tail)
    coef = np.polyfit(k, y, 1)
    fit = np.polyval(coef, k)
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def non_convergent(trace, k_end=None, ratio_threshold=1e-3, lookback=10000, tol=1e-9):
    """Flag a run whose residual stalled instead of decaying.

    True when the terminal residual is still above ratio_threshold x initial
    AND it failed to decrease over the trailing `lookback` steps (within a
    relative tolerance that ignores float noise).
    """
    r = np.asarray(trace, float)
    if k_end is None:
        k_end = len(r) - 1
    if r[0] == 0.0:
        return False
    stalled_high = r[k_end] / r[0] > ratio_threshold
    back = min(lookback, k_end)
    no_progress = r[k_end] >= (1.0 - tol) * r[k_end - back]
    return bool(stalled_high and no_progress)
