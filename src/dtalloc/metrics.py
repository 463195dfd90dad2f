"""Residuals, mean-square aggregation over replicas, and the empirical rate estimator.

The mean-square estimator of a residual r is sqrt(mean_r ||r||^2) over
independent replicas; all norms are Frobenius norms on (n, u) stacks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import kkt_solve

TRACE_COLUMNS = (
    "optimality_distance",
    "feasibility_gap",
    "tracking_norm",
    "gradient_dispersion",
)
R2_LAST = 5000          # loglinear_r2 fits the trace's last R2_LAST points
STALL_RATIO = 1e-3      # non_convergent: terminal / initial residual above this
STALL_LOOKBACK = 10000  # ... and no decrease over this many trailing steps
STALL_TOL = 1e-9        # ... within this relative tolerance


def residuals(x, y, problem):
    """The four residuals of a state, batched over any leading axes.

    x, y: (..., n, u) stacks; y is None when the algorithm carries no
    tracker.  Returns {name: (...) array}.  This is `residuals_for` x's own
    shape, given `costs.gradient(x)`.

    optimality_distance   ||x - x*||_F
    feasibility_gap       ||1'x - 1'd||_2
    tracking_norm         ||y||_F  (0 if the algorithm carries no tracker)
    gradient_dispersion   ||(I - 11'/n) grad f(x)||_F
    """
    x = np.asarray(x, float)
    out = np.empty((len(TRACE_COLUMNS), *x.shape[:-2]))
    residuals_for(x.shape, problem)(x, y, problem.costs.gradient(x), out)
    return dict(zip(TRACE_COLUMNS, out))


def residuals_for(shape, problem):
    """`residuals` for (..., n, u) stacks of one `shape`, as res(x, y, g, out).

    g is grad f(x), which a caller stepping from x already holds.  The four
    residuals go to out[0] .. out[3] in TRACE_COLUMNS order; out is a
    (4, ...) array, x.shape[:-2] after its first axis, and may be strided,
    as the engine's replica-outermost residual block is.  x* (`kkt_solve`)
    is broadcast to `shape` once, and one scratch block of that shape takes
    each difference and then its squares in turn, so a call allocates only
    its feasibility and mean reductions.  x, y and g may hold fewer rows
    than `shape` on the leading axis, as a block's last rows do.  Returns
    fe = 1'x - 1'd, the (..., u) feasibility vector, which the engine's
    conservation drift reuses.

    Each element is the difference, square and sum the plain expressions
    (x - x*, g - mean(g) and their squares) give, reduced over the same
    contiguous (n, u) values, and the mean is `np.mean`'s sum and division,
    so the bits depend on neither `shape` nor out's strides.
    """
    xstar = np.broadcast_to(kkt_solve(problem).x_star, shape).copy()
    dsum = problem.total_demand
    scratch = np.empty(shape)

    def res(x, y, g, out):
        sc = scratch[:len(x)]

        def norm(v, o):
            """||v||_F of each (n, u) stack into o, v's squares taking the scratch."""
            np.sqrt(np.add.reduce(np.multiply(v, v, out=sc), axis=(-2, -1), out=o), out=o)

        fe = np.add.reduce(x, axis=-2) - dsum
        mean = np.add.reduce(g, axis=-2, keepdims=True) / x.shape[-2]
        # out[i, ...] is an array view even where out[i] would be a scalar
        norm(np.subtract(x, xstar[:len(x)], out=sc), out[0, ...])
        np.sqrt(np.add.reduce(fe * fe, axis=-1, out=out[1, ...]), out=out[1, ...])
        out[2] = 0.0                        # the tracking norm without a tracker
        if y is not None:
            norm(y, out[2, ...])
        norm(np.subtract(g, mean, out=sc), out[3, ...])
        return fe
    return res


def aggregate(per_replica):
    """Mean-square aggregate: sqrt(mean over axis 0 of squares).

    per_replica: (R, ...) array of per-replica residual magnitudes, such as
    whole (R, T+1) traces.  The engine calls it once per record block, on
    the replica-outermost (R, 4, m, P) slice of its residual block, which
    is strided when the block's m rows are fewer than its B.  The squares
    are a fresh C-contiguous array, and with at least two values after the
    replica axis numpy sums that axis in replica order, so each column gets
    the bits of its whole-trace aggregate (a lone (R, 1) column is summed
    pairwise instead, which can differ in the last ulp for R >= 8).  A
    single replica passes through unchanged.
    """
    a = np.asarray(per_replica, float)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[0] == 0:
        raise ValueError("no replicas to aggregate")
    # np.mean's sum and division, without its per-call Python overhead
    return np.sqrt(np.add.reduce(a * a, axis=0) / len(a))


@dataclass(frozen=True)
class RateEstimate:
    q: float
    k_end: int
    window: int          # effective window after any shrinking
    shrunk: bool         # window was cut short by a zero residual
    exact_convergence: bool  # terminal residual exactly zero -> q = 0


def empirical_rate(trace, k_end=None, window=None):
    """Geometric mean of successive residual ratios over the final window.

    q = (r[k_end] / r[k_end - N])^(1/N) by telescoping; k_end defaults to
    the trace's last row, as in `non_convergent`, and the window N to
    min(1000, k_end), the one place that default is kept.  Zero residuals
    cannot enter a geometric mean: if the terminal residual is exactly zero
    the run converged to machine zero and the rate is reported as 0; an
    interior zero shrinks the window to the trailing all-positive span, and
    a zero just before a nonzero terminal residual leaves no span: q is NaN.
    """
    r = np.asarray(trace, float)
    k_end = len(r) - 1 if k_end is None else k_end
    if not 1 <= k_end < len(r):
        raise ValueError(f"k_end={k_end} outside [1, {len(r) - 1}] for a trace of length {len(r)}")
    window = min(1000, k_end) if window is None else window
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


def loglinear_r2(trace):
    """R^2 of a straight-line fit to log(residual) over the last R2_LAST points.

    A least-squares fit with an intercept leaves ss_res <= ss_tot, so R^2 is
    clamped at 0: on a residual that sits at its float floor, the tail is a
    plateau of a few float values, ss_tot is at rounding level and the fit's
    own rounding would otherwise read far below 0.
    """
    r = np.asarray(trace, float)
    tail = r[-R2_LAST:]
    k = np.arange(len(r))[-R2_LAST:]
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
    return max(0.0, 1.0 - ss_res / ss_tot)


def non_convergent(trace, k_end=None):
    """Flag a run whose residual stalled instead of decaying.

    True when the terminal residual is still above STALL_RATIO x initial
    AND it failed to decrease over the trailing STALL_LOOKBACK steps (within
    the relative tolerance STALL_TOL, which ignores float noise).
    """
    r = np.asarray(trace, float)
    if k_end is None:
        k_end = len(r) - 1
    if r[0] == 0.0:
        return False
    stalled_high = r[k_end] / r[0] > STALL_RATIO
    back = min(STALL_LOOKBACK, k_end)
    no_progress = r[k_end] >= (1.0 - STALL_TOL) * r[k_end - back]
    return bool(stalled_high and no_progress)
