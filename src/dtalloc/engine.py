"""The replica-vectorized Monte-Carlo runner, the one place the updates live.

The deviation-tracking iteration (shared or per-agent stepsizes), with
optional additive state disturbance:

    x(k+1) = x(k) [+ zeta(k)] - D_alpha y(k) - D_beta (I - W(k)) grad f(x(k))
    y(k+1) = W(k) y(k) + x(k+1) - x(k),          y(0) = x(0) - d

and the weighted-gradient baseline (no tracker, conserves 1'x):

    x(k+1) = x(k) [+ zeta(k)] - alpha_w (I - W(k)) grad f(x(k))

Randomness discipline (frozen; determinism and paired comparisons depend on
it): SeedSequence(seed).spawn(replicas) gives one child per replica, and
child.spawn(2) yields the (link-activation, disturbance) generator pair.
Per step, activations are `rng.random(E) < theta` and disturbance draws are
one (n, u) block from the second stream; draws are buffered in chunks, which
leaves the per-stream sequences unchanged.  A chunk holds as many steps as
fit one replica's float64 draws in DRAW_BYTES (512 KiB; at least one step),
so the draw buffers take about R x 576 KiB (float64 disturbance plus boolean
activations) beside the traces and the record block's state buffers
(B R n u x 8 bytes each, at most 128 KiB; see below).  Runs with the same
seed therefore see identical link failures and disturbances regardless of
algorithm — the DTA/WGA comparison is variance-paired for free.

(I - W(k)) v = B' diag(w(k)) B v is applied edge-wise through the signed
incidence B (E x n; +1 at i, -1 at j for edge (i, j)), built once per run;
w(k) holds the active negotiated weights.  The gather B v is one matrix
product over every replica and stacked operand.  It is exact for finite
inputs: each row of B has two nonzeros, so every dot product is one
subtraction v_i - v_j plus exact zeros, whatever the summation order.  The
per-edge terms t = w * (B v) are scattered back by a single `np.bincount`
over [t, -t] with a precomputed slot index.  bincount accumulates in input
order, so each agent adds its outgoing terms and then its incoming ones,
each in ascending edge order, from 0.0 -- the order two `np.add.at` passes
would use, which keeps the result bit-identical to the per-edge message
passing written that way.  DTA mixes the gradient and the tracker in one
call.

Recording runs once per block of steps, not per step.  Per step, the loop
only computes the update, the gradient of the new state (the next update's
input) and, with a disturbance, each replica's sum of zeta(k) over agents;
it copies x(k+1) (and y(k+1)) into a (B, R, n, u) block buffer.  Once per
block, and at step T, `flush` makes one `metrics.residuals` call on the
stacked block to fill B trace columns, reduces the conservation drift and
the mean recursion (chained through the previous block's last tracker mean)
over the block's rows, runs the `check_samples` checks on the block's
stacked weights, and finds divergence as the first row whose optimality
distance or tracking norm is non-finite or above DIVERGENCE_LIMIT.  That
row is recorded and ends the run; the rows after it are dropped, so their
traces and states stay NaN.  Every reduction runs over the trailing (n, u)
axes of one row, so the block gives the same bits as per-step calls.
B = max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 R n u))): each block buffer
holds B R n u float64 values, at most 128 KiB (64 rows) unless a single
step is larger, and a diverging run computes at most 63 steps past the
step that diverged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .costs import kkt_solve
from .network import mixing_matrix

DIVERGENCE_LIMIT = 1e12
DRAW_BYTES = 2 ** 19    # float64 draw buffer per replica and chunk
BLOCK_BYTES = 2 ** 17   # float64 state buffer (x, and y for DTA) per block
BLOCK_ROWS = 64         # most steps recorded per block


@dataclass
class DisturbanceSpec:
    """Additive state disturbance with a geometric envelope.

    Per-coordinate scale at step k is (m_zeta / sqrt(n u)) * q_zeta^k, so the
    mean-square norm of zeta(k) is exactly m_zeta * q_zeta^k.  kinds:
    gaussian | laplace (std matched to gaussian) | impulse (fixed magnitude,
    random sign, zero from `cutoff` on) | none.
    """

    kind: str = "none"
    m_zeta: float = 0.0
    q_zeta: float = 0.999
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "laplace", "impulse"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind != "none":
            if not (0.0 < self.q_zeta < 1.0):
                raise ValueError("q_zeta must lie in (0, 1)")
            if not 0.0 <= self.m_zeta < np.inf:
                raise ValueError("m_zeta must be finite and >= 0")
            if self.cutoff is not None and (
                    isinstance(self.cutoff, bool)
                    or not isinstance(self.cutoff, (int, np.integer))
                    or self.cutoff < 0):
                raise ValueError(f"cutoff must be an integer >= 0, got {self.cutoff!r}")

    @property
    def active(self):
        return self.kind != "none" and self.m_zeta > 0

    def scales(self, iterations, n, u):
        """Per-step per-coordinate scale, shape (iterations,)."""
        s = (self.m_zeta / np.sqrt(n * u)) * self.q_zeta ** np.arange(iterations)
        if self.kind == "impulse" and self.cutoff is not None:
            s[self.cutoff:] = 0.0
        return s


def _col(v, n):
    """Stepsize as a scalar or an (n, 1) column for per-agent plans."""
    a = np.asarray(v, float)
    if a.ndim == 0:
        return float(a)
    return np.broadcast_to(a, (n,)).reshape(n, 1)


@dataclass
class RunResult:
    """Per-replica residual traces plus run-level diagnostics."""

    traces: dict                      # name -> (R, T+1)
    algorithm: str
    iterations: int
    replicas: int
    seed: int
    x_star: np.ndarray = field(repr=False)
    final_x: np.ndarray = field(repr=False)
    final_y: np.ndarray | None = field(repr=False, default=None)
    diverged: bool = False
    diverged_replica: int | None = None
    diverged_at: int | None = None
    max_conservation_drift: float = float("nan")
    max_mean_recursion_err: float = float("nan")
    max_double_stochastic_err: float = float("nan")
    zeta_total: np.ndarray | None = field(repr=False, default=None)  # (R, u)
    wga_drift_err: float = float("nan")
    states_x: np.ndarray | None = field(repr=False, default=None)
    states_y: np.ndarray | None = field(repr=False, default=None)

    def aggregate_traces(self):
        return {k: _metrics.aggregate(v) for k, v in self.traces.items()}


def run(problem, model, *, algorithm="dta", alpha=None, beta=None,
        iterations, replicas=1, seed=0, x0=None, y0=None, disturbance=None,
        check_samples=False, record_states=False):
    """Run `replicas` independent chains for `iterations` steps.

    algorithm: "dta" (alpha, beta scalars or per-agent vectors) or
    "wga" (alpha only).  y0 overrides the canonical tracker start x0 - d
    (useful for probing fixed points); x0 and y0 must be finite.
    Divergence (non-finite state or residual beyond 1e12) stops the run;
    remaining trace entries and recorded states stay NaN and the replica and
    iteration are reported on the result instead of raising, so sweeps can
    cross the stability boundary on purpose.  check_samples assembles the
    dense W(k) of every step before divergence, one block at a time
    (B R n^2 float64 values), and raises ValueError on a non-positive
    self-weight.
    """
    if algorithm not in ("dta", "wga"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if alpha is None or (algorithm == "dta" and beta is None):
        raise ValueError("stepsizes must be resolved before running")
    n, u = problem.n, problem.u
    x0 = np.zeros((n, u)) if x0 is None else np.asarray(x0, float)
    if x0.shape != (n, u):
        raise ValueError(f"x0 shape {x0.shape}, expected {(n, u)}")
    # y(0) = x(0) - d: agents only ever see their own demand here
    y0 = x0 - problem.demand if y0 is None else np.broadcast_to(np.asarray(y0, float), (n, u))
    if not (np.isfinite(x0).all() and np.isfinite(y0).all()):
        raise ValueError("x0 and y0 must be finite")
    kkt = kkt_solve(problem)
    dsum = problem.total_demand
    dist = disturbance if disturbance is not None else DisturbanceSpec()
    need_z = dist.active
    scales = dist.scales(iterations, n, u) if need_z else None

    ei = model.edges[:, 0]
    ej = model.edges[:, 1]
    E = model.n_edges
    weights = model.weights
    theta = model.theta
    R = int(replicas)
    T = int(iterations)

    al = _col(alpha, n)
    be = _col(beta, n) if beta is not None else None
    shared_alpha = np.ndim(alpha) == 0
    is_dta = algorithm == "dta"

    # frozen stream protocol: one child per replica, (W, zeta) pair per child
    children = np.random.SeedSequence(seed).spawn(R)
    wstreams, zstreams = [], []
    for child in children:
        sw, sz = child.spawn(2)
        wstreams.append(np.random.default_rng(sw))
        zstreams.append(np.random.default_rng(sz))

    x = np.broadcast_to(x0, (R, n, u)).copy()
    y = np.broadcast_to(y0, (R, n, u)).copy() if is_dta else None

    traces = {name: np.full((R, T + 1), np.nan) for name in _metrics.TRACE_COLUMNS}
    states_x = states_y = None
    if record_states:
        states_x = np.full((T + 1, R, n, u), np.nan)
        states_y = np.full((T + 1, R, n, u), np.nan) if is_dta else None

    # mixing kernel state: S stacked operands of shape (R, n, u) per call
    S = 2 if is_dta else 1
    inc = np.zeros((E, n))
    inc[np.arange(E), ei] = 1.0
    inc[np.arange(E), ej] = -1.0
    # flat output slot of each [t, -t] entry, laid out (2E, S, R, u) -> (S, R, n, u)
    nodes = np.concatenate((ei, ej))
    slots = ((np.arange(S * R)[None, :, None] * n + nodes[:, None, None]) * u
             + np.arange(u)[None, None, :]).ravel()
    terms = np.empty((2 * E, S, R, u))

    def mix_apply(wT, v):
        """(I - W) v for v of shape (S, R, n, u); wT is (E, R)."""
        d = inc @ v.transpose(2, 0, 1, 3).reshape(n, -1)
        np.multiply(d.reshape(E, S, R, u), wT[:, None, :, None], out=terms[:E])
        np.negative(terms[:E], out=terms[E:])
        out = np.bincount(slots, terms.ravel(), minlength=S * R * n * u)
        return out.reshape(S, R, n, u)

    # per-block record: the loop buffers each step's state, `flush` reduces
    # the block -- residual traces, drift maxima, divergence, sample checks
    B = max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * R * n * u)))
    xbuf = np.empty((B, R, n, u))
    ybuf = np.empty((B, R, n, u)) if is_dta else None
    wbuf = np.empty((B, R, E)) if check_samples else None
    zsum = np.empty((B, R, u)) if need_z else None

    res0, g = _metrics.residuals(x, y, problem, kkt)
    for name, v in res0.items():
        traces[name][:, 0] = v
    if record_states:
        states_x[0] = x
        if is_dta:
            states_y[0] = y
    cons_drift = 0.0
    mean_rec_err = 0.0
    ds_err = 0.0
    track_mean_rec = is_dta and shared_alpha and not need_z
    ybar_prev = y.mean(axis=1) if track_mean_rec else None  # (R, u)
    zeta_total = np.zeros((R, u)) if need_z else None
    div_replica = div_at = None

    def flush(k0, m):
        """Record block rows [0, m) as the states of steps k0+1 .. k0+m.

        Returns the first diverged row, or None.  Rows after it stay NaN in
        the traces; the drift maxima and sample checks cover the rows before
        it, and the disturbance sum the rows up to it.
        """
        nonlocal cons_drift, mean_rec_err, ds_err, ybar_prev, zeta_total
        nonlocal div_at, div_replica
        xs = xbuf[:m]
        ys = ybuf[:m] if is_dta else None
        res, _ = _metrics.residuals(xs, ys, problem, kkt)       # each (m, R)
        opt = res["optimality_distance"]
        bad = ~np.isfinite(opt) | (opt > DIVERGENCE_LIMIT)
        if is_dta:
            tr = res["tracking_norm"]
            bad |= ~np.isfinite(tr) | (tr > DIVERGENCE_LIMIT)
        rows = np.flatnonzero(bad.any(axis=1))
        first = int(rows[0]) if rows.size else None
        stop = m if first is None else first + 1    # rows recorded
        ok = m if first is None else first          # rows checked
        if first is not None:
            div_at = k0 + first + 1
            div_replica = int(np.flatnonzero(bad[first])[0])

        steps = slice(k0 + 1, k0 + 1 + stop)
        for name, v in res.items():
            traces[name][:, steps] = v[:stop].T
        if record_states:
            states_x[steps] = xs[:stop]
            if is_dta:
                states_y[steps] = ys[:stop]
        if need_z:
            # sequential, so each step's sum enters in step order
            zeta_total = np.add.accumulate(
                np.concatenate((zeta_total[None], zsum[:stop])))[-1]
        if ok and is_dta:
            c = ys[:ok].sum(axis=2) - (xs[:ok].sum(axis=2) - dsum)
            cons_drift = max(cons_drift, float(np.abs(c).max()))
            if track_mean_rec:
                ybar = ys[:ok].mean(axis=2)                      # (ok, R, u)
                prev = np.concatenate((ybar_prev[None], ybar[:-1]))
                err = np.abs(ybar - (1.0 - float(alpha)) * prev)
                mean_rec_err = max(mean_rec_err, float(err.max()))
                ybar_prev = ybar[-1]
        if ok and check_samples:
            Wd = mixing_matrix(model, wbuf[:ok])                 # (ok, R, n, n)
            rs = np.abs(Wd.sum(axis=-1) - 1.0).max()
            cs = np.abs(Wd.sum(axis=-2) - 1.0).max()
            sym = np.abs(Wd - Wd.swapaxes(-1, -2)).max()
            ds_err = max(ds_err, float(rs), float(cs), float(sym))
            low = (Wd.diagonal(axis1=-2, axis2=-1) <= 0).any(axis=(1, 2))
            if low.any():
                k = k0 + int(np.flatnonzero(low)[0])
                raise ValueError(f"non-positive self-weight in a sample at k={k}")
        return first

    chunk = max(1, DRAW_BYTES // (8 * max(E, n * u, 1)))

    with np.errstate(over="ignore", invalid="ignore"):
        done = 0
        i = 0           # rows filled in the current block
        while done < T and div_at is None:
            L = min(chunk, T - done)
            acts = np.empty((R, L, E), dtype=bool)
            for r in range(R):
                acts[r] = wstreams[r].random((L, E)) < theta
            if need_z:
                zbuf = np.empty((R, L, n, u))
                for r in range(R):
                    if dist.kind == "gaussian":
                        zbuf[r] = zstreams[r].standard_normal((L, n, u))
                    elif dist.kind == "laplace":
                        # unit variance to match the gaussian envelope
                        zbuf[r] = zstreams[r].laplace(0.0, 1.0 / np.sqrt(2.0), (L, n, u))
                    else:  # impulse: fixed magnitude, random sign
                        zbuf[r] = np.where(zstreams[r].random((L, n, u)) < 0.5, 1.0, -1.0)
                zbuf *= scales[done:done + L][None, :, None, None]

            for t in range(L):
                wv = weights * acts[:, t, :]  # (R, E)
                if need_z:
                    xz = x + zbuf[:, t]
                    zbuf[:, t].sum(axis=1, out=zsum[i])
                else:
                    xz = x
                if is_dta:
                    mixg, mixy = mix_apply(wv.T, np.stack((g, y)))
                    xn = xz - al * y - be * mixg
                    y = (y - mixy) + (xn - x)
                    x = xn
                    ybuf[i] = y
                else:
                    x = xz - alpha * mix_apply(wv.T, g[None])[0]
                g = problem.costs.gradient(x)
                xbuf[i] = x
                if check_samples:
                    wbuf[i] = wv
                i += 1
                k = done + t + 1
                if i == B or k == T:
                    first = flush(k - i, i)
                    if first is not None:
                        x = xbuf[first].copy()
                        y = ybuf[first].copy() if is_dta else None
                        break
                    i = 0
            done += L

    wga_drift = float("nan")
    diverged = div_at is not None
    if algorithm == "wga" and need_z and not diverged:
        # WGA conserves 1'x, so 1'x(T) - 1'x(0) is the injected mass alone
        drift = x.sum(axis=1) - x0.sum(axis=0)       # (R, u)
        wga_drift = float(np.abs(drift - zeta_total).max())

    return RunResult(
        traces=traces,
        algorithm=algorithm,
        iterations=T,
        replicas=R,
        seed=seed,
        x_star=kkt.x_star,
        final_x=x,
        final_y=y,
        diverged=diverged,
        diverged_replica=div_replica,
        diverged_at=div_at,
        max_conservation_drift=cons_drift if is_dta else float("nan"),
        max_mean_recursion_err=mean_rec_err if track_mean_rec else float("nan"),
        max_double_stochastic_err=ds_err if check_samples else float("nan"),
        zeta_total=zeta_total,
        wga_drift_err=wga_drift,
        states_x=states_x,
        states_y=states_y,
    )
