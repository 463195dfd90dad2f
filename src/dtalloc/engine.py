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
activations) beside the traces.  Runs with the same seed therefore
see identical link failures and disturbances regardless of algorithm — the
DTA/WGA comparison is variance-paired for free.

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
call, and the gradient computed for the trace at step k is reused for the
update at step k + 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .costs import kkt_solve
from .network import mixing_matrix

DIVERGENCE_LIMIT = 1e12
DRAW_BYTES = 2 ** 19    # float64 draw buffer per replica and chunk


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
            if self.cutoff is not None and not (
                    isinstance(self.cutoff, (int, np.integer)) and self.cutoff >= 0):
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
    cross the stability boundary on purpose.
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

    def record(idx):
        res, g = _metrics.residuals(x, y, problem, kkt)
        for name, v in res.items():
            traces[name][:, idx] = v
        if record_states:
            states_x[idx] = x
            if is_dta:
                states_y[idx] = y
        return res["optimality_distance"], g

    _, g = record(0)
    cons_drift = 0.0
    mean_rec_err = 0.0
    ds_err = 0.0
    track_mean_rec = is_dta and shared_alpha and not need_z
    ybar_prev = y.mean(axis=1) if track_mean_rec else None  # (R, u)
    zeta_total = np.zeros((R, u)) if need_z else None

    diverged = False
    div_replica = div_at = None
    chunk = max(1, DRAW_BYTES // (8 * max(E, n * u, 1)))

    with np.errstate(over="ignore", invalid="ignore"):
        done = 0
        while done < T and not diverged:
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
                k = done + t
                wv = weights * acts[:, t, :]  # (R, E)
                xz = x + zbuf[:, t] if need_z else x
                if need_z:
                    zeta_total += zbuf[:, t].sum(axis=1)
                if is_dta:
                    mixg, mixy = mix_apply(wv.T, np.stack((g, y)))
                    xn = xz - al * y - be * mixg
                    y = (y - mixy) + (xn - x)
                    x = xn
                else:
                    x = xz - alpha * mix_apply(wv.T, g[None])[0]

                opt, g = record(k + 1)
                bad = ~np.isfinite(opt) | (opt > DIVERGENCE_LIMIT)
                if is_dta:
                    tr = traces["tracking_norm"][:, k + 1]
                    bad |= ~np.isfinite(tr) | (tr > DIVERGENCE_LIMIT)
                if bad.any():
                    diverged = True
                    div_replica = int(np.flatnonzero(bad)[0])
                    div_at = k + 1
                    break

                if is_dta:
                    c = y.sum(axis=1) - (x.sum(axis=1) - dsum)
                    cons_drift = max(cons_drift, float(np.abs(c).max()))
                    if track_mean_rec:
                        ybar = y.mean(axis=1)
                        err = np.abs(ybar - (1.0 - float(alpha)) * ybar_prev)
                        mean_rec_err = max(mean_rec_err, float(err.max()))
                        ybar_prev = ybar
                if check_samples:
                    Wd = mixing_matrix(model, wv)
                    rs = np.abs(Wd.sum(axis=2) - 1.0).max()
                    cs = np.abs(Wd.sum(axis=1) - 1.0).max()
                    sym = np.abs(Wd - Wd.transpose(0, 2, 1)).max()
                    ds_err = max(ds_err, float(rs), float(cs), float(sym))
                    if Wd.diagonal(axis1=1, axis2=2).min() <= 0:
                        raise ValueError(f"non-positive self-weight in a sample at k={k}")
            done += L

    wga_drift = float("nan")
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
