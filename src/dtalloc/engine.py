"""The replica-vectorized Monte-Carlo runner, the one place the updates live.

The deviation-tracking iteration (shared or per-agent stepsizes), with
optional additive state disturbance:

    x(k+1) = x(k) [+ zeta(k)] - D_alpha y(k) - D_beta (I - W(k)) grad f(x(k))
    y(k+1) = W(k) y(k) + x(k+1) - x(k),          y(0) = x(0) - d

and the weighted-gradient baseline (no tracker, conserves 1'x):

    x(k+1) = x(k) [+ zeta(k)] - alpha_w (I - W(k)) grad f(x(k))

Points run as lanes.  `run_points` runs points -- (model, alpha, beta)
triples that share the problem, the edges and the weights, as a sweep's do
-- in one step loop; `run` is the one-point case.  A lane is one (point,
replica) pair: the state is a (G, R, n, u) stack, alpha and beta (WGA's
alpha too) are (G, 1, 1, 1) or (G, 1, n, 1) columns, and theta is a (G, E)
activation threshold.  A point's traces are its four residuals aggregated
over the replicas (`metrics.aggregate`), (T+1) 4 float64 values whatever R
is.  Points run in groups of G = max(1, GROUP_BYTES // `_point_bytes`): a
point holds its traces, its recorded states and its R lanes' chunk of
activations, and a group holds at most 8 MiB of them unless one point is
larger.

Randomness discipline (frozen; determinism and paired comparisons depend on
it): SeedSequence(seed).spawn(replicas) gives one child per replica, and
child.spawn(2) yields the (link-activation, disturbance) generator pair.
Per step, activations are `rng.random(E) < theta` and disturbance draws are
one (n, u) block from the second stream; draws are buffered in chunks, which
leaves the per-stream sequences unchanged.  Each group draws a replica's
uniforms and disturbance block once and shares them among that replica's
lanes; only the comparison with theta is per lane.  A chunk holds as many
steps as fit one replica's float64 draws in DRAW_BYTES (512 KiB; at least
one step), so the draw buffers take about R x 512 KiB of disturbance plus a
(chunk, E, G R) boolean activation buffer (64 KiB per lane), beside the
traces, the mixing kernel's term buffer and the record block's state
buffers (see below); a chunk's draws are freed before the next chunk is
drawn.  Runs with the same seed therefore see identical link failures and
disturbances regardless of algorithm or grouping -- the DTA/WGA comparison
is variance-paired for free.

(I - W(k)) v = B' diag(w(k)) B v is applied edge-wise, B being the signed
incidence (+1 at i, -1 at j for edge (i, j)); w(k) holds the active
negotiated weights, an (E, G, R) array.  The S operands (DTA mixes the
gradient and the tracker in one call, WGA the gradient) are stacked
node-major, (n, S, G, R, u), so one row take copies the rows [v_i; v_j] of
every edge into a (2E, S G R u) term buffer, 2 E S G R u 8 bytes; no E x n
array exists, and the kernel's work and memory are O(E S G R u).  The top
half is replaced in place by d = v_i - v_j, which is exact: each term is one
subtraction, not a sum, so no summation order enters.  d is scaled by the
step's weights and its negation fills the lower half; a single `np.bincount`
over [t, -t] with a precomputed slot index scatters the terms back in a
fixed order.  bincount accumulates in input order, so each agent adds its
outgoing terms and then its incoming ones, each in ascending edge order,
from 0.0 -- the order two `np.add.at` passes would use, which keeps the
result bit-identical to the per-edge message passing written that way.
Every term, bincount slot and residual row belongs to one lane, so a lane's
bits do not depend on the other lanes.

The step runs in place.  Per step, the loop only computes the update, the
gradient of the new state (the next update's input) and, with a
disturbance, each replica's sum of zeta(k) over agents, each with `out=`
into storage allocated once per group: the step's weights go to the
kernel's (E, G, R) buffer, x(k+1) and y(k+1) to their rows of the
(B+1, G, R, n, u) block buffers, and the gradient straight into the
kernel's operand stack.  Row 0 of a block carries the state it starts from
and rows 1 .. B take the states it steps to, so step i reads row i and
writes row i + 1, and x(k) and x(k+1) never share memory, even at B = 1;
after each block its last row is copied to row 0.  alpha and beta are
broadcast to (G, R, n, u) once per group, so their products are same-shape
ufuncs, which at n = 10 cost a third of a broadcast one, and two
(G, R, n, u) temporaries hold them.  Each operation is one of the update
formulas above, evaluated left to right as the plain expressions would be,
so every output has their bits; only the kernel's scatter allocates an
array per step.

Recording runs once per block of steps, not per step.  Once per block, and
at step T, `flush` makes one `metrics.residuals` call on the stacked block
and one `metrics.aggregate` call on its four residuals, stacked with the
replicas as the outer axis, to fill B rows of every point's traces, reduces
the conservation drift over the block's rows, and finds each point's
divergence as the first row where the optimality distance or tracking norm
of any of its replicas is non-finite or above DIVERGENCE_LIMIT.  That row
is recorded and ends the point: its later rows stay NaN, its final state is
that row's, and its lanes are compacted out of the loop, which runs on with
the others.
Every residual reduction runs over the trailing (n, u) axes of one lane and
row, and the aggregate sums each (trace, row, point) over its replicas in
replica order, as a whole (R, T+1) trace's aggregate does, so the block
gives the same bits as per-step residuals aggregated at the end.
B = max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 G R n u))): each block buffer
holds (B+1) G R n u float64 values, B rows of them at most 128 KiB (64 rows)
unless a single step is larger, and a diverging point computes at most 63
steps past the step that diverged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .costs import kkt_solve
from .errors import CapacityError

DIVERGENCE_LIMIT = 1e12
DRAW_BYTES = 2 ** 19    # float64 draw buffer per replica and chunk
BLOCK_BYTES = 2 ** 17   # float64 state buffer (x, and y for DTA) per block
BLOCK_ROWS = 64         # most steps recorded per block
GROUP_BYTES = 2 ** 23   # what one group of points holds, by `_point_bytes`
MEMORY_LIMIT = 2 ** 31  # most bytes one group may need, by `_footprint`
GENERATOR_BYTES = 3 * 2 ** 10   # one replica's seed and generator pair, measured


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


def _draw_chunk(E, n, u, T):
    """Steps per draw chunk: as many as fit one replica's float64 draws in
    DRAW_BYTES, and at most T (but at least one)."""
    return max(1, min(T, DRAW_BYTES // (8 * max(E, n * u, 1))))


def _point_bytes(n, u, E, *, R, T, algorithm, record_states):
    """Bytes one point holds while its group runs: its float64 traces (T+1
    rows of each column), its recorded states and its R lanes' chunk of
    boolean activations."""
    S = 2 if algorithm == "dta" else 1
    states = S * (T + 1) * R * n * u * 8 if record_states else 0
    traces = (T + 1) * len(_metrics.TRACE_COLUMNS) * 8
    return traces + states + R * _draw_chunk(E, n, u, T) * E


def _footprint(n, u, E, *, points, R, T, algorithm, record_states, disturbed):
    """Bytes a group of `points` points needs, as estimated before any compute.

    Counts what grows with the inputs: what each point holds (`_point_bytes`),
    each replica's generators and the draw buffers the points share (one
    replica's uniforms, every replica's disturbance block).  The kernel's and
    the record block's buffers are O((E + B n) u) per lane and are left out.
    """
    chunk = _draw_chunk(E, n, u, T)
    shared = chunk * E * 8 + (R * chunk * n * u * 8 if disturbed else 0)
    return (points * _point_bytes(n, u, E, R=R, T=T, algorithm=algorithm,
                                  record_states=record_states)
            + R * GENERATOR_BYTES + shared)


def _aggregate(res):
    """The four mean-square traces of a {name: (..., R)} residual block, (4, ...).

    One `metrics.aggregate` call on the columns stacked into a C-contiguous
    (R, 4 ...) array: its replica axis is the outer one and at least four
    values wide, so numpy sums the replicas in order, as it does for a whole
    (R, T+1) trace (a single (R, 1) column would be summed pairwise).
    """
    cols = [res[name] for name in _metrics.TRACE_COLUMNS]
    shape, R = cols[0].shape[:-1], cols[0].shape[-1]
    flat = np.concatenate([c.reshape(-1, R) for c in cols])         # (4 ..., R)
    return _metrics.aggregate(np.ascontiguousarray(flat.T)).reshape(len(cols), *shape)


def _cols(values, n):
    """Per-point stepsizes as a (G, 1, 1, 1) stack, or (G, 1, n, 1) if any is per-agent."""
    cols = [np.asarray(v, float) for v in values]
    if all(c.ndim == 0 for c in cols):
        return np.array(cols).reshape(-1, 1, 1, 1)
    return np.stack([np.broadcast_to(c, (n,)) for c in cols]).reshape(-1, 1, n, 1)


@dataclass
class RunResult:
    """Residual traces aggregated over the replicas, plus run-level diagnostics."""

    traces: dict                      # name -> (T+1,) `metrics.aggregate` over R
    algorithm: str
    iterations: int
    replicas: int
    seed: int
    final_x: np.ndarray | None = field(repr=False, default=None)
    final_y: np.ndarray | None = field(repr=False, default=None)
    diverged: bool = False
    diverged_replica: int | None = None
    diverged_at: int | None = None
    max_conservation_drift: float = float("nan")
    zeta_total: np.ndarray | None = field(repr=False, default=None)  # (R, u)
    wga_drift_err: float = float("nan")
    states_x: np.ndarray | None = field(repr=False, default=None)
    states_y: np.ndarray | None = field(repr=False, default=None)


def run(problem, model, *, algorithm="dta", alpha=None, beta=None,
        iterations, replicas=1, seed=0, x0=None, y0=None, disturbance=None,
        record_states=False):
    """Run `replicas` independent chains for `iterations` steps.

    algorithm: "dta" (alpha, beta scalars or per-agent vectors) or
    "wga" (alpha only).  y0 overrides the canonical tracker start x0 - d
    (useful for probing fixed points); x0 and y0 must be finite.
    Divergence (non-finite state or residual beyond 1e12) stops the run;
    remaining trace entries and recorded states stay NaN and the replica and
    iteration are reported on the result instead of raising, so sweeps can
    cross the stability boundary on purpose.  record_states keeps every
    replica's x(k) (and y(k) for DTA), (T+1, R, n, u) each, from which
    `metrics.residuals` gives the per-replica residuals.  This is
    `run_points` with the one point (model, alpha, beta).
    """
    return next(run_points(
        problem, [(model, alpha, beta)], algorithm=algorithm,
        iterations=iterations, replicas=replicas, seed=seed, x0=x0, y0=y0,
        disturbance=disturbance, record_states=record_states))


def run_points(problem, points, *, algorithm="dta", iterations, replicas=1,
               seed=0, x0=None, y0=None, disturbance=None, record_states=False):
    """Run each point (model, alpha, beta) as `run` would; yield their results.

    Returns an iterator of one RunResult per point, in point order.  The
    points must share the edges and weights (theta may differ), and they run
    as lanes of one step loop, in groups that keep what their points hold
    (`_point_bytes`) within GROUP_BYTES.  Every point sees the replica
    streams `run` gives it, so each result is bit-identical to a `run` of
    that point alone; a point that diverges stops alone.  All inputs are
    checked here, before any compute, and CapacityError is raised when a
    group's estimated memory (`_footprint`) passes MEMORY_LIMIT.
    """
    if algorithm not in ("dta", "wga"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    for name, v, low in (("replicas", replicas, 1), ("iterations", iterations, 0)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
    points = list(points)
    if not points:
        raise ValueError("no points to run")
    first = points[0][0]
    for model, alpha, beta in points:
        if alpha is None or (algorithm == "dta" and beta is None):
            raise ValueError("stepsizes must be resolved before running")
        if not (np.array_equal(model.edges, first.edges)
                and np.array_equal(model.weights, first.weights)):
            raise ValueError("points must share the edges and weights")
    n, u = problem.n, problem.u
    x0 = np.zeros((n, u)) if x0 is None else np.asarray(x0, float)
    if x0.shape != (n, u):
        raise ValueError(f"x0 shape {x0.shape}, expected {(n, u)}")
    # y(0) = x(0) - d: agents only ever see their own demand here
    y0 = x0 - problem.demand if y0 is None else np.broadcast_to(np.asarray(y0, float), (n, u))
    if not (np.isfinite(x0).all() and np.isfinite(y0).all()):
        raise ValueError("x0 and y0 must be finite")
    R, T, E = int(replicas), int(iterations), first.n_edges
    size = max(1, GROUP_BYTES // _point_bytes(n, u, E, R=R, T=T, algorithm=algorithm,
                                              record_states=record_states))
    dist = disturbance if disturbance is not None else DisturbanceSpec()
    need = _footprint(n, u, E, points=min(size, len(points)), R=R, T=T,
                      algorithm=algorithm, record_states=record_states,
                      disturbed=dist.active)
    if need > MEMORY_LIMIT:
        # an integer quotient past the float range raises OverflowError
        gib = need / 2 ** 30 if need < 2 ** 1000 else float("inf")
        raise CapacityError(
            f"{R} replicas x {T} steps need about {gib:.3g} GiB, "
            f"past the {MEMORY_LIMIT / 2 ** 30:g} GiB limit")
    kw = dict(kkt=kkt_solve(problem), algorithm=algorithm, T=T, R=R, seed=seed,
              x0=x0, y0=y0, dist=dist, record_states=record_states)
    return (result for at in range(0, len(points), size)
            for result in _run_lanes(problem, points[at:at + size], **kw))


def _run_lanes(problem, points, *, kkt, algorithm, T, R, seed, x0, y0, dist,
               record_states):
    """One group of points as lanes of one step loop; their results in order.

    Working arrays (state, stepsize columns, activations, block buffers)
    hold the live points in order; per-point outputs are indexed by point.
    """
    n, u = problem.n, problem.u
    P = len(points)
    is_dta = algorithm == "dta"
    need_z = dist.active
    scales = dist.scales(T, n, u) if need_z else None
    dsum = problem.total_demand

    model = points[0][0]
    ei = model.edges[:, 0]
    ej = model.edges[:, 1]
    E = model.n_edges
    weights = model.weights
    thetas = np.stack([m.theta for m, _, _ in points])          # (P, E)
    al = _cols([a for _, a, _ in points], n)
    be = _cols([b for _, _, b in points], n) if is_dta else None

    # frozen stream protocol: one child per replica, (W, zeta) pair per child
    children = np.random.SeedSequence(seed).spawn(R)
    wstreams, zstreams = [], []
    for child in children:
        sw, sz = child.spawn(2)
        wstreams.append(np.random.default_rng(sw))
        zstreams.append(np.random.default_rng(sz))

    x = np.broadcast_to(x0, (P, R, n, u)).copy()
    y = np.broadcast_to(y0, (P, R, n, u)).copy() if is_dta else None

    # one result per point, filled in as its rows are recorded: its traces
    # are the rows of its own (4, T+1) table
    tables = [np.full((len(_metrics.TRACE_COLUMNS), T + 1), np.nan) for _ in range(P)]
    results = [RunResult(
        traces=dict(zip(_metrics.TRACE_COLUMNS, table)),
        algorithm=algorithm, iterations=T, replicas=R, seed=seed,
        states_x=np.full((T + 1, R, n, u), np.nan) if record_states else None,
        states_y=np.full((T + 1, R, n, u), np.nan) if record_states and is_dta else None,
    ) for table in tables]
    cons_drift = np.zeros(P)
    zeta_total = np.zeros((P, R, u)) if need_z else None
    live = np.arange(P)

    # mixing kernel state: S stacked operands of shape (G, R, n, u) per call
    S = 2 if is_dta else 1
    nodes = np.concatenate((ei, ej))
    wcol = weights[:, None, None]

    def kernel(G):
        """The S operands, the (E, G, R) weight buffer `w` and `mix_apply()`,
        which returns (I - W) v of each operand v for the weights in `w`, for
        G points' lanes.

        The operands are (G, R, n, u) views of node-major (n, S, G, R, u)
        storage, and the result is (S, G, R, n, u).  The buffers' views are
        made here, once per group size: at n = 10 making them per call costs
        about 2 us of a 17 us kernel.
        """
        lanes = G * R
        # flat output slot of each [t, -t] entry, laid out (2E, S, lanes, u)
        # -> (S, lanes, n, u)
        slots = ((np.arange(S * lanes)[None, :, None] * n + nodes[:, None, None]) * u
                 + np.arange(u)[None, None, :]).ravel()
        operands = np.empty((n, S, G, R, u))
        terms = np.empty((2 * E, S, G, R, u))
        # explicit widths: with no links (E = 0) a -1 width is ambiguous
        rows = operands.reshape(n, S * lanes * u)
        pairs, entries = terms.reshape(2 * E, S * lanes * u), terms.ravel()
        top, bottom = terms[:E], terms[E:]
        w = np.empty((E, G, R))
        w5 = w[:, None, :, :, None]
        shape, size = (S, G, R, n, u), S * lanes * n * u

        def mix_apply():
            # rows [v_i; v_j] of every edge, then d = v_i - v_j in the top half.
            # build_model keeps 0 <= i < j < n, so "clip" never clips; it lets
            # take write straight into `terms`, where "raise" buffers the output
            rows.take(nodes, axis=0, out=pairs, mode="clip")
            np.subtract(top, bottom, out=top)
            np.multiply(top, w5, out=top)
            np.negative(top, out=bottom)
            return np.bincount(slots, entries, minlength=size).reshape(shape)

        return list(operands.transpose(1, 2, 3, 0, 4)), w, mix_apply

    # per-block record: each step writes its state into a block row, `flush`
    # reduces the block -- residual traces, drift maximum, divergence.  Row 0
    # carries the state the block starts from and rows 1 .. B take the states
    # it steps to, so x(k) and x(k+1) never share memory.
    B = max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * P * R * n * u)))

    def buffers(G):
        """All the step loop writes to for G points' lanes: the kernel, the
        (B+1)-row state blocks, two temporaries, and alpha and beta
        broadcast to the state's shape."""
        full = (G, R, n, u)
        return (*kernel(G),
                np.empty((B + 1, *full)),
                np.empty((B + 1, *full)) if is_dta else None,
                np.empty(full), np.empty(full),
                np.broadcast_to(al, full).copy(),
                np.broadcast_to(be, full).copy() if is_dta else None)

    operands, wv, mix_apply, xbuf, ybuf, tmp1, tmp2, alf, bef = buffers(P)
    # the block rows as a list: indexing it per step is cheaper than a view
    xrows, yrows = list(xbuf), list(ybuf) if is_dta else None
    zsum = np.empty((B, R, u)) if need_z else None
    gradient = problem.costs.gradient

    res0, g = _metrics.residuals(x, y, problem, kkt)            # each (P, R)
    agg0 = _aggregate(res0)                                     # (4, P)
    for p, out in enumerate(results):
        tables[p][:, 0] = agg0[:, p]
        if record_states:
            out.states_x[0] = x[p]
            if is_dta:
                out.states_y[0] = y[p]
    xbuf[0] = x
    operands[0][...] = g
    if is_dta:
        ybuf[0] = y

    def flush(k0, m):
        """Record block rows [1, m] as the states of steps k0+1 .. k0+m.

        Returns the mask of live points that diverged in the block.  A
        diverged point's rows after its first bad row stay NaN in the
        traces; its drift maximum covers the rows before that row, and its
        disturbance sum the rows up to it.
        """
        G = live.size
        xs = xbuf[1:m + 1]
        ys = ybuf[1:m + 1] if is_dta else None
        res, _ = _metrics.residuals(xs, ys, problem, kkt)       # each (m, G, R)
        opt = res["optimality_distance"]
        bad = ~np.isfinite(opt) | (opt > DIVERGENCE_LIMIT)
        if is_dta:
            tr = res["tracking_norm"]
            bad |= ~np.isfinite(tr) | (tr > DIVERGENCE_LIMIT)
        bad_rows = bad.any(axis=2)                              # (m, G)
        hit = bad_rows.any(axis=0)
        ok = np.where(hit, bad_rows.argmax(axis=0), m)          # rows checked
        stop = np.where(hit, ok + 1, m)                         # rows recorded
        agg = _aggregate(res)                                   # (4, m, G)

        for lane, p in enumerate(live):
            out = results[p]
            steps = slice(k0 + 1, k0 + 1 + stop[lane])
            tables[p][:, steps] = agg[:, :stop[lane], lane]
            if record_states:
                out.states_x[steps] = xs[:stop[lane], lane]
                if is_dta:
                    out.states_y[steps] = ys[:stop[lane], lane]
            if hit[lane]:
                row = ok[lane]
                out.diverged = True
                out.diverged_at = k0 + int(row) + 1
                out.diverged_replica = int(np.flatnonzero(bad[row, lane])[0])
                out.final_x = xs[row, lane].copy()
                out.final_y = ys[row, lane].copy() if is_dta else None
        if need_z:
            # sequential, so each step's sum enters in step order
            acc = np.add.accumulate(np.concatenate(
                (zeta_total[live][None], np.broadcast_to(zsum[:m, None], (m, G, R, u)))))
            zeta_total[live] = acc[stop, np.arange(G)]
        if is_dta:
            c = np.abs(ys.sum(axis=-2) - (xs.sum(axis=-2) - dsum))  # (m, G, R, u)
            checked = (np.arange(m)[:, None] < ok)[:, :, None, None]
            drift = np.where(checked, c, 0.0).max(axis=(0, 2, 3))
            cons_drift[live] = np.maximum(cons_drift[live], drift)
        return hit

    chunk = _draw_chunk(E, n, u, T)

    with np.errstate(over="ignore", invalid="ignore"):
        done = 0
        i = 0           # steps taken in the current block: x(k) is in row i
        while done < T and live.size:
            acts = zbuf = None      # the last chunk's draws go before the next's come
            L = min(chunk, T - done)
            acts = np.empty((L, E, live.size, R), dtype=bool)
            th = thetas[live].T                                     # (E, G)
            for r in range(R):
                np.less(wstreams[r].random((L, E))[:, :, None], th, out=acts[..., r])
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
                np.multiply(wcol, acts[t], out=wv)                  # (E, G, R)
                x, xn = xrows[i], xrows[i + 1]
                xz = x
                if need_z:
                    xz = np.add(x, zbuf[:, t], out=xn)
                    zbuf[:, t].sum(axis=1, out=zsum[i])
                if is_dta:
                    y, yn = yrows[i], yrows[i + 1]
                    operands[1][...] = y
                    mixg, mixy = mix_apply()
                    # x(k+1) = (xz - alpha y) - beta mixg
                    np.subtract(xz, np.multiply(alf, y, out=tmp1), out=xn)
                    np.subtract(xn, np.multiply(bef, mixg, out=tmp2), out=xn)
                    # y(k+1) = (y - mixy) + (x(k+1) - x(k))
                    np.subtract(y, mixy, out=yn)
                    np.add(yn, np.subtract(xn, x, out=tmp1), out=yn)
                else:
                    np.subtract(xz, np.multiply(alf, mix_apply()[0], out=tmp1), out=xn)
                gradient(xn, out=operands[0])
                i += 1
                k = done + t + 1
                if i == B or k == T:
                    hit = flush(k - i, i)
                    x, y = xn, (yn if is_dta else None)
                    i = 0
                    if hit.any():
                        # compact the diverged points' lanes out of the loop
                        keep = ~hit
                        live = live[keep]
                        if not live.size:
                            break
                        x, g, al = x[keep], operands[0][keep], al[keep]
                        acts = acts[:, :, keep]
                        if is_dta:
                            y, be = y[keep], be[keep]
                        operands, wv, mix_apply, xbuf, ybuf, tmp1, tmp2, alf, bef = \
                            buffers(live.size)
                        xrows, yrows = list(xbuf), list(ybuf) if is_dta else None
                        operands[0][...] = g
                    # the last state carries over into row 0 of the next block
                    xbuf[0] = x
                    if is_dta:
                        ybuf[0] = y
            done += L

    for lane, p in enumerate(live):
        results[p].final_x = xbuf[0, lane].copy()
        results[p].final_y = ybuf[0, lane].copy() if is_dta else None
    for p, out in enumerate(results):
        if is_dta:
            out.max_conservation_drift = float(cons_drift[p])
        if need_z:
            out.zeta_total = zeta_total[p]
            if algorithm == "wga" and not out.diverged:
                # WGA conserves 1'x, so 1'x(T) - 1'x(0) is the injected mass alone
                drift = out.final_x.sum(axis=1) - x0.sum(axis=0)     # (R, u)
                out.wga_drift_err = float(np.abs(drift - out.zeta_total).max())
    return results
