"""The replica-vectorized Monte-Carlo runner, the one place the updates live.

The deviation-tracking iteration (shared or per-agent stepsizes), with
optional additive state disturbance:

    x(k+1) = x(k) [+ zeta(k)] - D_alpha y(k) - D_beta (I - W(k)) grad f(x(k))
    y(k+1) = W(k) y(k) + x(k+1) - x(k),          y(0) = x(0) - d

and the weighted-gradient baseline (no tracker, conserves 1'x):

    x(k+1) = x(k) [+ zeta(k)] - alpha_w (I - W(k)) grad f(x(k))

`run_points` runs P points -- (model, alpha, beta) triples that share the
edges and weights, as a sweep's do -- as the lanes of one step loop; `run`
is its one-point case.  Lane p R + r is replica r of point p; a state is a
(P, R, n, u) stack, and S = 2 states (x, y) step for DTA, S = 1 (x) for WGA.
A point's traces are its four residuals aggregated over its replicas.
`_footprint` estimates what a call holds and MEMORY_LIMIT bounds it; README
"Memory" gives the figures.  A change to the loop must keep five rules, on
which every output's bits rest.

1. Streams (frozen).  SeedSequence(seed).spawn(R) gives one child per
   replica, and child.spawn(2) its (link-activation, disturbance) generator
   pair.  Per step a replica draws E uniforms, and link e is active in a
   lane of point p when its uniform is < p's theta[e].  With a disturbance
   it also draws one (n, u) block -- standard normal, Laplace of scale
   1/sqrt(2), or impulse signs (+1 where a uniform is < 0.5) -- which the
   step's envelope (`DisturbanceSpec.scales`) scales into zeta(k).  A block
   draws its steps with one call per stream, which yields what one call per
   step would, so no output depends on B.  All lanes of a replica share its
   draws, so runs with one seed see the same link failures and zeta(k)
   whatever the algorithm or the other points.

2. Term order.  (I - W(k)) v = B' diag(w(k)) B v is applied edge-wise, B
   being the signed incidence (+1 at i, -1 at j for edge (i, j)).  A row
   take copies [v_i; v_j] of every edge into a (2E, ops, t, u) term buffer;
   its top half becomes d = v_i - v_j (one subtraction, so exact), is
   scaled by w(k), and its negation fills the bottom half.  One
   `np.bincount` over [d w, -d w] with a fixed slot index then sums each
   agent's outgoing terms and then its incoming ones, each in ascending
   edge order, from 0.0: the order of two `np.add.at` passes, as the
   message-passing oracle (tests/naive_reference.py) writes it.  Every
   other operation is one of the update formulas above, evaluated left to
   right as the plain expression would be.  Every term, slot and residual
   belongs to one lane, so a lane's bits depend on neither its tile, nor B,
   nor the other lanes.

3. Block rows.  Steps run in blocks of B.  Row 0 of the (S, B+1, P, R, n, u)
   state block (x as its [0], y as its [1]) carries the state the block
   starts from; step i reads row i and writes row i + 1, so x(k) and x(k+1)
   never share memory, and the gradient of row i + 1's x goes to row i of a
   (B, P, R, n, u) gradient block.  The start is a block of one row.
   `flush(k0, m)` records block rows 1 .. m as steps k0+1 .. k0+m; it is
   the one place a row is recorded, checked and ends a point.  It writes
   the four residuals once, into an (R, 4, B, P) block (replicas outermost,
   columns in TRACE_COLUMNS order) that the divergence test and one
   `metrics.aggregate` read in place, summing each (trace, row, point) over
   the replicas in replica order as a whole trace's aggregate would.  It
   keeps DTA's drift max |1'y - (1'x - 1'd)|, adds each row's zeta(k),
   summed over agents, in step order onto one (R, u) total, and gives an
   ending point its own copies of its final x and zeta total.

4. Divergence.  A point diverges at the first row, row 0 included, where
   the optimality distance or tracking norm of any of its replicas is not
   <= DIVERGENCE_LIMIT (so NaN and inf diverge).  That row is recorded and
   ends the point; its later rows stay NaN.  Its lanes step on, masked and
   unrecorded, and the loop ends once no point runs, so a lone point stops
   at the end of the block it diverges in.

5. Sizes.  `_block_rows` sets B once per call, for the loop and
   `_footprint` alike, from the call's L = P R lanes:

       B = max(1, min(BLOCK_ROWS, T, max(min(LANE_ROWS, BLOCK_BYTES // (8 n u)),
                                         CALL_BYTES // (L (8 S n u + E) + 8 E))))

   The link weights of C = max(1, B // 8) steps are made at once
   (`_weight_rows`).  While every lane's terms and int64 slot index,
   32 E S L u bytes, fit KERNEL_BYTES, one kernel tile holds all S operands
   and L lanes; past it, each operand's lanes split into the fewest
   near-equal tiles of at most KERNEL_BYTES // (32 E u) lanes
   (`_kernel_width`).  A tile's t lanes are a span [a, a + t), the same
   spans for every operand, each with its own (B, E, t) activations and
   (C, E, t) weights.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .costs import kkt_solve
from .errors import CapacityError

DIVERGENCE_LIMIT = 1e12     # bounds a running point's optimality distance and tracking norm
BLOCK_ROWS = 256            # bounds B, the steps per record block
LANE_ROWS = 64              # bounds the per-lane term of B
BLOCK_BYTES = 2 ** 13       # bounds one lane's float64 x rows of a block: per-lane term
CALL_BYTES = 100 * 2 ** 10  # bounds B rows of the whole call: per-call term
KERNEL_BYTES = 2 ** 20      # bounds one kernel tile's terms and slot index
MEMORY_LIMIT = 2 ** 31      # bounds the estimated bytes of a run or a network set-up
GENERATOR_BYTES = 3 * 2 ** 10   # one replica's seed and generators in the estimate, measured
VIEW_BYTES = 168            # one view of a block row in the estimate, measured


@dataclass
class DisturbanceSpec:
    """Additive state disturbance with a geometric envelope.

    Per-coordinate scale at step k is (m_zeta / sqrt(n u)) * q_zeta^k, so the
    mean-square norm of zeta(k) is exactly m_zeta * q_zeta^k.  kinds:
    gaussian | laplace (std matched to gaussian) | impulse (fixed magnitude,
    random sign, zero from `cutoff` on; no other kind takes a cutoff) | none
    (no m_zeta > 0).  q_zeta and m_zeta are range-checked for every kind.
    """

    kind: str = "none"
    m_zeta: float = 0.0
    q_zeta: float = 0.999
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "laplace", "impulse"):
            raise ValueError(f"unknown disturbance kind {reprlib.repr(self.kind)}")
        if self.cutoff is not None:
            if self.kind != "impulse":
                raise ValueError(f"cutoff applies to the impulse kind only, "
                                 f"not {reprlib.repr(self.kind)}")
            if (isinstance(self.cutoff, bool)
                    or not isinstance(self.cutoff, (int, np.integer))
                    or self.cutoff < 0):
                raise ValueError(f"cutoff must be an integer >= 0, "
                                 f"got {reprlib.repr(self.cutoff)}")
        if not (0.0 < self.q_zeta < 1.0):
            raise ValueError("q_zeta must lie in (0, 1)")
        if not 0.0 <= self.m_zeta < np.inf:
            raise ValueError("m_zeta must be finite and >= 0")
        if self.kind == "none" and self.m_zeta > 0:
            raise ValueError("m_zeta > 0 needs a kind other than 'none'")

    @property
    def active(self):
        return self.m_zeta > 0                      # never under kind none

    def scales(self, iterations, n, u):
        """Per-step per-coordinate scale, shape (iterations,)."""
        s = (self.m_zeta / np.sqrt(n * u)) * self.q_zeta ** np.arange(iterations)
        if self.cutoff is not None:                 # impulse only
            s[self.cutoff:] = 0.0
        return s


def _block_rows(n, u, E, *, lanes, S, T):
    """Steps per block, B, for `lanes` lanes of S states (rule 5).  The
    per-call term's block row is every lane's S n u float64 state values and
    E activation bytes, and one replica's E float64 uniforms."""
    lane = min(LANE_ROWS, BLOCK_BYTES // (8 * n * u))
    call = CALL_BYTES // (lanes * (8 * S * n * u + E) + 8 * E)
    return max(1, min(BLOCK_ROWS, T, max(lane, call)))


def _weight_rows(B):
    """Steps whose link weights one multiply makes, C: an eighth of a
    block's B steps, so the float64 weight rows take no more bytes than the
    block's boolean activations (but at least one row)."""
    return max(1, B // 8)


def _kernel_width(E, S, u, lanes):
    """Lanes per mixing-kernel tile for S operands of `lanes` lanes each
    (rule 5): S lanes-wide when all fit KERNEL_BYTES, else the width of the
    fewest near-equal tiles of one operand that fit, at least one lane."""
    per_lane = 32 * E * u
    if per_lane * S * lanes <= KERNEL_BYTES:
        return S * lanes
    tiles = -(-lanes // max(1, KERNEL_BYTES // per_lane))
    return -(-lanes // tiles)


def _footprint(n, u, E, *, points, R, T, algorithm, record_states, disturbed):
    """Bytes a `run_points` call of `points` points needs, as estimated before
    any compute with the loop's own B and C.  Per point: its float64 traces
    and recorded states.  Per lane: B E activation bytes; S + 3 float64
    blocks of about B+1 rows of n u (the states, the gradients, and the
    residual pass's x* and scratch); 8 + 6 u float64 values per row (the
    residual block, the squares its aggregate takes, and agent sums); C rows
    of E float64 link weights; and 3 S + 2 rows of n u float64 values (the
    stepsizes, the gradient's slope and offset, and the kernel's operands
    and outputs).  Per kernel tile, its terms and slot index, and per lane
    span width t, its (E, t) weight row.  Per link, the node index and each
    point's theta.  Per replica, its generators and the shared draw buffers
    (one replica's uniforms, every replica's disturbance as drawn and as
    scaled).  Per block row, the views the step loop indexes.
    """
    S = 2 if algorithm == "dta" else 1
    lanes = points * R
    B = _block_rows(n, u, E, lanes=lanes, S=S, T=T)
    traces = (T + 1) * len(_metrics.TRACE_COLUMNS) * 8
    states = S * (T + 1) * R * n * u * 8 if record_states else 0
    lane = (B * E + (S + 3) * (B + 1) * n * u * 8 + B * (8 + 6 * u) * 8
            + 8 * (_weight_rows(B) * E + (3 * S + 2) * n * u))
    # float64 terms and int64 slots, 2 E u entries each per lane of a tile,
    # and a narrower last tile's own slot index; the float64 weight row of
    # each span width, E per lane of it
    width = _kernel_width(E, S, u, lanes)
    span = min(width, lanes)
    narrow = lanes % span
    tiles = 16 * E * u * (2 * width + narrow) + 8 * E * (span + narrow)
    links = 8 * E * (2 + points)
    shared = B * E * 8 + (2 * R * B * n * u * 8 if disturbed else 0)
    views = (S + 2 if disturbed else S + 1) * (B + 1) * VIEW_BYTES
    return (points * (traces + states) + lanes * lane + tiles + links
            + R * GENERATOR_BYTES + shared + views)


def _setup_footprint(n, E):
    """Bytes `config.resolve` needs for an n-agent network of E links, as
    estimated before it builds anything: building and validating the edge
    arrays peaks at about 12 int64 or float64 values per link, and the
    spectral report then holds three dense n x n float64 matrices at once
    (E{W}, E{W^2} and a product or an eigensolver's copy) beside the
    model's 4 values per link."""
    return 8 * max(12 * E, 3 * n * n + 4 * E)


def check_setup(n, E):
    """Raise CapacityError if an n-agent network of E links and its spectral
    report would pass MEMORY_LIMIT (`_setup_footprint`)."""
    _require(_setup_footprint(n, E),
             f"{reprlib.repr(n)} agents and {reprlib.repr(E)} links")


def check_run(n, u, E, *, points=1, replicas, iterations, algorithm,
              record_states=False, disturbed=False):
    """Raise CapacityError if a `run_points` call of `points` points on n
    agents, u resources and E links would pass MEMORY_LIMIT (`_footprint`).

    `run_points` applies it before any compute; a caller that writes
    outputs applies it first, so a refused run leaves nothing behind.
    """
    _require(_footprint(n, u, E, points=points, R=replicas, T=iterations,
                        algorithm=algorithm, record_states=record_states,
                        disturbed=disturbed),
             f"{f'{points} points x ' if points > 1 else ''}"
             f"{reprlib.repr(replicas)} replicas x {reprlib.repr(iterations)} steps")


def _require(need, what):
    """Raise CapacityError when `need` bytes, estimated for `what`, pass
    MEMORY_LIMIT."""
    if need > MEMORY_LIMIT:
        # an integer quotient past the float range raises OverflowError
        gib = need / 2 ** 30 if need < 2 ** 1000 else float("inf")
        raise CapacityError(f"{what} need about {gib:.3g} GiB, "
                            f"past the {MEMORY_LIMIT / 2 ** 30:g} GiB limit")


def _cols(values, n):
    """Per-point stepsizes, scalar or per-agent, as a (G, 1, n, 1) stack."""
    return np.stack([np.broadcast_to(np.asarray(v, float), (n,))
                     for v in values]).reshape(-1, 1, n, 1)


@dataclass
class RunResult:
    """Residual traces aggregated over the replicas, plus run-level diagnostics."""

    traces: dict                      # name -> (T+1,) `metrics.aggregate` over R
    algorithm: str
    iterations: int
    replicas: int
    seed: int
    final_x: np.ndarray | None = field(repr=False, default=None)
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

    algorithm: "dta" (alpha, beta scalars or per-agent vectors) or "wga"
    (alpha only).  y0 overrides the canonical tracker start x0 - d (useful
    for probing fixed points); x0 and y0 must be finite.  A run that
    diverges (rule 4 of the module docstring) reports the replica and
    iteration instead of raising, and its later trace rows and states stay
    NaN, so sweeps can cross the stability boundary.  record_states keeps
    every replica's x(k) (and y(k) for DTA), (T+1, R, n, u) each, from which
    `metrics.residuals` gives the per-replica residuals.  This is
    `run_points` with the one point (model, alpha, beta).
    """
    return run_points(
        problem, [(model, alpha, beta)], algorithm=algorithm,
        iterations=iterations, replicas=replicas, seed=seed, x0=x0, y0=y0,
        disturbance=disturbance, record_states=record_states)[0]


def run_points(problem, points, *, algorithm="dta", iterations, replicas=1,
               seed=0, x0=None, y0=None, disturbance=None, record_states=False):
    """Run each point (model, alpha, beta) as `run` would; return their results.

    Returns a list of one RunResult per point, in point order.  The points
    must share the edges and weights (theta may differ), and they all run as
    lanes of one step loop.  Every point sees the replica streams `run` gives
    it, so each result is bit-identical to a `run` of that point alone; a
    point that diverges stops alone.  All inputs are checked before any
    compute, and CapacityError is raised when the estimated memory of all
    the points together (`_footprint`) passes MEMORY_LIMIT.
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
    R, T, E, P = int(replicas), int(iterations), first.n_edges, len(points)
    dist = disturbance if disturbance is not None else DisturbanceSpec()
    check_run(n, u, E, points=P, replicas=R, iterations=T, algorithm=algorithm,
              record_states=record_states, disturbed=dist.active)
    return _run_lanes(problem, points, kkt=kkt_solve(problem), algorithm=algorithm,
                      T=T, R=R, seed=seed, x0=x0, y0=y0, dist=dist,
                      record_states=record_states)


def _run_lanes(problem, points, *, kkt, algorithm, T, R, seed, x0, y0, dist,
               record_states):
    """All the points as lanes of one step loop; their results in order.

    Every working array is allocated once per call and holds all P points'
    lanes in point order; `running` masks the points not yet diverged.  One
    `np.errstate` covers the start and every block, so a start whose
    residual squares overflow diverges at row 0 without a warning.
    """
    n, u = problem.n, problem.u
    P = len(points)
    is_dta = algorithm == "dta"
    S = 2 if is_dta else 1                  # states and mixed operands: x (and y)
    need_z = dist.active
    scales = dist.scales(T, n, u) if need_z else None

    model = points[0][0]
    E = model.n_edges
    th = np.stack([m.theta for m, _, _ in points]).T            # (E, P)
    full = (P, R, n, u)
    alf = np.broadcast_to(_cols([a for _, a, _ in points], n), full).copy()
    bef = (np.broadcast_to(_cols([b for _, _, b in points], n), full).copy()
           if is_dta else None)

    # frozen stream protocol: one child per replica, (W, zeta) pair per child
    wstreams, zstreams = [], []
    for child in np.random.SeedSequence(seed).spawn(R):
        sw, sz = child.spawn(2)
        wstreams.append(np.random.default_rng(sw))
        zstreams.append(np.random.default_rng(sz))

    def pair(rows):
        """x's and y's of S stacked state rows; y is None for WGA."""
        return rows[0], rows[1] if is_dta else None

    # one result per point, filled in as its rows are recorded into its own
    # (4, T+1) trace table and, with record_states, (S, T+1, R, n, u) history
    tables = [np.full((len(_metrics.TRACE_COLUMNS), T + 1), np.nan) for _ in range(P)]
    results = [RunResult(traces=dict(zip(_metrics.TRACE_COLUMNS, table)),
                         algorithm=algorithm, iterations=T, replicas=R, seed=seed)
               for table in tables]
    if record_states:
        history = [np.full((S, T + 1, R, n, u), np.nan) for _ in range(P)]
        for out, h in zip(results, history):
            out.states_x, out.states_y = pair(h)
    cons_drift = np.zeros(P) if is_dta else np.full(P, np.nan)
    running = np.ones(P, dtype=bool)

    # mixing kernel (rules 2 and 5): S operands, (P, R, n, u) views of
    # node-major (n, S, P, R, u) storage, mixed into one (S, P, R, n, u)
    # result that mix_apply(j) refills with the weights of row j, one tile
    # per lane span and operand group, each tile's views made here once
    lanes = P * R
    B = _block_rows(n, u, E, lanes=lanes, S=S, T=T)
    C = _weight_rows(B)
    nodes = np.concatenate((model.edges[:, 0], model.edges[:, 1]))
    width = _kernel_width(E, S, u, lanes)
    ops = max(1, width // lanes)            # operands per tile: S or 1
    per_tile = width // ops                 # lanes per span but the last
    spans = [(a, min(per_tile, lanes - a)) for a in range(0, lanes, per_tile)]
    wrows = {t: np.repeat(model.weights[:, None], t, axis=1) for _, t in spans}
    sacts = [np.empty((B, E, t), dtype=bool) for _, t in spans]
    swts = [np.empty((C, E, t)) for _, t in spans]
    fills = [(wrows[t], act, wt) for (_, t), act, wt in zip(spans, sacts, swts)]
    # replica r's lanes in span [a, a + t) are points p0 .. p1 - 1, the
    # stride-R run of the span's columns from p0 R + r - a
    draws = [[] for _ in range(R)]
    for (a, t), act in zip(spans, sacts):
        for r in range(R):
            p0, p1 = -((r - a) // R), -((r - a - t) // R)
            if p0 < p1:
                draws[r].append((th[:, p0:p1], act[:, :, p0 * R + r - a::R]))
    stack = np.empty((n, S, P, R, u))
    operands = list(stack.transpose(1, 2, 3, 0, 4))
    src = stack.reshape(n, S, lanes, u)
    mixed = np.empty((S, *full))
    mixes = list(mixed)
    flat_out = mixed.reshape(S, lanes, n, u)
    buf = np.empty(2 * E * width * u)
    index = {}
    tiles = []
    for s in range(0, S, ops):
        for (a, t), wt in zip(spans, swts):
            if t not in index:
                # flat output slot of each [d w, -d w] entry of a tile's
                # ops t lanes, laid out (2E, ops t, u) -> (ops t, n, u)
                index[t] = ((np.arange(ops * t)[None, :, None] * n
                             + nodes[:, None, None]) * u
                            + np.arange(u)[None, None, :]).ravel()
            # explicit widths: with no links (E = 0) a -1 width is ambiguous
            terms = buf[:2 * E * ops * t * u].reshape(2 * E, ops, t, u)
            flat = flat_out[s:s + ops, a:a + t].reshape(-1)
            tiles.append((src[:, s:s + ops, a:a + t].take, terms, terms.ravel(),
                          terms[:E], terms[E:], list(wt.reshape(C, E, 1, t, 1)),
                          index[t], flat, flat.size))

    # bound once, outputs passed positionally: the same operations on the
    # same operands in the same order as the `out=` form, so the same bits
    subtract, multiply, add, negative = np.subtract, np.multiply, np.add, np.negative
    less = np.less
    bincount = np.bincount

    def mix_apply(j):
        """Mix the operands with the weights of row j of the spans' blocks."""
        for take, pairs, entries, top, bottom, wt, idx, flat, size in tiles:
            # rows [v_i; v_j] of every edge, then d = v_i - v_j on top.
            # build_model keeps 0 <= i < j < n, so "clip" never clips; it
            # lets take write straight into `terms`, where "raise"
            # buffers the output
            take(nodes, 0, pairs, "clip")
            subtract(top, bottom, top)
            multiply(top, wt[j], top)
            negative(top, bottom)
            flat[...] = bincount(idx, entries, size)
        return mixes

    # the block buffers (rule 3), with each state's rows, the gradient's and
    # the scaled disturbance's listed once for the step loop to index
    sbuf = np.empty((S, B + 1, *full))
    gbuf = np.empty((B, *full))             # grad f of the states in rows 1 .. B
    xrows, yrows = pair([list(s) for s in sbuf])
    grows = list(gbuf)
    ubuf = np.empty((B, E))                 # one replica's uniforms at a time
    zbuf = np.empty((R, B, n, u)) if need_z else None          # as drawn
    # scaled, by step; zero until the first block draws, so the start adds none
    zblock = np.zeros((B, 1, R, n, u)) if need_z else None
    zrows = list(zblock) if need_z else None
    zeta_total = np.zeros((R, u)) if need_z else None   # shared by the running points
    gradient = problem.costs.gradient_for(full)
    residuals = _metrics.residuals_for((B, *full), problem, kkt)
    # the block's residuals, replicas outermost and columns in TRACE_COLUMNS
    # order, as `metrics.aggregate` reads them; `res` is the (4, B, P, R)
    # view the residual pass writes through
    block = np.empty((R, len(_metrics.TRACE_COLUMNS), B, P))
    res = block.transpose(1, 2, 3, 0)

    def flush(k0, m):
        """Record block rows [1, m] as steps k0+1 .. k0+m (the start is
        k0 = -1, m = 1); return the mask of running points that diverged."""
        states = sbuf[:, 1:m + 1]
        xs, ys = pair(states)
        fe = residuals(xs, ys, gbuf[:m], res[:, :m])
        # the optimality distance or tracking norm (WGA's is 0.0) of a
        # replica is bad when not <= the limit: NaN compares false
        bad = ~(res[0::2, :m] <= DIVERGENCE_LIMIT).all(axis=0)  # (m, P, R)
        bad_rows = bad.any(axis=2)                              # (m, P)
        hit = bad_rows.any(axis=0) & running
        ok = np.where(hit, bad_rows.argmax(axis=0), m * running)  # rows checked
        stop = ok + hit                                         # rows recorded
        agg = _metrics.aggregate(block[:, :, :m])               # (4, m, P)
        if need_z:
            # each step's (R, u) sum over agents, accumulated in step order:
            # row i holds the total after block row i
            acc = np.add.accumulate(np.concatenate(
                (zeta_total[None], zblock[:m, 0].sum(axis=-2))))  # (m+1, R, u)
            zeta_total[...] = acc[m]
        if is_dta:
            c = np.abs(ys.sum(axis=-2) - fe)                    # (m, P, R, u)
            checked = (np.arange(m)[:, None] < ok)[:, :, None, None]
            drift = np.where(checked, c, 0.0).max(axis=(0, 2, 3))
            np.maximum(cons_drift, drift, out=cons_drift)

        for p in np.flatnonzero(running):
            out = results[p]
            steps = slice(k0 + 1, k0 + 1 + stop[p])
            tables[p][:, steps] = agg[:, :stop[p], p]
            if record_states:
                history[p][:, steps] = states[:, :stop[p], p]
            if hit[p]:
                out.diverged = True
                out.diverged_at = k0 + int(ok[p]) + 1
                out.diverged_replica = int(np.flatnonzero(bad[ok[p], p])[0])
            elif k0 + m < T:
                continue
            row = stop[p] - 1                                   # its last row
            out.final_x = states[0, row, p].copy()
            out.zeta_total = acc[row + 1].copy() if need_z else None
            # a point that diverged at row 0 had no row's drift measured
            out.max_conservation_drift = (float("nan") if out.diverged_at == 0
                                          else float(cons_drift[p]))
            if need_z and not is_dta and not hit[p]:
                # WGA conserves 1'x, so 1'x(T) - 1'x(0) is the injected mass alone
                drift = out.final_x.sum(axis=1) - x0.sum(axis=0)     # (R, u)
                out.wga_drift_err = float(np.abs(drift - out.zeta_total).max())
        return hit

    with np.errstate(over="ignore", invalid="ignore"):
        # the start, x(0) and y(0), is a block of one row; its gradient is
        # step 0's operand
        sbuf[:, 1] = np.stack((x0, y0)[:S])[:, None, None]
        operands[0][...] = gradient(xrows[1], out=grows[0])
        running &= ~flush(-1, 1)
        m = 1
        for k0 in range(0, T, B):
            if not running.any():
                break
            # the last states the start or the previous block recorded
            # carry over into row 0
            sbuf[:, 0] = sbuf[:, m]
            # the block's draws (rule 1): row i holds step k0 + i's
            m = min(B, T - k0)
            for r, lanes_r in enumerate(draws):
                uniforms = wstreams[r].random(out=ubuf[:m])[:, :, None]
                for thr, act in lanes_r:
                    less(uniforms, thr, act[:m])
            if need_z:
                for r in range(R):
                    if dist.kind == "gaussian":
                        zstreams[r].standard_normal(out=zbuf[r, :m])
                    elif dist.kind == "laplace":
                        # unit variance to match the gaussian envelope
                        zbuf[r, :m] = zstreams[r].laplace(0.0, 1.0 / np.sqrt(2.0), (m, n, u))
                    else:  # impulse: fixed magnitude, random sign
                        zbuf[r, :m] = np.where(zstreams[r].random((m, n, u)) < 0.5, 1.0, -1.0)
                np.multiply(zbuf[:, :m].transpose(1, 0, 2, 3)[:, None],
                            scales[k0:k0 + m, None, None, None, None], out=zblock[:m])

            for i in range(m):
                j = i % C
                if not j:
                    # the weights of steps i .. i + c - 1, (c, E, t) per span
                    c = min(C, m - i)
                    for row, act, wt in fills:
                        multiply(row, act[i:i + c], wt[:c])
                # gn holds the step's products until it takes grad f(x(k+1))
                x, xn, gn = xrows[i], xrows[i + 1], grows[i]
                xz = add(x, zrows[i], xn) if need_z else x
                if is_dta:
                    y, yn = yrows[i], yrows[i + 1]
                    operands[1][...] = y
                    mixg, mixy = mix_apply(j)
                    # x(k+1) = (xz - alpha y) - beta mixg
                    subtract(xz, multiply(alf, y, gn), xn)
                    subtract(xn, multiply(bef, mixg, mixg), xn)
                    # y(k+1) = (y - mixy) + (x(k+1) - x(k))
                    subtract(y, mixy, yn)
                    add(yn, subtract(xn, x, gn), yn)
                else:
                    mixg = mix_apply(j)[0]
                    subtract(xz, multiply(alf, mixg, mixg), xn)
                # grad f(x(k+1)) into its gradient row, which `flush` reads,
                # and then into the next step's operand
                operands[0][...] = gradient(xn, gn)

            running &= ~flush(k0, m)
    return results
