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
alpha too) are (G, 1, n, 1) columns, and theta is a (G, E) activation
threshold.  A point's traces are its four residuals aggregated over the
replicas (`metrics.aggregate`), (T+1) 4 float64 values whatever R is.
`_footprint` estimates what a call holds, all its points at once, and
MEMORY_LIMIT bounds it.

Randomness discipline (frozen; determinism and paired comparisons depend on
it): SeedSequence(seed).spawn(replicas) gives one child per replica, and
child.spawn(2) yields the (link-activation, disturbance) generator pair.
Per step, activations are `rng.random(E) < theta` and disturbance draws are
one (n, u) block from the second stream.  Each block of B steps (see below)
draws its steps' randomness as it starts, into one (B, E, t) boolean
activation block per lane span of the kernel's tiles (below) and an
(R, B, n, u) disturbance buffer, all allocated once per run.  A stream gives
the same sequence however many steps one call draws, so the streams, and
every output, are independent of B.  Each block draws a replica's uniforms
and disturbance block once and shares them among that replica's lanes; only
the comparison with theta is per lane, and it writes straight into the
replica's lanes of each span: lane p R + r, so in span [a, a + t) points
p0 = ceil((a - r) / R) .. p1 - 1, p1 = ceil((a + t - r) / R), a stride-R run
of the span's columns from p0 R + r - a.  One multiply
scales the block's draws by each step's envelope into a (B, 1, R, n, u)
buffer, so step i adds zeta(k) as its row i, a contiguous row that
broadcasts over the points.  Runs with the same seed therefore see identical
link failures and disturbances regardless of algorithm or of the other
points -- the DTA/WGA comparison is variance-paired for free.


(I - W(k)) v = B' diag(w(k)) B v is applied edge-wise, B being the signed
incidence (+1 at i, -1 at j for edge (i, j)); w(k) holds every lane's
active negotiated weights.  The S operands (DTA mixes the
gradient and the tracker in one call, WGA the gradient) are stacked
node-major, (n, S, G R, u), and the kernel runs over tiles of them.  A tile
is `ops` operands (all S, or one) by t consecutive lanes: one row take
copies the rows [v_i; v_j] of every edge into a (2E, ops, t, u) term
buffer, 2 E ops t u 8 bytes; no E x n array exists, and the kernel's work
and memory are O(E S G R u).  The top half is replaced in place by
d = v_i - v_j, which is exact: each term is one subtraction, not a sum, so
no summation order enters.  d is scaled by the tile's slice of the step's
weights and its negation fills the lower half; a single `np.bincount` over
[d w, -d w] with a precomputed slot index scatters the terms in a fixed
order, and its result fills the tile's rows of one (S, G R, n, u) output
allocated with the buffers.  bincount accumulates in input order, so each
agent adds its outgoing terms and then its incoming ones, each in ascending
edge order, from 0.0 -- the order two `np.add.at` passes would use, which
keeps the result bit-identical to the per-edge message passing written that
way.  Every term, bincount slot and residual row belongs to one lane, so a
lane's terms and their order, and with them its bits, are the same in any
tile.  `_kernel_width` sizes the tiles: while every lane's terms and slot
index, 2 (2 E S G R u 8) bytes, fit KERNEL_BYTES, one tile holds all S
operands and all lanes, as for DTA on a 10-agent complete graph up to 364
lanes; past it, each operand's G R lanes are split into near-equal tiles
that fit.  The tiles share one term buffer and one slot index (a narrower
last tile has an index of its own).  A tile's t lanes are a span
[a, a + t), the same spans for each operand, and each span has its own
(B, E, t) activations and (C, E, t) link weights (below), so a tile scales
its terms by one contiguous (E, t) block: at n = 100, R = 20 a 5-lane
tile's multiply takes 13 us, where a view of the same lanes of one
(E, G R) weight row, whose edge stride is every lane, takes 37 us.  A call
of one tile has one span of all lanes, whose blocks are laid out as
(B, E, G, R) ones.  A 100-agent complete graph (E = 4950) at R = 20 runs
four 5-lane spans, whose terms and slot index take 0.8 MB where one tile of
every lane would take 6.3 MB.

The step runs in place.  Per step, the loop only computes the update and
the gradient of the new state (the next update's input), each written
into storage allocated once per call: x(k+1) and y(k+1) go to their rows of
one (S, B+1, G, R, n, u) state block, x as its [0] and y as its [1] (S = 2
for DTA, 1 for WGA), so each state's rows stay contiguous; the gradient of
x(k+1) goes to its row of a (B, G, R, n, u) gradient block, which `flush`
reads and from which it is copied into the kernel's operand stack (a ufunc
writing into that strided stack misses numpy's contiguous loop).  The link
weights are made C steps at a time, C = max(1, B // 8) (`_weight_rows`):
per span, one multiply of its activations by the (E, t) weight row of its
width (each link's weight repeated t times, made once per distinct width)
fills its (C, E, t) float64 block, and the spans' blocks take no more bytes
than the boolean activations when B >= 8.  With the row, every operand is
contiguous and numpy runs one loop over E t values, where an (E, 1) column
broadcast over t lanes runs E loops of t: at n = 100, R = 20 the four
spans' fills take 83 us per step, one column-broadcast fill of every lane
126 us.  Step i of a block mixes with row i % C; a block's last chunk holds
what is left of it.  At n = 100 (B = 10) C is 1, one row as when each step
made its own.  Row 0 of a block carries the state it starts from and rows
1 .. B take the states it steps to, so step i reads row i and writes row
i + 1, and x(k) and x(k+1) never
share memory, even at B = 1; before each block one copy carries the last
row of every state that the previous block, or the start, recorded to row
0.  alpha and beta are broadcast to (G, R, n, u) once
per call, as are the gradient's slope and offset
(`QuadraticCosts.gradient_for`), so their products and sums are same-shape
ufuncs, which at n = 10 cost a third to a half of a broadcast one.  The
step's gradient row holds its products until the gradient overwrites it,
and the stepsize times the mixed gradient is formed in place in the
kernel's output.  Each operation is one of the update formulas above,
evaluated left to right as the plain expressions would be, so every output
has their bits; per step only the kernel's scatter allocates array data.

Recording runs once per block of steps, not per step, and `flush` is the
one place that records a row, checks it and ends a point.  The start is a
block of one row: x(0) and y(0) go to state row 1 and grad f(x(0)) to
gradient row 0, from which it is copied into the first step's operand, and
`flush` records it as step 0, inside the same `np.errstate` as every
block.  Once per block `flush` makes one call of the
`metrics.residuals_for` function made for the block's shape (x* broadcast
to it once, and one scratch block for every difference and square) on the
stacked states and the gradients the steps computed.  It writes the four
residuals once, through the (4, B, G, R) transpose of one (R, 4, B, G)
residual block allocated with the other block buffers, whose replica axis
is the outer one and whose columns follow TRACE_COLUMNS: the divergence
test reads the block's rows in place, and one `metrics.aggregate` call on
its first rows fills B rows of every point's traces.  With `record_states`
one copy per point fills its rows of an (S, T+1, R, n, u) history, whose
[0] and [1] are its `states_x` and `states_y`.  The residual pass's
1'x - 1'd also gives the conservation drift 1'y - (1'x - 1'd) over the
block's rows, row 0 included.  With a disturbance it sums each step's
zeta(k) over agents in one reduction of the block's scaled rows and adds
the sums in step order onto one (R, u) total, which every running point
shares (zeta is drawn per replica); the scaled rows start zero-filled, so
the start adds exactly nothing, and a point that diverges at block row i
keeps the total as it stood after row i.  A point diverges at the first
row, row 0 included, where the optimality distance or tracking norm of any
of its replicas is not <= DIVERGENCE_LIMIT, which takes in NaN and inf.
That row is recorded and ends the point: its later rows stay NaN and its
final state is that row's.  A point that does not diverge ends at the last
row of the block that reaches step T.  Where a point ends, `flush` gives it
its own copies of its final states and zeta total.  A diverged point's
lanes stay in the loop, masked: they step on with the others, whose bits do
not depend on them, but no later block records anything of them, and the
loop ends once no point is running.
Every residual reduction runs over the trailing (n, u) axes of one lane and
row, and the aggregate sums each (trace, row, point) over its replicas in
replica order, as a whole (R, T+1) trace's aggregate does, so the block
gives the same bits as per-step residuals aggregated at the end.
`_block_rows` decides B once per call from the whole call, and
`_footprint` estimates the call's buffers with the same B:

    B = max(1, min(BLOCK_ROWS, T, max(min(LANE_ROWS, BLOCK_BYTES // (8 n u)),
                                      CALL_BYTES // (G R (8 S n u + E) + 8 E))))

The per-lane term lets one lane's B rows of x take up to 8 KiB (64 rows at
n u <= 16, 10 at n = 100) unless a single step is larger, so a block's R
per-replica generator calls are spread over B steps however large R and G
are.  The per-call term gives a call of few lanes longer blocks, up to
BLOCK_ROWS = 256, while B rows of the whole call -- every lane's S n u
float64 state values and E activation bytes, and one replica's E float64
uniforms per row -- fit CALL_BYTES = 100 KiB: a block has a fixed cost,
`flush`'s small numpy calls and the draws, about 77 us at n = 10, which
one lane pays once per 256 steps in place of once per 64.  One lane on
beta_sweep.yaml's 21 links gets 256 rows (the per-lane term decides from
8 DTA lanes there), one on a 10-agent complete graph 181 and
uncoordinated.yaml's 3 lanes on it 105; on that graph the per-lane term
decides (64 rows) from 6 DTA lanes, or 10 WGA ones, and 20 lanes at
n = 100 keep 10.  No block is longer than the run.  The state block
holds S (B+1) G R n u float64 values, the gradient block and the residual
pass's x* and scratch B G R n u each, and the residual block 4 B G R.  A run of one point stops at the end of the
block it diverges in, at most B - 1 steps past that step (up to 255 at one
lane); in a run of several, a diverged point's lanes step on to the end
unless every point stops first.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .costs import kkt_solve
from .errors import CapacityError

DIVERGENCE_LIMIT = 1e12
BLOCK_ROWS = 256        # most steps recorded per block
LANE_ROWS = 64          # most rows the per-lane budget alone gives
BLOCK_BYTES = 2 ** 13   # float64 state rows (x, and y for DTA) per lane and block
CALL_BYTES = 100 * 2 ** 10  # one block row of the whole call (`_block_rows`)
MEMORY_LIMIT = 2 ** 31  # most bytes a run or a network set-up may need
GENERATOR_BYTES = 3 * 2 ** 10   # one replica's seed and generator pair, measured
VIEW_BYTES = 168        # one ndarray view of a block row, measured
# most bytes of one kernel tile's terms and slot index.  Engine CPU time
# with each lane span's own activation and weight blocks, against one
# (C, E, G, R) weight buffer and 2 MiB tiles (complete graphs, DTA, pinned
# to one CPU, median of 6 rounds), and the `tracemalloc` peak in MiB (4.81
# and 15.93 with one buffer):
#
#   budget     n = 100, R = 20    n = 10, R = 400
#   512 KiB    1.020  (4.06)      0.871  (15.34)
#   1 MiB      0.883  (4.20)      0.880  (15.67)
#   2 MiB      0.901  (5.14)      0.988  (16.22)
#
# 1 MiB is fast on both graphs; 2 MiB tiles are no faster at n = 100 and
# keep 0.9 MiB more, and 512 KiB ones are slower there.
KERNEL_BYTES = 2 ** 20


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
    """Steps per block, B, for a call of `lanes` lanes of S states each.

    At least as many rows as fit one lane's float64 state rows in
    BLOCK_BYTES (but no more than LANE_ROWS), and more while that many
    block rows of the whole call fit CALL_BYTES: a row is every lane's
    S n u float64 state values and E activation bytes, and one replica's
    E float64 uniforms.  At most BLOCK_ROWS and the run's T steps, and at
    least one.
    """
    lane = min(LANE_ROWS, BLOCK_BYTES // (8 * n * u))
    call = CALL_BYTES // (lanes * (8 * S * n * u + E) + 8 * E)
    return max(1, min(BLOCK_ROWS, T, max(lane, call)))


def _weight_rows(B):
    """Steps whose link weights one multiply makes, C: an eighth of a
    block's B steps, so the float64 weight rows take no more bytes than the
    block's boolean activations (but at least one row)."""
    return max(1, B // 8)


def _kernel_width(E, S, u, lanes):
    """Lanes per mixing-kernel tile for S operands of `lanes` lanes each.

    A lane's terms and int64 slot index take 2 E u entries of 8 bytes each.
    All S lanes-wide operands run as one tile when theirs fit KERNEL_BYTES;
    otherwise each operand's lanes are split into the fewest near-equal
    tiles that fit (at least one lane each), and the last may be narrower.
    """
    per_lane = 32 * E * u
    if per_lane * S * lanes <= KERNEL_BYTES:
        return S * lanes
    tiles = -(-lanes // max(1, KERNEL_BYTES // per_lane))
    return -(-lanes // tiles)


def _footprint(n, u, E, *, points, R, T, algorithm, record_states, disturbed):
    """Bytes a `run_points` call of `points` points needs, as estimated before
    any compute: per point its float64 traces (T+1 rows of each column) and
    recorded states; per lane its block's B E activation bytes, five float64
    blocks of about B+1 rows of n u (x, y, the gradients, and the residual
    pass's x* and scratch), 8 + 6 u float64 values per row (the residual
    block, the squares its aggregate takes, and agent sums), C rows of E
    float64 link weights (`_weight_rows`) and 2 S + 4 rows of n u float64
    values (the stepsizes, the gradient's slope and offset, the kernel's
    operands and output); once per kernel tile (`_kernel_width`) its terms
    and slot index, and once per distinct lane-span width t its (E, t)
    float64 weight row; per link the kernel's node index (two int64
    entries) and each point's theta; per replica its generators; the draw
    buffers the points share (one replica's block of uniforms, and every
    replica's block of disturbance, as drawn and as scaled); and per block
    row the views the step loop indexes, of each state's, the gradient's and
    the scaled disturbance's rows, which at one lane weigh as much as its
    float64 rows.
    """
    S = 2 if algorithm == "dta" else 1
    lanes = points * R
    B = _block_rows(n, u, E, lanes=lanes, S=S, T=T)
    traces = (T + 1) * len(_metrics.TRACE_COLUMNS) * 8
    states = S * (T + 1) * R * n * u * 8 if record_states else 0
    lane = (B * E + 5 * (B + 1) * n * u * 8 + B * (8 + 6 * u) * 8
            + 8 * (_weight_rows(B) * E + (2 * S + 4) * n * u))
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
    estimated before it builds anything.

    Building and validating the edge arrays peaks at about 12 int64 or
    float64 values per link.  The spectral report then holds three dense
    n x n float64 matrices at once (E{W}, E{W^2} and a product or an
    eigensolver's copy) beside the model's 4 values per link.  Measured with
    `tracemalloc` at n = 1000, both are within 1 % of the peak.
    """
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

    Every working array (state, broadcast stepsizes, thresholds, activations,
    kernel and block buffers) is allocated once and holds all P points' lanes
    in point order, so a lane's point index is its index in the inputs and
    outputs.  The start is recorded as a block of one row, and `flush`
    records every row, checks it for divergence and ends each point, all
    inside one `np.errstate`, so a start past DIVERGENCE_LIMIT, even one
    whose residual squares overflow, stops at row 0 without a warning.
    `running` masks the points that have not diverged: `flush` records rows
    and facts for those alone, and a diverged point's lanes step on,
    unrecorded, until every point has stopped or the run ends.
    The loop has a function of its own because `tracemalloc` finds each
    allocation's line by scanning its function's line table from the start:
    with `run_points`' checks ahead of it in one function, an R = 2000 run
    took about 1.3 times as long under `tracemalloc`.
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

    # mixing kernel: S operands, (P, R, n, u) views of node-major
    # (n, S, P, R, u) storage, mixed into one (S, P, R, n, u) result that
    # each mix_apply(j) call refills for the weights of row j.  It runs the
    # tiles `_kernel_width` sizes, each over one span [a, a + t) of the P R
    # lanes with the span's own (B, E, t) activations and (C, E, t) weights
    # (see the module docstring).  The tiles' views, one per weight row, are
    # made once: at n = 10 making them per call costs about 2 us of a 17 us
    # kernel.
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

    # The step loop's ufuncs, its tiles' `take` and bincount are bound once,
    # and their outputs passed positionally, not as `out=`: an R = 1 step at
    # n = 10 is about 17 calls on 10-element arrays, where the module lookup
    # and numpy's keyword parsing take about 15 % of each (np.add(a, b,
    # out=c) 368 ns, add(a, b, c) 314 ns).  Each call is the same operation on the
    # same operands in the same order, so every bit is the same.
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

    # per block: draw its steps' randomness, step the states, x and y, into
    # rows of the state block, and `flush` -- residual traces, drift maximum,
    # divergence.  Row 0 carries the states the block starts from and rows
    # 1 .. B take those it steps to, so x(k) and x(k+1) never share memory.
    # Indexing a list of the rows per step is cheaper than making a view.
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
        """Record block rows [1, m] as the states of steps k0+1 .. k0+m.

        The start is the block k0 = -1, m = 1.  Returns the mask of running
        points that diverged in the block.  A diverged point's rows after
        its first bad row stay NaN in the traces; its drift maximum covers
        the rows before that row (NaN when there is none: it diverged at row
        0), and its disturbance sum the rows up to it.
        A point ends here, at that row or at step T, and takes its own
        copies of its last states and zeta total.  A point that ended in an
        earlier block has no rows checked or recorded.
        """
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
            out.final_x, out.final_y = pair([s.copy() for s in states[:, row, p]])
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
            # the block's draws: row i holds step k0 + i's
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
                # into its contiguous row, then copied: a ufunc writing into
                # the strided operand stack misses numpy's contiguous loop
                operands[0][...] = gradient(xn, gn)

            running &= ~flush(k0, m)
    return results
