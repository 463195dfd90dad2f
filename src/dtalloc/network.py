"""Random doubly stochastic mixing matrices from independent link failures.

Each undirected link (i,j) carries one negotiated weight m_ij, agreed by both
agents, and an activation probability theta_ij.  Per round, every link is up
independently with its theta; an active link uses m_ij on both sides, a
failed link contributes nothing, and the diagonal absorbs the leftover mass.
Every realization is symmetric and doubly stochastic by construction.

Writing B_e = (e_i - e_j)(e_i - e_j)' for edge e (note B_e^2 = 2 B_e),

    W(k) = I - sum_e xi_e(k) m_e B_e,     xi_e ~ Bernoulli(theta_e) indep.

which gives the two closed forms used throughout:

    E{W}   = I - sum_e theta_e m_e B_e
    E{W^2} = E{W}^2 + sum_e 2 theta_e (1-theta_e) m_e^2 B_e
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """n agents, undirected edges (E,2) with negotiated weights (E,) and
    activation probabilities theta (E,)."""

    n: int
    edges: np.ndarray   # (E, 2) int, i < j
    weights: np.ndarray  # (E,) link weights m_e, > 0
    theta: np.ndarray   # (E,) activation probabilities

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def row_load(self):
        """Per-agent sum of incident link weights (all links up), summed over
        the links' i-ends in edge order and then their j-ends."""
        return np.bincount(self.edges.T.ravel(), np.tile(self.weights, 2),
                           minlength=self.n)


def _validate(model, allow_zero_theta=False):
    e = model.edges
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be an (E, 2) array")
    if e.shape[0] == 0 and model.n > 1:
        raise ValueError("a multi-agent model needs at least one edge")
    if np.any(e[:, 0] >= e[:, 1]) or np.any(e < 0) or np.any(e >= model.n):
        raise ValueError("edges must satisfy 0 <= i < j < n")
    # each link's flat index into the n x n adjacency, sorted: a repeat is a
    # duplicate link (far cheaper than np.unique over the rows)
    keys = np.sort(np.ravel_multi_index((e[:, 0], e[:, 1]), (model.n, model.n)))
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges")
    if np.any(model.weights <= 0) or not np.all(np.isfinite(model.weights)):
        raise ValueError("negotiated weights must be finite and > 0")
    lo = 0.0 if allow_zero_theta else np.nextafter(0.0, 1.0)
    if not np.all((lo <= model.theta) & (model.theta <= 1.0)):
        raise ValueError("theta must lie in (0, 1] (0 allowed only in sweeps)")
    # one weight >= 1 already loads its endpoints past 1; refusing it first
    # keeps the row sums below from overflowing on a huge weight
    if np.any(model.weights >= 1.0):
        bad = int(np.argmax(model.weights))
        raise ValueError(
            f"link {tuple(e[bad].tolist())}: negotiated weight "
            f"{model.weights[bad]:.6g} >= 1; self-weight would not stay positive"
        )
    load = model.row_load()
    if np.any(load >= 1.0):
        bad = int(np.argmax(load))
        raise ValueError(
            f"agent {bad}: incident weights sum to {load[bad]:.6f} >= 1; "
            "self-weight would not stay positive in an all-links-up round"
        )


def build_model(n, edges, weights, theta, allow_zero_theta=False):
    """Assemble and validate a NetworkModel from per-edge data."""
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    # normalize orientation to i < j
    edges = np.sort(edges, axis=1)
    weights = np.broadcast_to(np.asarray(weights, float), (edges.shape[0],)).copy()
    theta = np.broadcast_to(np.asarray(theta, float), (edges.shape[0],)).copy()
    model = NetworkModel(n=int(n), edges=edges, weights=weights, theta=theta)
    _validate(model, allow_zero_theta=allow_zero_theta)
    return model


def metropolis_weights(n, edges):
    """Metropolis link weights m_ij = 1/(max(deg_i, deg_j) + 1), the
    `proposal: metropolis` rule; they keep every self-weight positive on any
    graph.
    """
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    deg = np.bincount(edges.T.ravel(), minlength=n)
    return 1.0 / (np.maximum(deg[edges[:, 0]], deg[edges[:, 1]]) + 1.0)


def complete_edges(n):
    """The n (n - 1) / 2 links i < j of the complete graph, (E, 2), ordered by
    i and then j."""
    return np.column_stack(np.triu_indices(n, 1))


def ring_edges(n):
    """The links (i, i + 1 mod n) of the ring, (E, 2); two agents share one,
    and one agent has none."""
    i = np.arange(n if n > 2 else n - 1)
    return np.column_stack((i, (i + 1) % n))


def complete_graph(n, weight=None, theta=1.0):
    edges = complete_edges(n)
    w = metropolis_weights(n, edges) if weight is None else weight
    return build_model(n, edges, w, theta)


def _subtract_edges(M, model, w):
    """M - sum_e w_e B_e, in place, for a (P, n, n) M and (P, E) weights w.

    Each off-diagonal (i, j) gains w_e, and each diagonal subtracts its
    edges' weights in one fixed order (the i-ends in edge order, then the
    j-ends), which keeps E{W} and E{W^2} -- and everything derived from
    their spectra -- reproducible to the last bit.
    """
    rows = np.arange(len(w))[:, None]
    ei, ej = model.edges[:, 0], model.edges[:, 1]
    M[rows, ei, ej] += w
    M[rows, ej, ei] += w
    np.add.at(M, (rows, ei, ei), -w)
    np.add.at(M, (rows, ej, ej), -w)
    return M


def mixing_matrix(model, w):
    """Dense symmetric I - sum_e w_e B_e for edge weights w of shape (..., E).

    Returns (..., n, n), assembled by `_subtract_edges`.
    """
    w = np.asarray(w, float)
    n, lead = model.n, w.shape[:-1]
    # explicit widths: with no links (E = 0) a -1 width is ambiguous
    flat = w.reshape(int(np.prod(lead)), model.n_edges)
    W = np.broadcast_to(np.eye(n), (len(flat), n, n)).copy()
    return _subtract_edges(W, model, flat).reshape(lead + (n, n))


def expected_weight_matrix(model):
    return mixing_matrix(model, model.theta * model.weights)


def expected_square_matrix(model):
    """E{W(k)^2} under independent link activations, in closed form:
    E{W}^2 + sum_e 2 theta_e (1 - theta_e) m_e^2 B_e (exact, any edge count).
    Adding c B_e is subtracting -c B_e, bit for bit: negation is exact.
    """
    EW = expected_weight_matrix(model)
    corr = 2.0 * model.theta * (1.0 - model.theta) * model.weights**2
    return _subtract_edges((EW @ EW)[None], model, -corr[None])[0]


@dataclass(frozen=True)
class SpectralReport:
    """Eigen-summary of E{W} and E{W^2} plus the certified realization floor.

    lambda2_mean / lambdan_mean: second-largest / smallest eigenvalue of E{W}.
    lambda2_sq: second-largest eigenvalue of E{W^2}.
    lambdan_floor: Gershgorin lower bound on the smallest eigenvalue of any
        realization (all links up is the worst case), 1 - 2 max_i sum_j m_ij.
    rho_mean_gap / rho_sq_gap: spectral radius of E{W} - J and E{W^2} - J
        where J = 11'/n; connected in mean iff rho_mean_gap < 1.
    """

    n: int
    lambda2_mean: float
    lambdan_mean: float
    lambda2_sq: float
    lambdan_floor: float
    rho_mean_gap: float
    rho_sq_gap: float

    @property
    def connected_in_mean(self):
        return self.rho_mean_gap < 1.0 - 1e-12


def spectral_report(model):
    n = model.n
    if n == 1:
        # single agent: no second eigenvalue; gaps are trivially closed
        return SpectralReport(1, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    EW = expected_weight_matrix(model)
    EW2 = expected_square_matrix(model)
    # eigvalsh returns the eigenvalues in ascending order
    lam = np.linalg.eigvalsh(EW)
    lam_sq = np.linalg.eigvalsh(EW2)
    lam2e, lamne = float(lam[-2]), float(lam[0])
    lam2s = float(lam_sq[-2])
    floor = max(1.0 - 2.0 * float(model.row_load().max()), -1.0 + 1e-12)
    rho_mean = max(abs(lam2e), abs(lamne))
    rho_sq = max(abs(lam2s), abs(float(lam_sq[0])))  # E{W^2} is PSD; |.| for safety
    return SpectralReport(
        n=n,
        lambda2_mean=lam2e,
        lambdan_mean=lamne,
        lambda2_sq=lam2s,
        lambdan_floor=floor,
        rho_mean_gap=rho_mean,
        rho_sq_gap=rho_sq,
    )
