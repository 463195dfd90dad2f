"""Contraction constants, stepsize feasibility regions, optimal pair, rate predictions.

Everything here is pure algebra on (cost moduli, network spectrum), which
`constants` gathers into one `RateConstants`; every other function reads
that object and nothing else.  Two recursions are analyzed:

  * the mean-square recursion over the random network, with contractions
        s1 = alpha^2 + 2 alpha + lambda2_sq
        s2 = sqrt(1 + beta^2 K2^2 - 2 beta K1)
  * the mean (expected-iterate) recursion, with
        s1' = max{lambda2_mean - alpha, alpha - lambdan_mean}
        s2' = max{|1 - beta K1'|, |beta K2' - 1|}

The link statistics are time-invariant, so the fixed-network constants
K1'/K2' of the mean recursion equal K1/K2 and both recursions read `k1`/`k2`.
A per-agent plan folds each beta_i into the cost moduli: its (K1'', K2'')
are (K1, K2) at the moduli (beta_min eta, beta_max phi), computed by the same
function (`_k_constants`) as the shared constants.
All feasibility inequalities are strict with margin 1e-12, and every
region requires positive stepsizes: alpha_i > 0 belongs to the alpha bound
and beta_i > 0 to the beta bound (to the s6 contraction in the per-agent
region, whose only beta condition it is).  Each region check returns a
`Verdict`: its conditions as a name -> bool dict, `feasible` and `failed`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleNetworkError

MARGIN = 1e-12


def _sq(v):
    """v**2, or inf where it overflows: a float's ** raises OverflowError,
    so a huge finite stepsize fails its conditions instead of crashing."""
    try:
        return v ** 2
    except OverflowError:
        return float("inf")


@dataclass(frozen=True)
class RateConstants:
    """Network/cost constants feeding every region and rate formula."""

    n: int
    eta_lo: float        # smallest strong-convexity modulus
    phi_hi: float        # largest gradient-Lipschitz modulus
    c1: float            # shape factor [phi + (n-1) eta] / sqrt(n [phi^2 + (n-1) eta^2])
    k1: float            # eta_lo (1 - lambda2_mean) c1
    k2: float            # phi_hi (1 - lambdan_mean)
    lambda2_mean: float
    lambdan_mean: float
    lambda2_sq: float
    lambdan_floor: float


def _k_constants(n, eta, phi, lambda2_mean, lambdan_mean):
    """`RateConstants`' (c1, K1, K2) at the cost moduli (eta, phi)."""
    c1 = 1.0
    if n > 1:
        # a square past the float range makes c1, and K1, 0, inf or NaN;
        # `resolve` refuses such constants, and a plan's fail s6-contracts
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = float((phi + (n - 1) * eta)
                       / np.sqrt(n * (_sq(phi) + (n - 1) * _sq(eta))))
    return c1, eta * (1.0 - lambda2_mean) * c1, phi * (1.0 - lambdan_mean)


def constants(costs, report):
    """RateConstants for a cost model over a network spectral report."""
    if not report.connected_in_mean:
        raise InfeasibleNetworkError(
            f"network is not connected in mean (spectral gap radius "
            f"{report.rho_mean_gap!r} >= 1); no contraction constants exist"
        )
    n = costs.n
    eta, phi = costs.eta_lo, costs.phi_hi
    c1, k1, k2 = _k_constants(n, eta, phi, report.lambda2_mean,
                              report.lambdan_mean)
    return RateConstants(
        n=n, eta_lo=eta, phi_hi=phi, c1=c1,
        k1=k1, k2=k2,
        lambda2_mean=report.lambda2_mean,
        lambdan_mean=report.lambdan_mean,
        lambda2_sq=report.lambda2_sq,
        lambdan_floor=report.lambdan_floor,
    )


def plan_constants(rc, beta):
    """Per-agent-plan contraction constants (K1'', K2'').

    The per-agent beta_i fold into the cost moduli, so (K1'', K2'') are
    (K1, K2) at the moduli (bl eta, bh phi), with bl = min beta_i and
    bh = max beta_i:

        K1'' = bl eta (1 - lambda2_mean) c1(bl eta, bh phi)
        K2'' = bh phi (1 - lambdan_mean)
    """
    beta = np.broadcast_to(np.asarray(beta, float), (rc.n,))
    bl, bh = float(beta.min()), float(beta.max())
    _, k1pp, k2pp = _k_constants(rc.n, bl * rc.eta_lo, bh * rc.phi_hi,
                                 rc.lambda2_mean, rc.lambdan_mean)
    return k1pp, k2pp


@dataclass(frozen=True)
class Verdict:
    """A region check: its named strict inequalities and the coupling one's sides."""

    coupling_lhs: float
    coupling_rhs: float
    conditions: dict        # name -> bool, in the order they are checked

    @property
    def feasible(self):
        return all(self.conditions.values())

    @property
    def failed(self):
        return tuple(nm for nm, ok in self.conditions.items() if not ok)


@dataclass(frozen=True)
class SharedVerdict(Verdict):
    """Region check for a shared (alpha, beta) pair, in the mean-square
    recursion (`feasible_region_shared`) or the mean one (`feasible_region_mean`)."""

    s1: float               # s1, or s1' in the mean recursion
    s2: float               # s2, or s2'
    alpha_max: float        # sqrt(2 - lambda2_sq) - 1, or 1 - lambdan_mean
    beta_max: float         # 2 K1 / K2^2, or 1 / K2'


def _verdict(alpha, beta, s1, s2, alpha_max, beta_max, lhs):
    """The three strict region inequalities, with coupling rhs (1 - s1)(1 - s2)."""
    rhs = (1.0 - s1) * (1.0 - s2)
    conds = {
        "alpha-bound": 0.0 < alpha < alpha_max - MARGIN,
        "beta-bound": 0.0 < beta < beta_max - MARGIN,
        "coupling": lhs < rhs - MARGIN,
    }
    return SharedVerdict(s1=float(s1), s2=float(s2), alpha_max=float(alpha_max),
                         beta_max=float(beta_max), coupling_lhs=float(lhs),
                         coupling_rhs=float(rhs), conditions=conds)


def feasible_region_shared(rc, alpha, beta):
    """Evaluate the three mean-square region inequalities at (alpha, beta)."""
    s2sq = 1.0 + _sq(beta) * rc.k2**2 - 2.0 * beta * rc.k1
    return _verdict(alpha, beta,
                    s1=_sq(alpha) + 2.0 * alpha + rc.lambda2_sq,
                    s2=np.sqrt(max(s2sq, 0.0)),
                    alpha_max=np.sqrt(2.0 - rc.lambda2_sq) - 1.0,
                    beta_max=2.0 * rc.k1 / rc.k2**2,
                    lhs=alpha * beta * rc.phi_hi * (1.0 - rc.lambdan_floor))


def feasible_region_mean(rc, alpha, beta):
    """Evaluate the three mean-recursion region inequalities at (alpha, beta)."""
    return _verdict(alpha, beta,
                    s1=max(rc.lambda2_mean - alpha, alpha - rc.lambdan_mean),
                    s2=max(abs(1.0 - beta * rc.k1), abs(beta * rc.k2 - 1.0)),
                    alpha_max=1.0 - rc.lambdan_mean,
                    beta_max=1.0 / rc.k2,
                    lhs=alpha * beta * rc.phi_hi * (1.0 - rc.lambdan_mean))


@dataclass(frozen=True)
class OptimalStepsizes:
    alpha: float
    beta: float
    branches: tuple          # the four closed-form alpha candidates, in order
    active_branch: int       # index into `branches` attaining the min


def optimal_stepsizes(rc):
    """beta_op = 2/(K1'+K2'); alpha_op = min of four closed-form candidates.

    The fourth candidate's discriminant

        disc = (3 + lambdan)^2 - 8 (1 + lambdan) K1 / (K1 + K2)

    is at least (1 + lambdan)^2 + 4 >= 4, so all four candidates are real:
    K1 <= K2, because eta_lo <= phi_hi, lambdan_mean <= lambda2_mean and
    c1 <= 1 (Cauchy-Schwarz), and 1 + lambdan > 0 by Gershgorin, because
    `build_model` keeps every agent's incident weights below 1.
    """
    k1, k2 = rc.k1, rc.k2
    l2, ln = rc.lambda2_mean, rc.lambdan_mean
    beta = 2.0 / (k1 + k2)
    disc = (3.0 + ln) ** 2 - 4.0 * beta * k1 * (1.0 + ln)
    cands = [float(c) for c in (
        k1 * (1.0 - l2) / k2,
        k1 * (1.0 + ln) / (2.0 * k1 + k2),
        0.5 * (1.0 + l2 - 2.0 * beta * k2
               + np.sqrt(4.0 * (beta * k2 - 1.0) ** 2 + (1.0 - l2) * (5.0 - l2))),
        0.5 * (3.0 + ln - np.sqrt(disc)),
    )]
    k = int(np.argmin(cands))
    return OptimalStepsizes(alpha=cands[k], beta=float(beta),
                            branches=tuple(cands), active_branch=k)


def predicted_rate(rc, alpha, beta, q_zeta=None):
    """Upper estimate of the geometric decay factor at a feasible (alpha, beta).

    max{ s1 + c/(1-s2), s2 + c/(1-s1), |1-alpha| } with
    c = alpha beta phi (1 - lambdan_floor); a decaying disturbance with
    factor q_zeta joins the max.  Outside the mean-square region the
    estimate is meaningless, and None is returned.
    """
    v = feasible_region_shared(rc, alpha, beta)
    if not v.feasible:
        return None
    c = v.coupling_lhs
    terms = [abs(1.0 - alpha)]
    if v.s2 < 1.0:
        terms.append(v.s1 + c / (1.0 - v.s2))
    if v.s1 < 1.0:
        terms.append(v.s2 + c / (1.0 - v.s1))
    rate = max(terms)
    if q_zeta is not None:
        rate = max(rate, float(q_zeta))
    return float(rate)


@dataclass(frozen=True)
class PlanVerdict(Verdict):
    """Region check for a per-agent (alpha_i, beta_i) plan."""

    s4: float               # 1 - sum alpha_i
    s5: float               # amax^2 + 2 amax + lambda2_sq
    s6: float               # sqrt(1 + K2''^2 - 2 K1'') or nan when complex


def feasible_region_uncoordinated(rc, alpha, beta):
    """Per-agent plan region: the sum/max conditions plus the coupling inequality

        (1-s4)(1-s5)(1-s6) - bh (1-lambdan_floor) phi ah (2-s4-s5)
            >  ah^2 (1-s6) + 2 ah^2 bh (1-lambdan_floor) phi

    with ah = max alpha_i, bh = max beta_i.  Requires every alpha_i > 0 (in
    "alpha-bound"), every beta_i > 0 and K2''^2 < 2 K1'' for s6 to contract,
    and |s4| < 1 for the recursion itself.
    """
    n = rc.n
    alpha = np.broadcast_to(np.asarray(alpha, float), (n,))
    beta = np.broadcast_to(np.asarray(beta, float), (n,))
    ah = float(alpha.max())
    bh = float(beta.max())
    s4 = 1.0 - float(alpha.sum())
    s5 = _sq(ah) + 2.0 * ah + rc.lambda2_sq
    k1pp, k2pp = plan_constants(rc, beta)
    alpha_max = np.sqrt(2.0 - rc.lambda2_sq) - 1.0
    # K1'' is inf where c1's squares underflow to 0 (a tiny beta), and NaN
    # or 0 where they overflow; neither contracts
    contracts = bool(np.isfinite(k1pp)) and _sq(k2pp) < 2.0 * k1pp - MARGIN
    conds = {
        "sum-alpha": alpha.sum() < 2.0 - MARGIN,
        "alpha-bound": alpha.min() > 0.0 and ah < alpha_max - MARGIN,
        "s6-contracts": beta.min() > 0.0 and contracts,
        "s4-magnitude": abs(s4) < 1.0 - MARGIN,
    }
    fl = 1.0 - rc.lambdan_floor
    if contracts:
        s6 = float(np.sqrt(1.0 + _sq(k2pp) - 2.0 * k1pp))
        lhs = (1.0 - s4) * (1.0 - s5) * (1.0 - s6) - bh * fl * rc.phi_hi * ah * (2.0 - s4 - s5)
        rhs = _sq(ah) * (1.0 - s6) + 2.0 * _sq(ah) * bh * fl * rc.phi_hi
        conds["coupling"] = lhs > rhs + MARGIN
    else:
        s6, lhs, rhs = float("nan"), float("nan"), float("nan")
        conds["coupling"] = False
    return PlanVerdict(s4=float(s4), s5=float(s5), s6=s6,
                       coupling_lhs=float(lhs), coupling_rhs=float(rhs),
                       conditions=conds)


def wga_default_alpha(rc):
    """Baseline stepsize for the weighted-gradient method: 1/K2'."""
    return 1.0 / rc.k2
