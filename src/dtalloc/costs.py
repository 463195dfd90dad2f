"""Agent cost functions and the closed-form optimum of the coupled allocation problem.

Each of the n agents holds a private strongly convex cost over a u-dimensional
resource vector and a private demand d_i.  The coupled problem is

    minimize  sum_i f_i(x_i)   subject to   sum_i x_i = sum_i d_i.

The costs are quadratic, f_i(v) = a_i ||v||^2 + b_i'v + c_i, which keeps the
optimum available in closed form and makes every downstream check exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class QuadraticCosts:
    """f_i(v) = a_i ||v||^2 + b_i'v + c_i with a_i > 0.

    a: (n,) curvatures; b: (n, u) linear terms; c: (n,) offsets.
    Strong convexity and gradient Lipschitz moduli coincide per agent:
    eta_i = phi_i = 2 a_i.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def u(self):
        return self.b.shape[1]

    def evaluate(self, x):
        x = np.asarray(x, float)
        per_agent = self.a * (x * x).sum(axis=-1) + (self.b * x).sum(axis=-1) + self.c
        return per_agent.sum(axis=-1)

    def gradient(self, x, out=None):
        """(2 a_i) x_i + b_i for (n, u) or any (..., n, u) stack, into `out` if given.

        This is `gradient_for` the coefficients' own (n, u) shape, formed
        once, which numpy broadcasts against a stack.
        """
        return self._gradient(x, out)

    @cached_property
    def _gradient(self):
        return self.gradient_for(self.b.shape)

    def gradient_for(self, shape):
        """The gradient for (..., n, u) stacks of one `shape`, as grad(x, out=None).

        The slope 2 a and the offset b are broadcast to `shape` once, into
        two contiguous float64 arrays of that shape, so each call on a
        contiguous x and `out` is two same-shape ufuncs, where broadcasting
        an (n, 1) slope and an (n, u) offset would cost more per call.
        Every element is the same product and sum as with broadcasting, so
        the bits do not depend on `shape`.
        """
        slope = np.broadcast_to(2.0 * self.a[:, None], shape).copy()
        offset = np.broadcast_to(self.b, shape).copy()

        multiply, add = np.multiply, np.add     # bound once, as in the engine

        def grad(x, out=None):
            out = multiply(slope, x, out)
            return add(out, offset, out)
        return grad

    @property
    def eta_lo(self):
        """Smallest strong-convexity modulus."""
        return 2.0 * float(np.min(self.a))

    @property
    def phi_hi(self):
        """Largest gradient-Lipschitz modulus."""
        return 2.0 * float(np.max(self.a))


def quadratic_costs(a, b, c=None, u=None):
    """Build QuadraticCosts from loosely-shaped inputs.

    b may be (n, u), or (n,) or (n, 1) at any u: each agent's one b_i then
    goes to every resource coordinate (without u, u is 1).  c defaults to
    zeros.  Raises ValueError on no agents, non-positive curvature (strong
    convexity would fail) or a non-finite coefficient.
    """
    a = np.atleast_1d(np.asarray(a, float))
    b = np.asarray(b, float)
    if a.ndim != 1 or b.ndim not in (1, 2):
        raise ValueError("a must be one value per agent and b (n,) or (n, u)")
    if a.shape[0] == 0:
        raise ValueError("the costs need at least one agent, got an empty a")
    if b.ndim == 1:
        b = b[:, None]
    if u is not None and b.shape[1] != u:
        if b.shape[1] == 1:
            b = np.repeat(b, u, axis=1)
        else:
            raise ValueError(f"b has u={b.shape[1]}, expected {u}")
    if c is None:
        c = np.zeros(a.shape[0])
    c = np.atleast_1d(np.asarray(c, float))
    if c.ndim != 1 or a.shape[0] != b.shape[0] or a.shape[0] != c.shape[0]:
        raise ValueError("a, b, c must agree on the number of agents")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("curvature coefficients must be finite and > 0")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("linear terms and offsets must be finite")
    return QuadraticCosts(a=a, b=b, c=c)


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    """A cost model plus per-agent demands d_i (the coupling data)."""

    costs: QuadraticCosts
    demand: np.ndarray  # (n, u)

    @property
    def n(self):
        return self.costs.n

    @property
    def u(self):
        return self.costs.u

    @property
    def total_demand(self):
        return self.demand.sum(axis=0)  # (u,)


def allocation_problem(costs, demand):
    demand = np.asarray(demand, float)
    if demand.ndim == 1:
        demand = demand[:, None]
    if demand.shape != (costs.n, costs.u):
        raise ValueError(
            f"demand shape {demand.shape} does not match ({costs.n}, {costs.u})"
        )
    if not np.all(np.isfinite(demand)):
        raise ValueError("demands must be finite")
    return AllocationProblem(costs=costs, demand=demand)


@dataclass(frozen=True, eq=False)
class KktSolution:
    """Unique optimum: x_star (n, u) and the multiplier mu_star (u,).

    At the optimum, column sums of x_star match total demand and every
    agent's gradient equals mu_star (marginal costs equalize).
    """

    x_star: np.ndarray
    mu_star: np.ndarray


def kkt_solve(problem):
    """Closed-form optimum for quadratic costs, per coordinate.

    mu* = (sum_i d_i + sum_i b_i/(2 a_i)) / (sum_i 1/(2 a_i));
    x_i* = (mu* - b_i) / (2 a_i).
    """
    costs = problem.costs
    if not isinstance(costs, QuadraticCosts):
        raise ValueError("closed-form solve requires quadratic costs")
    inv2a = 1.0 / (2.0 * costs.a)  # (n,)
    mu = (problem.demand.sum(axis=0) + (inv2a[:, None] * costs.b).sum(axis=0)) / inv2a.sum()
    x = (mu[None, :] - costs.b) * inv2a[:, None]
    return KktSolution(x_star=x, mu_star=mu)
