"""Deliberately naive reference implementations used as test oracles.

Everything in this file is written straight from the update equations with
plain per-agent loops and no shared code with the package under test.  Keep
it slow and obvious: these functions are the ground truth the optimized
kernels are compared against.
"""

import numpy as np


def naive_weight_matrix(proposals, active):
    """Negotiated mixing matrix for one time step.

    proposals: (n, n) array, proposals[i][j] = weight agent i offers link (i, j).
    active: (n, n) boolean array (symmetric), True where the link works.
    Off-diagonal w_ij = min(proposals[i][j], proposals[j][i]) if the link is
    up, else 0; the diagonal absorbs the slack so every row sums to one.
    """
    n = len(proposals)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and active[i][j]:
                W[i][j] = min(proposals[i][j], proposals[j][i])
    for i in range(n):
        W[i][i] = 1.0 - sum(W[i][j] for j in range(n) if j != i)
    return W


def naive_grad(x, a, b):
    """Gradient of f_i(v) = a_i ||v||^2 + b_i . v + c_i, stacked row-wise."""
    n, u = x.shape
    g = np.zeros((n, u))
    for i in range(n):
        for r in range(u):
            g[i][r] = 2.0 * a[i] * x[i][r] + b[i][r]
    return g


def naive_dta_step(x, y, W, a, b, alpha, beta, zeta=None):
    """One deviation-tracking step, message-passing form.

    x, y: (n, u) current state and deviation estimate.
    alpha, beta: scalars or length-n per-agent arrays.
    zeta: optional (n, u) disturbance added to the state update.
    Returns (x_next, y_next).
    """
    n, u = x.shape
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    g = naive_grad(x, a, b)
    x_next = np.zeros((n, u))
    y_next = np.zeros((n, u))
    for i in range(n):
        for r in range(u):
            mix = 0.0  # sum_j w_ij (grad_i - grad_j), the (I - W) grad row
            for j in range(n):
                if j != i:
                    mix += W[i][j] * (g[i][r] - g[j][r])
            x_next[i][r] = x[i][r] - alpha[i] * y[i][r] - beta[i] * mix
            if zeta is not None:
                x_next[i][r] += zeta[i][r]
    for i in range(n):
        for r in range(u):
            acc = 0.0
            for j in range(n):
                acc += W[i][j] * y[j][r]
            y_next[i][r] = acc + x_next[i][r] - x[i][r]
    return x_next, y_next


def naive_wga_step(x, W, a, b, alpha, zeta=None):
    """One weighted-gradient step: x+ = x + zeta - alpha (I - W) grad f(x).

    alpha: a scalar or a length-n per-agent array.
    """
    n, u = x.shape
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    g = naive_grad(x, a, b)
    x_next = np.zeros((n, u))
    for i in range(n):
        for r in range(u):
            mix = 0.0
            for j in range(n):
                if j != i:
                    mix += W[i][j] * (g[i][r] - g[j][r])
            x_next[i][r] = x[i][r] - alpha[i] * mix
            if zeta is not None:
                x_next[i][r] += zeta[i][r]
    return x_next


def naive_kkt_projected_gradient(a, b, d, steps=200000, tol=1e-13):
    """Brute-force allocation optimum by projected gradient descent.

    Minimizes sum_i a_i ||x_i||^2 + b_i . x_i subject to sum_i x_i = sum_i d_i
    (per resource coordinate) by gradient steps followed by re-projection onto
    the feasibility hyperplane.  Independent of any closed-form solution.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    n, u = d.shape
    total = d.sum(axis=0)
    x = d.copy()
    lr = 0.9 / (2.0 * a.max())
    for _ in range(steps):
        g = naive_grad(x, a, b)
        x_new = x - lr * g
        # project back onto the hyperplane sum_i x_i = total
        gap = (x_new.sum(axis=0) - total) / n
        for i in range(n):
            for r in range(u):
                x_new[i][r] -= gap[r]
        if np.abs(x_new - x).max() < tol:
            x = x_new
            break
        x = x_new
    return x
