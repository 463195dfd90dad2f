"""Test oracles for the random link model, built on the package's mixing_matrix.

The package keeps only the closed forms of E{W} and E{W^2}.  The functions
here check them the slow way: by drawing realizations W(k) and by summing
over every link activation pattern.  Unlike `naive_reference.py`, they call
the package's `mixing_matrix`, so they test the moments, not the assembly.
"""

import itertools

import numpy as np

from dtalloc import mixing_matrix


def sample_batch(model, rng, size):
    """Vectorized draws: (size, n, n) matrices + (size, E) activation mask.

    Each link is up independently with its theta in every draw.
    """
    acts = rng.random((size, model.n_edges)) < model.theta
    return mixing_matrix(model, np.where(acts, model.weights, 0.0)), acts


def exact_expected_square(model):
    """E{W^2} by brute-force enumeration of all 2^|E| activation patterns."""
    out = np.zeros((model.n, model.n))
    for pattern in itertools.product((False, True), repeat=model.n_edges):
        up = np.array(pattern, bool)
        p = np.prod(np.where(up, model.theta, 1.0 - model.theta))
        if p == 0.0:
            continue
        W = mixing_matrix(model, np.where(up, model.weights, 0.0))
        out += p * (W @ W)
    return out


def monte_carlo_expected_square(model, rng, samples):
    """E{W^2} as the average of W^2 over `samples` draws from `rng`."""
    out = np.zeros((model.n, model.n))
    done = 0
    while done < samples:
        batch = min(20_000, samples - done)
        W, _ = sample_batch(model, rng, batch)
        out += np.einsum("sij,sjk->ik", W, W)
        done += batch
    return out / samples
