"""Sweep kernels for the Gibbs and simulated-anneal samplers.

Both kernels sample a whole minibatch in one call: one row of clamped
fields per data point, many reads per row. The clamped graph is bipartite
(hidden units couple only to outputs), so every sweep updates the whole
hidden layer as one block and then the whole output layer as one block;
sites within a layer do not interact, which makes each block update equal
in distribution to a site-by-site scan of that layer. Draws come from a
numpy PCG64 Generator and are reproducible per seed; the layout of the
stream depends on the batch shape, so a row sampled alone and the same row
sampled inside a batch get different (equally valid) reads. These numpy
kernels are the only implementation; nothing selects between kernels.
"""

import numpy as np


def gibbs_block(a_rows, w2, c, reads, burn_in, thin, seed):
    """Independent block-Gibbs chains, one per clamped point.

    ``a_rows`` holds one W1 x + b row per data point. Each chain starts
    from uniform bits and alternates k | y ~ Bernoulli(sigmoid(a + W2^T y))
    with y | k ~ Bernoulli(sigmoid(W2 k + c)); it discards burn_in sweeps,
    then records every thin-th sweep. Returns (points, reads, K+M) uint8,
    k bits first.
    """
    a_rows = np.ascontiguousarray(np.atleast_2d(a_rows), dtype=np.float64)
    w2 = np.ascontiguousarray(w2, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    if reads < 1:
        raise ValueError("reads must be >= 1")
    rng = np.random.default_rng(int(seed))
    n_points, kk = a_rows.shape
    mm = c.shape[0]
    k = (rng.random((n_points, kk)) < 0.5).astype(np.float64)
    y = (rng.random((n_points, mm)) < 0.5).astype(np.float64)
    out = np.empty((n_points, reads, kk + mm), np.uint8)
    # u < sigmoid(z) exactly when logit(u) < z, and logit(u) of a uniform u
    # is standard logistic noise: one draw and one comparison per bit.
    for sweep in range(1, burn_in + reads * thin + 1):
        k = (rng.logistic(size=(n_points, kk)) < a_rows + y @ w2).astype(np.float64)
        y = (rng.logistic(size=(n_points, mm)) < k @ w2.T + c).astype(np.float64)
        rec, off = divmod(sweep - burn_in, thin)
        if sweep > burn_in and off == 0:
            out[:, rec - 1, :kk] = k
            out[:, rec - 1, kk:] = y
    return out


def gibbs_chain(a, w2, c, reads, burn_in, thin, seed):
    """gibbs_block for a single clamped point; returns (reads, K+M) uint8."""
    return gibbs_block(np.asarray(a)[None], w2, c, reads, burn_in, thin, seed)[0]


def anneal_block(h_rows, coupling, betas, reads, seed):
    """Independent Metropolis anneals of a bipartite Ising model, for many
    clamped points in one call.

    ``h_rows`` is (points, K+M): one row of Ising fields per point, hidden
    spins first. ``coupling`` is the (K, M) hidden-output block J[:K, K:]
    of the strictly upper-triangular J, shared by every point; there is no
    coupling within a layer. Each read starts from uniform random spins.
    Per inverse temperature in ``betas`` one sweep makes a Metropolis
    decision for every hidden spin at once, then for every output spin
    (flip cost dE = 2 s_i lam_i, accepted when nonpositive or with
    probability exp(-beta * dE)). Within a layer the local fields lam_i do
    not depend on each other, so this is the hidden-first single-site scan
    in distribution. Returns (points, reads, K+M) uint8 bits under
    q = (s + 1) / 2.
    """
    h_rows = np.ascontiguousarray(np.atleast_2d(h_rows), dtype=np.float64)
    coupling = np.ascontiguousarray(coupling, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    kk, mm = coupling.shape
    if h_rows.shape[1] != kk + mm:
        raise ValueError(f"h_rows has {h_rows.shape[1]} columns, coupling needs {kk}+{mm}")
    if reads < 1:
        raise ValueError("reads must be >= 1")
    rng = np.random.default_rng(int(seed))
    n_points = h_rows.shape[0]
    s = np.where(rng.random((n_points, reads, kk + mm)) < 0.5, 1.0, -1.0)
    s_k, s_y = np.ascontiguousarray(s[..., :kk]), np.ascontiguousarray(s[..., kk:])
    h_k, h_y = h_rows[:, None, :kk], h_rows[:, None, kk:]
    # Metropolis accepts with probability min(1, exp(-beta dE)), which is
    # the event beta dE <= e for a standard exponential draw e = -log(u).
    for beta in betas:
        cost = (2.0 * beta) * s_k * (h_k + s_y @ coupling.T)
        np.negative(s_k, out=s_k, where=cost <= rng.standard_exponential(s_k.shape))
        cost = (2.0 * beta) * s_y * (h_y + s_k @ coupling)
        np.negative(s_y, out=s_y, where=cost <= rng.standard_exponential(s_y.shape))
    return np.concatenate((s_k > 0.0, s_y > 0.0), axis=2).astype(np.uint8)
