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


def _uniform32(bit_generator, out):
    """Fills float32 ``out`` with uniforms on [0, 1) spaced 2**-24 apart,
    made as ``Generator.random(dtype=np.float32)`` makes them,
    (r >> 8) * 2**-24 for successive 32-bit halves r of the raw 64-bit
    words, at about half its cost: the words come from one call."""
    flat = out.reshape(-1)
    words = bit_generator.random_raw((flat.size + 1) // 2).view(np.uint32)[: flat.size]
    np.right_shift(words, 8, out=words)
    np.multiply(words, np.float32(2.0**-24), out=flat, dtype=np.float32)


def anneal_block(h_rows, coupling, betas, reads, seed):
    """Independent Metropolis anneals of a bipartite Ising model, for many
    clamped points in one call.

    ``h_rows`` is (points, K+M): one row of Ising fields per point, hidden
    spins first. ``coupling`` is the (K, M) hidden-output block J[:K, K:]
    of the strictly upper-triangular J, shared by every point; there is no
    coupling within a layer. Each read starts from uniform random spins.
    Per inverse temperature in ``betas`` one sweep makes a Metropolis
    decision for every hidden spin at once, then for every output spin:
    with flip cost dE = 2 s_i lam_i, spin i flips when
    u < exp(-max(beta * dE, 0)) for a fresh uniform u. Within a layer the
    local fields lam_i do not depend on each other, so this is the
    hidden-first single-site scan in distribution. Returns
    (points, reads, K+M) uint8 bits under q = (s + 1) / 2.

    Spins, fields, couplings and acceptance probabilities are float32 and
    the uniforms u are multiples of 2**-24, so a flip happens with its
    Metropolis probability up to float32 rounding: within about 2**-24,
    from the rounding of dE and exp and the spacing of u. Downhill flips
    (probability 1) are exact.
    """
    h_rows = np.ascontiguousarray(np.atleast_2d(h_rows), dtype=np.float32)
    coupling = np.ascontiguousarray(coupling, dtype=np.float32)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    kk, mm = coupling.shape
    if h_rows.shape[1] != kk + mm:
        raise ValueError(f"h_rows has {h_rows.shape[1]} columns, coupling needs {kk}+{mm}")
    if reads < 1:
        raise ValueError("reads must be >= 1")
    rng = np.random.default_rng(int(seed))
    n_points = h_rows.shape[0]
    s = np.where(rng.random((n_points, reads, kk + mm), dtype=np.float32) < 0.5, np.float32(1.0), np.float32(-1.0))
    s_k, s_y = np.ascontiguousarray(s[..., :kk]), np.ascontiguousarray(s[..., kk:])
    # Per layer: its spins, its fields, the other layer's spins as one
    # (points * reads, n) matrix for a single gemm with the coupling from
    # them, and the buffers of one update.
    layers = []
    for spins, h, other, w in ((s_k, h_rows[:, None, :kk], s_y, coupling.T), (s_y, h_rows[:, None, kk:], s_k, coupling)):
        buffers = np.empty_like(spins), np.empty_like(spins), np.empty(spins.shape, bool)
        layers.append((spins, h, other.reshape(n_points * reads, other.shape[2]), w, *buffers))
    for beta in betas:
        scale = np.float32(-2.0 * beta)
        for spins, h, other, w, accept, u, flip in layers:
            # accept = exp(min(-beta dE, 0)) with -beta dE =
            # -2 beta s (h + J s_other); the cap at 0 keeps exp from overflowing
            np.dot(other, w * scale, out=accept.reshape(n_points * reads, accept.shape[2]))
            accept += h * scale
            accept *= spins
            np.minimum(accept, 0.0, out=accept)
            np.exp(accept, out=accept)
            _uniform32(rng.bit_generator, u)
            np.less(u, accept, out=flip)
            # a flip negates a spin: toggle the float32 sign bit, no mask
            sign = u.view(np.uint32)
            np.left_shift(flip.view(np.uint8), 31, out=sign, dtype=np.uint32)
            np.bitwise_xor(spins.view(np.uint32), sign, out=spins.view(np.uint32))
    return np.concatenate((s_k > 0.0, s_y > 0.0), axis=2).astype(np.uint8)
