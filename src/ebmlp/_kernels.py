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

The anneal kernel loops over its sweeps. The Gibbs kernel has no loop
over sweeps: a sweep's hidden update reads the previous sweep only
through the output bits y, so with its noise drawn a sweep is a map from
each of the 2^M output patterns to the next one. The kernel draws the
noise of a chunk of sweeps in one call, builds every sweep's map from the
candidate hidden bits under each pattern, composes the maps with a
log-depth prefix scan (Hillis and Steele; see Blelloch, "Prefix Sums and
Their Applications", CMU-CS-90-190, 1990) and gathers the recorded bits.
It takes the draws of a loop of single sweeps in the same order and
computes the same fields, so it returns that loop's bytes. A chunk holds
at most about ``_CHUNK_BYTES`` of float64 candidates and fields, whatever
the number of reads.
"""

import numpy as np

# Byte budget of one chunk of Gibbs sweeps: its float64 candidate hidden
# bits and output fields, 8 * 2^M * points * (K+M) bytes per sweep. The
# noise, bool candidates and maps of the chunk are smaller.
_CHUNK_BYTES = 1 << 22

# 16 ln 2 in float32: exp(x + _LOG_2_16) is 2**16 * exp(x), the anneal
# kernel's acceptance on the scale of its 16-bit words
_LOG_2_16 = np.float32(16.0 * np.log(2.0))


def _pattern_index(bits):
    """The output pattern of each row of bits: bit m of the index is y_m."""
    index = bits[..., 0].astype(np.intp)
    for m in range(1, bits.shape[-1]):
        index |= bits[..., m] << m
    return index


def gibbs_block(a_rows, w2, c, reads, burn_in, thin, seed):
    """Independent block-Gibbs chains, one per clamped point.

    ``a_rows`` holds one W1 x + b row per data point. Each chain starts
    from uniform bits and alternates k | y ~ Bernoulli(sigmoid(a + W2^T y))
    with y | k ~ Bernoulli(sigmoid(W2 k + c)); it discards burn_in sweeps,
    then records every thin-th sweep. Returns (points, reads, K+M) uint8,
    k bits first.

    u < sigmoid(z) exactly when logit(u) < z, and logit(u) of a uniform u
    is standard logistic noise, so each bit is one comparison of a
    logistic draw with its field. Stream order: uniforms for the starting
    k bits (skipped with ``advance``: every sweep redraws k before reading
    it) and y bits, then per sweep the (points, K) hidden noise and the
    (points, M) output noise. The sweeps run in chunks, with P = 2^M
    output patterns y_p; per chunk:

    - noise: one (sweeps, points*(K+M)) logistic draw, each row split into
      its hidden and output parts, which is the per-sweep stream order;
    - candidates: for every pattern, the hidden bits of every sweep are
      one comparison of the hidden noise with a + y_p W2;
    - maps: the candidates' output fields W2 k + c are one stacked product
      of (points, K) blocks, the shape a single sweep multiplies; compared
      with the output noise they give, per sweep and point, the pattern
      after the sweep for each pattern before it;
    - scan: an inclusive Hillis-Steele scan composes the maps in
      ceil(log2 sweeps) passes over (sweeps, P, points) indices; applied
      to the pattern carried into the chunk, it gives the pattern before
      and after every sweep;
    - records: each recorded sweep's k and y bits are the candidate bits
      of the pattern before it, gathered in one take.

    y_p W2 sums at most M exact products (y is 0 or 1): for M <= 2 every
    order of that sum gives the same bits, and for larger M the product
    adds in BLAS's order, as the single-sweep product does. So the fields,
    and with them the bits, are those of a loop of single sweeps.

    A chunk has at most max(1, _CHUNK_BYTES // (8 * P * points * (K+M)))
    sweeps (the default run of 1100 sweeps of 5 points with K=32 and M=1
    is one chunk), so memory is bounded whatever ``reads`` is; the work
    per sweep grows as 2^M.
    """
    a_rows = np.ascontiguousarray(np.atleast_2d(a_rows), dtype=np.float64)
    w2 = np.ascontiguousarray(w2, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    if reads < 1:
        raise ValueError("reads must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    n_points, kk = a_rows.shape
    mm = c.shape[0]
    if mm < 1:
        raise ValueError("c must hold at least one output field")
    rng = np.random.default_rng(int(seed))
    n_patterns = 1 << mm
    bits = np.arange(mm)
    # a + y_p W2 for every pattern and point: (P, points, K)
    k_fields = a_rows + (((np.arange(n_patterns)[:, None] >> bits) & 1).astype(np.float64) @ w2)[:, None, :]
    # the starting k bits, one PCG64 word each, are never read
    rng.bit_generator.advance(n_points * kk)
    # a pattern p is held as p * points, the offset of its rows in a sweep's
    # (P, points) block, so that every gather below is one add and a take
    y = _pattern_index(rng.random((n_points, mm)) < 0.5) * n_points
    out = np.empty((n_points, reads, kk + mm), np.uint8)
    total = burn_in + reads * thin
    chunk = max(1, _CHUNK_BYTES // max(1, 8 * n_patterns * n_points * (kk + mm)))
    for start in range(0, total, chunk):
        sweeps = min(chunk, total - start)
        noise = rng.logistic(size=(sweeps, n_points * (kk + mm)))
        k_noise = noise[:, : n_points * kk].reshape(sweeps, 1, n_points, kk)
        y_noise = noise[:, n_points * kk :].reshape(sweeps, 1, n_points, mm)
        # cand[t, p, i]: the k and y bits sweep t gives point i if the
        # pattern before the sweep is p
        cand = np.empty((sweeps, n_patterns, n_points, kk + mm), bool)
        np.less(k_noise, k_fields, out=cand[..., :kk])
        y_fields = cand[..., :kk].astype(np.float64, order="C") @ w2.T
        y_fields += c
        np.less(y_noise, y_fields, out=cand[..., kk:])
        # maps[t, p, i]: point i's pattern after sweep t if it was p before,
        # as an offset like y; (t, p, i) is row base[t, 0, i] + p * points
        maps = _pattern_index(cand[..., kk:]) * n_points
        base = np.arange(sweeps)[:, None, None] * (n_patterns * n_points) + np.arange(n_points)
        span = 1
        while span < sweeps:
            # maps[t] becomes maps[t] after maps[t - span]; every index is
            # in range, so "clip" only skips the bounds check
            maps[span:] = maps.take(maps[:-span] + base[span:], mode="clip")
            span *= 2
        after = maps.take(base[:, 0] + y)
        before = np.concatenate((y[None], after[:-1]))
        # read r is sweep burn_in + thin * (r + 1); done counts the sweeps
        # past burn-in that ran before this chunk
        done = start - burn_in
        first, stop = max(0, done // thin), max(0, (done + sweeps) // thin)
        t = np.arange(thin * (first + 1) - done - 1, sweeps, thin)
        out[:, first:stop] = cand.reshape(-1, kk + mm).take(base[t, 0] + before[t], axis=0).transpose(1, 0, 2)
        y = after[-1]
    return out


def gibbs_chain(a, w2, c, reads, burn_in, thin, seed):
    """gibbs_block for a single clamped point; returns (reads, K+M) uint8."""
    return gibbs_block(np.asarray(a)[None], w2, c, reads, burn_in, thin, seed)[0]


def _flip_below(bit_generator, spins, threshold):
    """Negates each spin whose 16-bit word is below its ``threshold``,
    leaving ``threshold`` spent. The words are the 16-bit quarters of
    ceil(n / 4) raw 64-bit words from one call, four decisions per word,
    taken in memory order (low quarter first on little-endian hosts).
    word - threshold, computed in float32 (every word converts exactly),
    has its sign bit set exactly when word < threshold: also for
    threshold = inf, while word - 0 is +0; XOR-ing that bit into a float32
    spin negates it."""
    flat = threshold.reshape(-1)
    words = bit_generator.random_raw((flat.size + 3) // 4).view(np.uint16)[: flat.size]
    np.subtract(words, flat, out=flat)
    sign = threshold.view(np.uint32)
    np.bitwise_and(sign, np.uint32(0x80000000), out=sign)
    np.bitwise_xor(spins.view(np.uint32), sign, out=spins.view(np.uint32))


def anneal_block(h_rows, coupling, betas, reads, seed):
    """Independent Metropolis anneals of a bipartite Ising model, for many
    clamped points in one call.

    ``h_rows`` is (points, K+M): one row of Ising fields per point, hidden
    spins first. ``coupling`` is the (K, M) hidden-output block J[:K, K:]
    of the strictly upper-triangular J, shared by every point; there is no
    coupling within a layer. Each read starts from uniform random spins.
    Per inverse temperature in ``betas`` one sweep makes a Metropolis
    decision for every hidden spin at once, then for every output spin:
    with flip cost dE = 2 s_i lam_i, spin i flips when w < 2**16 * p for
    its acceptance p = exp(-beta * dE) and a fresh 16-bit word w, uniform
    on 0 .. 2**16 - 1. Within a layer the local fields lam_i do not depend
    on each other, so this is the hidden-first single-site scan in
    distribution. Returns (points, reads, K+M) uint8 bits under
    q = (s + 1) / 2.

    One layer update is a few passes over (points, reads, layer) float32
    arrays besides the PCG64 draw:

    - fields: for the hidden layer, one batched product of the output
      spins, held with a trailing column of ones, with a per-point block
      whose rows are J^T * (-2 beta) and then h * (-2 beta), so h rides on
      the ones column; the output layer, only M wide, takes one product
      with J and then adds its h;
    - ``*= spins``, giving -beta dE, and ``+= 16 ln 2``;
    - ``exp``, giving the threshold t = 2**16 * p, with no clamp: where
      p >= 1, t >= 2**16 (or inf) exceeds every word, just as a clamped
      p = 1 does, so every decision is kept;
    - the words: one ``random_raw`` call of ceil(n / 4) 64-bit words
      viewed as uint16, four decisions per word (``_flip_below``);
    - ``w - t``, whose sign bit is the flip, ANDed out and XOR-ed into the
      spins' sign bits.

    Spins, fields, couplings and thresholds are float32; 16 ln 2 in
    float32 is off by 3e-8, so t is 2**16 * p up to float32 rounding. A
    word w flips the spin when w < t, so a spin with p < 1 flips with
    probability ceil(2**16 * p) / 2**16: at least p and less than p + 2**-16.
    The edge cases:

    - where exp underflows to t = 0, the spin never flips;
    - where 0 < t <= 1 (p at most 2**-16), only w = 0 flips it, with
      probability 2**-16;
    - where p >= 1, including t = inf, the spin always flips, so downhill
      and zero-cost flips are exact.
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
    s_k = np.ascontiguousarray(s[..., :kk])
    # output spins with a column of ones, whose row of the hidden block is h
    y_aug = np.ones((n_points, reads, mm + 1), np.float32)
    y_aug[..., :mm] = s[..., kk:]
    s_y = y_aug[..., :mm]
    h_k, h_y = h_rows[:, None, :kk], h_rows[:, None, kk:]
    w_aug = np.empty((n_points, mm + 1, kk), np.float32)
    k_rows = s_k.reshape(n_points * reads, kk)
    accept_k, accept_y = np.empty_like(s_k), np.empty((n_points * reads, mm), np.float32)
    with np.errstate(over="ignore"):
        for beta in betas:
            scale = np.float32(-2.0 * beta)
            # hidden: t = 2**16 exp(-beta dE) = exp(scale * s (J s_y + h) + 16 ln 2)
            np.multiply(coupling.T, scale, out=w_aug[:, :mm])
            np.multiply(h_k[:, 0], scale, out=w_aug[:, mm])
            np.matmul(y_aug, w_aug, out=accept_k)
            accept_k *= s_k
            accept_k += _LOG_2_16
            np.exp(accept_k, out=accept_k)
            _flip_below(rng.bit_generator, s_k, accept_k)
            # output: the same from J^T s_k + h
            np.dot(k_rows, coupling * scale, out=accept_y)
            accept = accept_y.reshape(s_y.shape)
            accept += h_y * scale
            accept *= s_y
            accept += _LOG_2_16
            np.exp(accept, out=accept)
            _flip_below(rng.bit_generator, s_y, accept)
    return np.concatenate((s_k > 0.0, s_y > 0.0), axis=2).astype(np.uint8)
