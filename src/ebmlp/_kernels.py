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

The anneal kernel loops over its sweeps, on spins held as bits in
(points, units, reads) arrays, reads innermost. Given the output spins, a
hidden field takes one of 2^M values per point and unit, so each sweep
tables the hidden thresholds per output pattern, and a hidden decision is
one uint16 compare of a 16-bit word with the limit its read's output bits
select; the few output spins keep per-read float32 fields. The tables of
a chunk of sweeps take about as much memory as one sweep's hidden words,
so memory does not grow with the number of sweeps.

The Gibbs kernel has no loop over sweeps: a sweep's hidden update reads
the previous sweep only through the output bits y, so with its noise
drawn a sweep is a map from each of the 2^M output patterns to the next
one. The kernel draws the noise of a chunk of sweeps in one call, builds
every sweep's map from the candidate hidden bits under each pattern,
composes the maps with a log-depth prefix scan (Hillis and Steele; see
Blelloch, "Prefix Sums and Their Applications", CMU-CS-90-190, 1990) and
gathers the recorded bits. It takes the draws of a loop of single sweeps
in the same order and computes the same fields, so it returns that loop's
bytes. A chunk holds at most about ``_CHUNK_BYTES`` of float64 candidates
and fields, whatever the number of reads.
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


def _words(bit_generator, n):
    """n 16-bit words: the quarters of ceil(n / 4) raw 64-bit words from one
    call, four per word, in memory order (low quarter first on little-endian
    hosts)."""
    return bit_generator.random_raw((n + 3) // 4).view(np.uint16)[:n]


def _hidden_tables(h_k, coupling, scales):
    """The hidden layer's decision tables for the sweeps of ``scales``.

    For sweep s, output pattern p (y_m = +1 where bit m of p is set, else
    -1), point i and hidden unit k: x = scale * (h_k + sum_m J_km y_m),
    summed in float32 as h_k * scale, then + y_m * (J_km * scale) for
    m = 0, 1, ...; a spin s flips with threshold t = exp(s x + 16 ln 2).
    Only the spin with s x < 0, "favoured" here, can have t below 2**16;
    the other always flips. Returns two (sweeps, P, points, K, 1) tables:

    - ``fav``, uint8: the favoured spin's bit (x < 0), or 2 where t of the
      favoured spin is above 65535 too, so that both spins always flip;
    - ``limit``, uint16: ceil(t) of the favoured spin, the number of
      16-bit words below t (0 where ``fav`` is 2).
    """
    mm = coupling.shape[1]
    spins = np.where((np.arange(1 << mm)[:, None] >> np.arange(mm)) & 1, np.float32(1.0), np.float32(-1.0))
    scaled_j = coupling.T * scales[:, None, None]
    x = (scales[:, None, None] * h_k)[:, None]
    for m in range(mm):
        x = x + spins[:, m, None, None] * scaled_j[:, None, None, m]
    # -|x| + 16 ln 2 is the favoured spin's s x + 16 ln 2, bit for bit
    t = np.exp(_LOG_2_16 - np.abs(x))
    # both spins always flip where t > 65535 (or is NaN)
    free = ~(t <= 65535.0)
    fav = (x < 0).view(np.uint8)
    fav[free] = 2
    np.ceil(t, out=t)
    t[free] = 0.0
    return t.astype(np.uint16)[..., None], fav[..., None]


def _by_pattern(table, y_bits, out):
    """Fills ``out`` (points, K, reads) with table[p] for each read's output
    pattern p, from a (P, points, K, 1) table and (points, M, reads) 0/1
    output bits; bit m of p is y_m. Each output bit, from the highest,
    halves the table with low ^ (mask & (low ^ high)), the mask all ones
    where y_m is 1, which picks high there and low elsewhere; the last
    halving writes ``out``."""
    for m in reversed(range(y_bits.shape[1])):
        half = table.shape[0] // 2
        low = table[:half]
        picked = out[None] if half == 1 else np.empty((half, *out.shape), out.dtype)
        np.bitwise_and(np.negative(y_bits[:, m, None, :], dtype=out.dtype), low ^ table[half:], out=picked)
        picked ^= low
        table = picked
    return out


def anneal_block(h_rows, coupling, betas, reads, seed):
    """Independent Metropolis anneals of a bipartite Ising model, for many
    clamped points in one call.

    ``h_rows`` is (points, K+M): one row of Ising fields per point, hidden
    spins first. ``coupling`` is the (K, M) hidden-output block J[:K, K:]
    of the strictly upper-triangular J, shared by every point; there is no
    coupling within a layer. ``betas`` is the 1-D schedule of inverse
    temperatures; all three must be finite (in float32 for the fields and
    couplings, and for -2 beta). Per beta, one sweep makes a Metropolis
    decision for every hidden spin at once, then for every output spin:
    with flip cost dE = 2 s_i lam_i, spin i flips when w < t for the
    float32 threshold t = exp(-beta dE + 16 ln 2), 2**16 times its
    acceptance p = exp(-beta dE), and a fresh 16-bit word w, uniform on
    0 .. 2**16 - 1. Within a layer the local fields lam_i do not depend on
    each other, so this is the hidden-first single-site scan in
    distribution. Returns (points, reads, K+M) uint8 bits under
    q = (s + 1) / 2.

    16 ln 2 in float32 is off by 3e-8, so t is 2**16 * p up to float32
    rounding; a spin with p < 1 flips with probability ceil(t) / 2**16: at
    least p and less than p + 2**-16. The edge cases:

    - where exp underflows to t = 0, the spin never flips;
    - where 0 < t <= 1 (p at most 2**-16), only w = 0 flips it, with
      probability 2**-16;
    - where p >= 1 (t >= 2**16, or inf when exp overflows), the spin
      always flips, so downhill and zero-cost flips are exact.

    Spins are bits, q = 1 for s = +1, held as (points, units, reads) bool
    arrays, reads innermost. Stream order: the starting bits, one per
    spin, are the bits of ceil(points * (K+M) * reads / 64) raw 64-bit
    words, least significant first, hidden bits in (point, unit, read)
    order and then output bits in (point, output, read) order. Each sweep
    then draws its hidden words and then its output words (``_words``), in
    the same orders.

    Hidden layer. Given the output spins, a hidden field takes one of 2^M
    values per point and unit, so its thresholds are tabled per sweep,
    output pattern, point and unit (``_hidden_tables``, the same float32
    t as a per-spin exp). Of the two spin states one always flips; the
    other, favoured, flips when its word is below the integer limit
    ceil(t), one uint16 compare. The read's output bits pick each
    decision's limit and favoured state out of the 2^M patterns with AND
    and XOR (``_by_pattern``), one code path for every M. The tables are
    built for max(1, reads / 2^(M+3)) sweeps at a time, at most one entry
    per 8 hidden decisions of a sweep when reads >= 2^(M+3), so with their
    float32 intermediates they take about as much memory as one sweep's
    16-bit hidden words, whatever the number of sweeps.

    Output layer. Its fields are per read: scale * (J^T s + h), with
    scale = -2 beta, is one float32 matmul of (2 scale J)^T with the
    hidden bits, plus scale * (h - J^T 1); negated where s = -1, plus
    16 ln 2, then exp, gives t, and w < t is the flip.
    """
    betas = np.asarray(betas, dtype=np.float64)
    with np.errstate(over="ignore"):
        h_rows = np.ascontiguousarray(np.atleast_2d(h_rows), dtype=np.float32)
        coupling = np.ascontiguousarray(coupling, dtype=np.float32)
        scales = (-2.0 * betas).astype(np.float32)
    kk, mm = coupling.shape
    if h_rows.shape[1] != kk + mm:
        raise ValueError(f"h_rows has {h_rows.shape[1]} columns, coupling needs {kk}+{mm}")
    if betas.ndim != 1:
        raise ValueError(f"betas must be 1-D, got shape {betas.shape}")
    for name, values in (("h_rows", h_rows), ("coupling", coupling), ("betas", scales)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite in float32")
    if reads < 1:
        raise ValueError("reads must be >= 1")
    bit_generator = np.random.default_rng(int(seed)).bit_generator
    n_points = h_rows.shape[0]
    n_k, n_y = n_points * kk * reads, n_points * mm * reads
    start = np.unpackbits(bit_generator.random_raw((n_k + n_y + 63) // 64).view(np.uint8), bitorder="little")
    s_k = start[:n_k].view(bool).reshape(n_points, kk, reads)
    s_y = start[n_k : n_k + n_y].view(bool).reshape(n_points, mm, reads)
    y_bits = s_y.view(np.uint8)
    y_offset = (h_rows[:, kk:] - coupling.sum(axis=0))[:, :, None]
    # per-sweep buffers: (points, K, reads) hidden limits, favoured bits
    # (overwritten by the flips) and words below the limit, the hidden bits
    # as float32, and the (points, M, reads) output x
    limit_at = np.empty(s_k.shape, np.uint16)
    fav_at = np.empty(s_k.shape, np.uint8)
    flip = fav_at.view(bool)
    below = np.empty(s_k.shape, bool)
    k_float = np.empty(s_k.shape, np.float32)
    x = np.empty(s_y.shape, np.float32)
    x_bits = x.view(np.uint32)
    chunk = max(1, reads >> (mm + 3))
    with np.errstate(over="ignore"):
        for first in range(0, scales.size, chunk):
            sweeps = scales[first : first + chunk]
            for scale, limit, fav in zip(sweeps, *_hidden_tables(h_rows[:, :kk], coupling, sweeps)):
                # hidden: a spin flips unless it is favoured and its word is
                # not below the limit
                _by_pattern(fav, y_bits, fav_at)
                np.not_equal(s_k.view(np.uint8), fav_at, out=flip)
                words = _words(bit_generator, n_k).reshape(s_k.shape)
                flip |= np.less(words, _by_pattern(limit, y_bits, limit_at), out=below)
                s_k ^= flip
                # output: t = exp(s * scale * (J^T s_k + h) + 16 ln 2)
                np.copyto(k_float, s_k)
                np.matmul(coupling.T * (2 * scale), k_float, out=x)
                x += y_offset * scale
                # times s: the sign bit flipped where s = -1 (y bit 0)
                x_bits ^= np.left_shift(y_bits ^ 1, 31, dtype=np.uint32)
                x += _LOG_2_16
                np.exp(x, out=x)
                s_y ^= _words(bit_generator, n_y).reshape(s_y.shape) < x
    return np.concatenate((s_k, s_y), axis=1).transpose(0, 2, 1).astype(np.uint8, order="C")
