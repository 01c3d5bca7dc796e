"""End-to-end acceptance checks, one verdict per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) that
folds every sub-check and the wall-clock budget into one verdict. The two
desk-scale digit reproductions need the standard digit corpus installed
(set EBMLP_DATA_DIR or place the four split files under data/) and skip
with an explicit reason when it is absent; everything else is
self-contained and runs on any machine.
"""

import dataclasses
import time

import numpy as np

from ebmlp.bqm import bqm_to_ising, build_conditional_bqm, clamp_to_hardware
from ebmlp.core import rng_from_seed
from ebmlp.ebm import (
    conditional_log_likelihood,
    exact_conditional,
    grad_conditional_ll,
    train_ebm,
)
from ebmlp.experiments import (
    RunConfig,
    bench_runtime,
    load_task,
    monotone_components,
    run_equivalence,
    run_track,
)
from ebmlp.mlp import grad_backprop, mean_cross_entropy, train_mlp
from ebmlp.models import Model, initial_model
from ebmlp.samplers import GibbsSampler, SamplerConfig, SimAnnealSampler, sampler_seed

PARAM_NAMES = ("w1", "w2", "b", "c")


def _report(tag, checks, elapsed=None, budget=None):
    """Print one verdict line for an acceptance check and assert it."""
    checks = list(checks)
    if budget is not None:
        checks.append((f"runtime {elapsed:.1f}s < {budget:.0f}s", elapsed < budget))
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{label} [{'ok' if flag else 'FAIL'}]" for label, flag in checks)
    print(f"\n[acceptance] {tag}: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"{tag}: {detail}"


def _worst_relative_error(model, objective, grads, h=1e-5):
    """Max over parameters of |analytic - central difference| scaled by
    max(1, |fd|), the usual gradient-check metric."""
    worst = 0.0
    for name in PARAM_NAMES:
        arr = getattr(model, name)
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = objective(model)
            arr[idx] = keep - h
            down = objective(model)
            arr[idx] = keep
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(float(g[idx]) - fd) / max(1.0, abs(fd)))
    return worst


def test_01_mlp_backprop_matches_finite_differences():
    t0 = time.perf_counter()
    rng = rng_from_seed(101)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 7))
        model = Model(
            rng.normal(0.0, 0.7, (k, n)),
            rng.normal(0.0, 0.7, (1, k)),
            rng.normal(0.0, 0.7, k),
            rng.normal(0.0, 0.7, 1),
        )
        x = rng.random((8, n))
        y = rng.integers(0, 2, (8, 1)).astype(np.float64)
        grads = grad_backprop(model, (x, y)).as_param_dict()
        worst = max(worst, _worst_relative_error(model, lambda m: mean_cross_entropy(m, x, y), grads))
    _report(
        "mlp gradient check (10 models)",
        [(f"max relative error {worst:.2e} <= 1e-06", worst <= 1e-6)],
        elapsed=time.perf_counter() - t0,
        budget=10.0,
    )


def test_02_ebm_exact_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = rng_from_seed(202)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        model = Model(
            rng.normal(0.0, 0.7, (k, n)),
            rng.normal(0.0, 0.7, (1, k)),
            rng.normal(0.0, 0.7, k),
            rng.normal(0.0, 0.7, 1),
        )
        x = rng.random((6, n))
        y = rng.integers(0, 2, (6, 1)).astype(np.float64)
        grads = grad_conditional_ll(model, (x, y)).as_param_dict()

        def loglik(m):
            return float(np.mean([conditional_log_likelihood(m, xe, ye) for xe, ye in zip(x, y)]))

        worst = max(worst, _worst_relative_error(model, loglik, grads))
    _report(
        "ebm exact gradient check (10 models)",
        [(f"max relative error {worst:.2e} <= 1e-06", worst <= 1e-6)],
        elapsed=time.perf_counter() - t0,
        budget=30.0,
    )


def test_03_gradient_discrepancy_shrinks_quadratically():
    # at shared small parameters the MLP descent gradient and the negated
    # EBM ascent gradient agree to second order; the surviving first-order
    # term is proportional to (mean label - 1/2), so the batch is balanced
    t0 = time.perf_counter()
    scales = (0.02, 0.01, 0.005)
    checks = []
    for seed in (7, 11, 23):
        rng = rng_from_seed(seed)
        w1 = rng.normal(size=(6, 5))
        w2 = rng.normal(size=(1, 6))
        b = rng.normal(size=6)
        c = rng.normal(size=1)
        x = rng.random((8, 5))
        y = np.array([0.0, 1.0] * 4).reshape(8, 1)
        gaps = []
        for s in scales:
            gm = grad_backprop(Model(s * w1, s * w2, s * b, s * c), (x, y)).as_param_dict()
            ge = grad_conditional_ll(Model(s * w1, s * w2, s * b, s * c), (x, y)).as_param_dict()
            gaps.append(max(float(np.max(np.abs(gm[nm] + ge[nm]))) for nm in PARAM_NAMES))
        slope = float(np.polyfit(np.log(scales), np.log(gaps), 1)[0])
        checks.append((f"seed {seed} exponent {slope:.3f} in [1.8, 2.2]", 1.8 <= slope <= 2.2))
        checks.append((f"seed {seed} gaps decrease", gaps[0] > gaps[1] > gaps[2]))
    _report(
        "first-order gradient agreement",
        checks,
        elapsed=time.perf_counter() - t0,
        budget=60.0,
    )


def test_04_bqm_ising_and_boltzmann_identities():
    t0 = time.perf_counter()
    rng = rng_from_seed(2026)
    worst_energy = 0.0
    worst_method = 0.0
    worst_prob = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 12))
        m = int(rng.integers(1, min(12 - k, 4) + 1))
        n = int(rng.integers(1, 7))
        model = Model(
            rng.normal(0.0, 0.7, (k, n)),
            rng.normal(0.0, 0.7, (m, k)),
            rng.normal(0.0, 0.7, k),
            rng.normal(0.0, 0.7, m),
        )
        x = rng.random(n)
        beta = float(rng.uniform(0.5, 20.0))
        bqm = build_conditional_bqm(model, x, beta)
        ising = bqm_to_ising(bqm)
        nb = k + m
        states = ((np.arange(2**nb)[:, None] >> np.arange(nb)) & 1).astype(np.float64)
        spins = 2.0 * states - 1.0
        e_bqm = np.einsum("si,ij,sj->s", states, bqm.q, states) + bqm.offset
        e_ising = -(spins @ ising.h) - np.einsum("si,ij,sj->s", spins, ising.j, spins) + ising.offset
        worst_energy = max(worst_energy, float(np.max(np.abs(e_bqm - e_ising))))
        for idx in rng.integers(0, 2**nb, 8):
            worst_method = max(worst_method, abs(bqm.energy(states[idx]) - ising.energy(spins[idx])))
        w = np.exp(-beta * (e_bqm - e_bqm.min()))
        boltzmann = w / w.sum()
        worst_prob = max(worst_prob, float(np.max(np.abs(boltzmann - exact_conditional(model, x).probs))))
    _report(
        "bqm/ising correctness (100 instances)",
        [
            (f"energy tables agree {worst_energy:.2e} <= 1e-12", worst_energy <= 1e-12),
            (f"energy methods agree {worst_method:.2e} <= 1e-12", worst_method <= 1e-12),
            (f"boltzmann equals conditional {worst_prob:.2e} <= 1e-10", worst_prob <= 1e-10),
        ],
        elapsed=time.perf_counter() - t0,
        budget=60.0,
    )


def test_05_sampler_fidelity_at_1e5_reads(empirical_distribution):
    t0 = time.perf_counter()
    rng = rng_from_seed(3)
    n, k, m = 4, 5, 3
    model = Model(
        rng.normal(0.0, 0.5, (k, n)),
        rng.normal(0.0, 0.5, (m, k)),
        rng.normal(0.0, 0.5, k),
        rng.normal(0.0, 0.5, m),
    )
    x = rng.random(n)
    exact = exact_conditional(model, x).probs

    gibbs = GibbsSampler(SamplerConfig(reads=100_000, burn_in=100, thin=1, seed=41))
    tv_gibbs = 0.5 * float(np.abs(empirical_distribution(gibbs.sample_batch(model, x[None, :])[0]) - exact).sum())

    anneal = SimAnnealSampler(SamplerConfig(reads=100_000, beta_eff=16.0, anneal_sweeps=300, seed=43))
    _, clip_report = clamp_to_hardware(bqm_to_ising(build_conditional_bqm(model, x, anneal.config.beta_eff)))
    reads = anneal.sample_batch(model, x[None, :])[0]
    tv_anneal = 0.5 * float(np.abs(empirical_distribution(reads) - exact).sum())

    _report(
        "sampler fidelity (K+M=8, 1e5 reads)",
        [
            (f"gibbs TV {tv_gibbs:.4f} <= 0.02", tv_gibbs <= 0.02),
            (f"simanneal TV {tv_anneal:.4f} <= 0.05", tv_anneal <= 0.05),
            ("no clipping active", len(clip_report) == 0),
        ],
        elapsed=time.perf_counter() - t0,
        budget=300.0,
    )


def _peak_weight_over_run(config, train_set, test_set):
    """Largest |parameter| seen at any step of a training run, replayed by
    rerunning ever-longer prefixes (the batch stream and per-step sampler
    seeds depend only on the step index, so prefixes are exact)."""
    peak = 0.0
    for steps in range(1, config.steps + 1):
        prefix = dataclasses.replace(config, steps=steps)
        model = initial_model(prefix.seed, train_set.n_features, prefix.n_hidden, prefix.init_std)
        options = prefix.train_options(prefix.seed)
        if config.track == "classical1":
            train_mlp(model, train_set, options, test_set)
        else:
            sampler = GibbsSampler(prefix.sampler_config(sampler_seed(prefix.seed)))
            train_ebm(model, train_set, sampler, options, test_set)
        step_peak = max(float(np.max(np.abs(getattr(model, nm)))) for nm in PARAM_NAMES)
        peak = max(peak, step_peak)
    return peak


def test_06_digit_task_track_reproduction(digit_corpus_dir, tmp_path):
    t0 = time.perf_counter()
    aggregates = {}
    for track in ("classical1", "classical2", "quantum-sim"):
        config = RunConfig(track=track, data_dir=str(digit_corpus_dir), output_dir=str(tmp_path / track), seed=0)
        _, _, aggregates[track] = run_track(config)
    c1 = aggregates["classical1"]
    c2 = aggregates["classical2"]
    qs = aggregates["quantum-sim"]

    checks = []
    for label, agg in (("classical1", c1), ("classical2", c2)):
        acc = agg["mean_successful_accuracy"]
        steps70 = agg["median_steps_to_70"]
        checks.append((f"{label} successful-trial accuracy {acc} >= 0.95", acc is not None and acc >= 0.95))
        checks.append((f"{label} median steps-to-70 {steps70} <= 12", steps70 is not None and steps70 <= 12))
    qacc = qs["mean_successful_accuracy"]
    gap = None if (qacc is None or c2["mean_successful_accuracy"] is None) else abs(qacc - c2["mean_successful_accuracy"])
    checks.append((f"quantum-sim accuracy within 0.05 of classical2 (gap {gap})", gap is not None and gap <= 0.05))

    # small-weight training claim: parameters stay below one in magnitude
    # for the whole 20-step run at these settings, checked on both
    # classical tracks at every step of trial 0
    for track in ("classical1", "classical2"):
        config = RunConfig(track=track, data_dir=str(digit_corpus_dir), output_dir=str(tmp_path / track), seed=0)
        train_set, test_set = load_task(config)
        peak = _peak_weight_over_run(config, train_set, test_set)
        checks.append((f"{track} max |param| {peak:.3f} < 1 throughout", peak < 1.0))

    _report(
        "digit-task track reproduction (3 tracks, 5 trials)",
        checks,
        elapsed=time.perf_counter() - t0,
        budget=1800.0,
    )


def test_07_lockstep_equivalence_converges(digit_corpus_dir, tmp_path):
    t0 = time.perf_counter()
    config = RunConfig(
        track="equivalence",
        data_dir=str(digit_corpus_dir),
        output_dir=str(tmp_path),
        train_count=200,
        n_hidden=32,
        steps=50,
        seed=0,
    )
    report = run_equivalence(config)
    acc_gap = abs(report.acc_mlp_ebm_weights[-1] - report.acc_mlp[-1])
    _report(
        "lockstep equivalence (200 images, 50 steps)",
        [
            (
                f"final KL {report.final_kl:.4f} < half of max {report.max_kl:.4f}",
                report.max_kl > 0.0 and report.final_kl < 0.5 * report.max_kl,
            ),
            (f"transferred-weight accuracy gap {acc_gap:.3f} <= 0.05", acc_gap <= 0.05),
        ],
        elapsed=time.perf_counter() - t0,
        budget=1200.0,
    )


def test_08_benchmark_scaling_is_monotone():
    t0 = time.perf_counter()
    sizes = (10, 100, 1000, 10000)
    rows = bench_runtime(sizes=sizes, repeats=21, seed=0)
    flags = monotone_components(rows)
    per_series = {}
    for row in rows:
        per_series.setdefault(row["component"], []).append(row["size"])
    checks = [("mlp_matmul measured", "mlp_matmul" in flags)]
    checks.append(("gibbs_conditional measured", "gibbs_conditional" in flags))
    checks.append(("every series covers all sizes", all(sorted(v) == list(sizes) for v in per_series.values())))
    for comp, flag in sorted(flags.items()):
        checks.append((f"{comp} nondecreasing", flag))
    _report(
        "runtime benchmark scaling",
        checks,
        elapsed=time.perf_counter() - t0,
        budget=None,
    )
