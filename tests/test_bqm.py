"""Quadratic binary encoding of the conditional, Ising conversion, and
hardware-range clamping.

The exhaustive checks enumerate assignments with plain loops so the energy
identities are verified against arithmetic done a different way.
"""

import itertools
import math

import numpy as np
import pytest

from ebmlp.bqm import (
    H_RANGE,
    J_RANGE,
    Bqm,
    IsingModel,
    bqm_to_ising,
    bqm_to_text,
    build_conditional_bqm,
    clamp_to_hardware,
    clamped_ising_rows,
    ising_to_bqm,
    ising_to_text,
)
from ebmlp.core import rng_from_seed
from ebmlp.ebm import enumerate_states, exact_conditional, state_energies
from ebmlp.mlp import pre_activation
from ebmlp.models import Model


def random_bqm(n, rng, scale=1.0):
    q = np.triu(rng.normal(0.0, scale, (n, n)))
    return Bqm(n, q, float(rng.normal()))


class TestContainers:
    def test_bqm_energy_scalar_oracle(self):
        rng = rng_from_seed(1)
        bqm = random_bqm(4, rng)
        for bits in itertools.product((0, 1), repeat=4):
            e = bqm.offset
            for i in range(4):
                for k in range(4):
                    e += bits[i] * float(bqm.q[i, k]) * bits[k]
            assert math.isclose(bqm.energy(np.array(bits, float)), e, abs_tol=1e-12)

    def test_ising_energy_scalar_oracle(self):
        rng = rng_from_seed(2)
        ising = IsingModel(3, rng.normal(size=3), np.triu(rng.normal(size=(3, 3)), 1), 0.25)
        for spins in itertools.product((-1, 1), repeat=3):
            e = ising.offset
            for i in range(3):
                e -= float(ising.h[i]) * spins[i]
                for k in range(i + 1, 3):
                    e -= float(ising.j[i, k]) * spins[i] * spins[k]
            assert math.isclose(ising.energy(np.array(spins, float)), e, abs_tol=1e-12)

    def test_lower_triangle_rejected(self):
        q = np.zeros((2, 2))
        q[1, 0] = 1.0
        with pytest.raises(ValueError, match="upper"):
            Bqm(2, q)
        with pytest.raises(ValueError, match="upper"):
            IsingModel(2, np.zeros(2), q)

    def test_ising_diagonal_rejected(self):
        with pytest.raises(ValueError, match="upper"):
            IsingModel(2, np.zeros(2), np.eye(2))

    def test_non_binary_assignment_rejected(self):
        bqm = Bqm(2, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="binary"):
            bqm.energy(np.array([0.5, 0.0]))

    def test_bad_spins_rejected(self):
        ising = IsingModel(2, np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="spins"):
            ising.energy(np.array([1.0, 0.0]))


class TestBuildConditionalBqm:
    def test_hand_example(self):
        # K=1, M=1, W1=[[1]], x=[1], b=[0.6], c=[-0.4], W2=[[0.2]], beta=2:
        # diagonal [-(1.0+0.6)/2, 0.4/2], coupling -0.2/2
        model = Model(np.array([[1.0]]), np.array([[0.2]]), np.array([0.6]), np.array([-0.4]))
        bqm = build_conditional_bqm(model, np.array([1.0]), 2.0)
        assert bqm.n == 2
        assert bqm.offset == 0.0
        np.testing.assert_allclose(np.diag(bqm.q), [-0.8, 0.2], atol=1e-15)
        assert math.isclose(float(bqm.q[0, 1]), -0.1, abs_tol=1e-15)

    def test_zero_model_gives_zero_matrix(self):
        model = Model.zeros(5, 2, 1)
        bqm = build_conditional_bqm(model, np.ones(5), 4.0)
        assert not np.any(bqm.q) and bqm.offset == 0.0

    def test_size_independent_of_input_width(self):
        for n in (1, 10, 100):
            model = Model.zeros(n, 3, 2)
            assert build_conditional_bqm(model, np.zeros(n), 1.0).n == 5

    def test_scaled_energy_matches_clamped_energy(self, make_model):
        # -beta * E_bqm(k, y) equals E(x, k, y) on every assignment
        model = make_model(n=3, k=2, m=2, seed=3)
        x = rng_from_seed(4).random(3)
        beta = 8.0
        bqm = build_conditional_bqm(model, x, beta)
        states = enumerate_states(4)
        energies = state_energies(model, x, states)
        for row, e in zip(states, energies):
            assert math.isclose(-beta * bqm.energy(row.astype(float)), float(e), abs_tol=1e-12)

    def test_boltzmann_reproduces_conditional(self, make_model):
        # renormalized exp(-beta * E_bqm) is the exact conditional
        model = make_model(n=4, k=3, m=2, seed=5)
        x = rng_from_seed(6).random(4)
        beta = 16.0
        bqm = build_conditional_bqm(model, x, beta)
        cond = exact_conditional(model, x)
        weights = np.array(
            [math.exp(-beta * bqm.energy(row.astype(float))) for row in cond.states]
        )
        weights /= weights.sum()
        assert float(np.max(np.abs(weights - cond.probs))) < 1e-10

    def test_bad_beta_rejected(self, make_model):
        model = make_model()
        with pytest.raises(ValueError, match="beta_eff must be positive"):
            build_conditional_bqm(model, np.zeros(model.n_visible), 0.0)

    def test_bad_x_rejected(self, make_model):
        model = make_model(n=3)
        with pytest.raises(ValueError, match="x has shape"):
            build_conditional_bqm(model, np.zeros(4), 1.0)


class TestClampedIsingRows:
    """The annealer's closed form, pinned against the per-input pipeline
    build_conditional_bqm -> bqm_to_ising -> clamp_to_hardware."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("std, clipping", [(0.5, False), (20.0, True)])
    def test_matches_the_pipeline(self, make_model, m, std, clipping):
        k, beta = 5, 4.0
        model = make_model(n=6, k=k, m=m, seed=80 + m, std=std)
        xs = rng_from_seed(90 + m).random((4, 6))
        h_rows, coupling = clamped_ising_rows(model, pre_activation(model, xs), beta)
        pipeline = [clamp_to_hardware(bqm_to_ising(build_conditional_bqm(model, x, beta))) for x in xs]
        assert any(report for _, report in pipeline) == clipping
        ref_h = np.stack([ising.h for ising, _ in pipeline])
        for ising, _ in pipeline:
            # bipartite: the only couplings join a hidden unit to an output
            assert not np.any(ising.j[:k, :k]) and not np.any(ising.j[k:, k:])
            np.testing.assert_array_equal(ising.j[:k, k:], pipeline[0][0].j[:k, k:])
        ref_j = pipeline[0][0].j[:k, k:]
        # the batched product rounds apart from the per-input w1 @ x in the
        # last bits; the annealer casts both to float32 first
        np.testing.assert_allclose(h_rows, ref_h, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(coupling, ref_j, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(h_rows.astype(np.float32), ref_h.astype(np.float32))
        np.testing.assert_array_equal(coupling.astype(np.float32), ref_j.astype(np.float32))


class TestIsingConversion:
    def test_single_variable_hand_example(self):
        # Q = [[1]]: q = (s+1)/2 gives E = (s+1)/2 = s/2 + 1/2,
        # matching -h s + offset with h = -1/2, offset 1/2
        ising = bqm_to_ising(Bqm(1, np.array([[1.0]])))
        assert math.isclose(float(ising.h[0]), -0.5, abs_tol=1e-15)
        assert math.isclose(ising.offset, 0.5, abs_tol=1e-15)

    def test_energies_agree_exhaustively(self):
        rng = rng_from_seed(7)
        for trial in range(5):
            n = int(rng.integers(2, 9))
            bqm = random_bqm(n, rng, scale=2.0)
            ising = bqm_to_ising(bqm)
            for bits in itertools.product((0, 1), repeat=n):
                bits_arr = np.array(bits, float)
                spins = 2.0 * bits_arr - 1.0
                assert abs(bqm.energy(bits_arr) - ising.energy(spins)) <= 1e-12

    def test_roundtrip_identity(self):
        rng = rng_from_seed(8)
        for _ in range(5):
            bqm = random_bqm(6, rng, scale=3.0)
            back = ising_to_bqm(bqm_to_ising(bqm))
            np.testing.assert_allclose(back.q, bqm.q, atol=1e-12)
            assert abs(back.offset - bqm.offset) <= 1e-12

    def test_reverse_roundtrip_identity(self):
        rng = rng_from_seed(9)
        ising = IsingModel(5, rng.normal(size=5), np.triu(rng.normal(size=(5, 5)), 1), 1.5)
        back = bqm_to_ising(ising_to_bqm(ising))
        np.testing.assert_allclose(back.h, ising.h, atol=1e-12)
        np.testing.assert_allclose(back.j, ising.j, atol=1e-12)
        assert abs(back.offset - ising.offset) <= 1e-12


class TestClamp:
    def test_in_range_is_identity(self):
        ising = IsingModel(2, np.array([1.0, -2.0]), np.triu(np.full((2, 2), 0.5), 1))
        clamped, report = clamp_to_hardware(ising)
        assert not report and len(report) == 0
        assert report.max_shift == 0.0
        np.testing.assert_array_equal(clamped.h, ising.h)
        np.testing.assert_array_equal(clamped.j, ising.j)

    def test_field_clip_reported(self):
        ising = IsingModel(1, np.array([5.0]), np.zeros((1, 1)))
        clamped, report = clamp_to_hardware(ising)
        assert float(clamped.h[0]) == H_RANGE[1]
        assert len(report) == 1
        entry = report.clips[0]
        assert entry.term == "h" and entry.index == (0,)
        assert math.isclose(entry.shift, 3.0, abs_tol=1e-15)
        assert report

    def test_coupling_clip_reported(self):
        j = np.zeros((2, 2))
        j[0, 1] = -4.0
        clamped, report = clamp_to_hardware(IsingModel(2, np.zeros(2), j))
        assert float(clamped.j[0, 1]) == J_RANGE[0]
        assert report.clips[0].term == "J" and report.clips[0].index == (0, 1)
        assert math.isclose(report.max_shift, 3.0, abs_tol=1e-15)

    def test_clipping_changes_boltzmann_distribution(self):
        # 3 spins with an out-of-range field: the clipped model's Boltzmann
        # weights differ, which is why the report is loud about it
        rng = rng_from_seed(10)
        ising = IsingModel(3, np.array([4.0, 0.3, -0.2]), np.triu(rng.normal(size=(3, 3)), 1))
        clamped, report = clamp_to_hardware(ising)
        assert report

        def boltzmann(m):
            es = np.array(
                [m.energy(np.array(s, float)) for s in itertools.product((-1, 1), repeat=3)]
            )
            w = np.exp(-es + es.min())
            return w / w.sum()

        assert float(np.max(np.abs(boltzmann(ising) - boltzmann(clamped)))) > 1e-3

    def test_custom_ranges(self):
        ising = IsingModel(1, np.array([0.8]), np.zeros((1, 1)))
        clamped, report = clamp_to_hardware(ising, h_range=(-0.5, 0.5))
        assert float(clamped.h[0]) == 0.5
        assert len(report) == 1


class TestTextFormats:
    def test_bqm_text_golden(self):
        q = np.array([[0.5, -0.25], [0.0, 1.0]])
        text = bqm_to_text(Bqm(2, q, 0.125))
        assert text == "2 0.125\n0 0 0.5\n1 1 1\n0 1 -0.25\n"

    def test_ising_text_golden(self):
        ising = IsingModel(2, np.array([-0.5, 0.0]), np.triu(np.array([[0.0, 0.75], [0.0, 0.0]])), 0.0)
        assert ising_to_text(ising) == "2 0\n0 0 -0.5\n1 1 0\n0 1 0.75\n"

    def test_seventeen_digit_roundtrip(self):
        value = 1.0 / 3.0
        text = bqm_to_text(Bqm(1, np.array([[value]])))
        parsed = float(text.splitlines()[1].split()[2])
        assert parsed == value

    def test_zero_couplings_omitted(self):
        text = bqm_to_text(Bqm(3, np.diag([1.0, 2.0, 3.0])))
        assert len(text.splitlines()) == 4
