"""Parameter containers, initializers, and the binary model format."""

import numpy as np
import pytest

import ebmlp.models as models
from ebmlp.core import rng_from_seed
from ebmlp.models import (
    MODEL_MAGIC,
    GradientSet,
    Model,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)


class TestValidation:
    def test_shapes_accepted(self, make_model):
        model = make_model(n=4, k=3, m=2)
        assert model.n_visible == 4
        assert model.n_hidden == 3
        assert model.n_outputs == 2

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            Model(np.zeros((2, 3)), np.zeros((1, 4)), np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError, match="inconsistent shapes"):
            Model(np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(3), np.zeros(1))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            Model(np.zeros(6), np.zeros((1, 2)), np.zeros(2), np.zeros(1))

    def test_non_finite_rejected(self):
        w1 = np.zeros((2, 3))
        w1[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Model(w1, np.zeros((1, 2)), np.zeros(2), np.zeros(1))

    def test_params_roundtrip(self, make_model):
        model = make_model()
        clone = model.copy()
        clone.set_params(model.params())
        for a, b in zip(clone.params().values(), model.params().values()):
            np.testing.assert_array_equal(a, b)

    def test_copy_is_independent(self, make_model):
        model = make_model()
        clone = model.copy()
        clone.w1[0, 0] += 1.0
        assert model.w1[0, 0] != clone.w1[0, 0]


class TestInit:
    def test_zeros(self):
        model = Model.zeros(5, 3, 2)
        for a in model.params().values():
            assert not np.any(a)

    def test_gaussian_statistics(self):
        rng = rng_from_seed(0)
        model = Model.init_gaussian(200, 100, 50, rng, std=0.01)
        flat = np.concatenate([model.w1.ravel(), model.w2.ravel()])
        assert abs(float(np.mean(flat))) < 0.001
        assert abs(float(np.std(flat)) - 0.01) < 0.002
        assert not np.any(model.b) and not np.any(model.c)

    def test_gaussian_seeded(self):
        a = Model.init_gaussian(4, 3, 2, rng_from_seed(9))
        b = Model.init_gaussian(4, 3, 2, rng_from_seed(9))
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_old_names_build_a_model(self):
        model = models.EbmModel(np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(2), np.zeros(1))
        assert type(model) is Model and models.MlpModel is Model


class TestGradientSet:
    def test_param_dict_keys(self, make_model):
        model = make_model()
        g = GradientSet(
            np.ones_like(model.w1),
            np.ones_like(model.w2),
            np.ones_like(model.b),
            np.ones_like(model.c),
        )
        assert set(g.as_param_dict()) == set(model.params())

    def test_negate_and_sub(self):
        g = GradientSet(np.full((1, 1), 2.0), np.full((1, 1), -3.0), np.zeros(1), np.ones(1))
        n = g.negate()
        assert n.dw1[0, 0] == -2.0 and n.dw2[0, 0] == 3.0
        d = g - g
        assert d.max_abs() == 0.0

    def test_max_abs(self):
        g = GradientSet(np.full((1, 2), 0.5), np.full((1, 1), -4.0), np.zeros(1), np.zeros(1))
        assert g.max_abs() == 4.0


class TestSerialization:
    def test_roundtrip_bitwise(self, make_model):
        model = make_model(n=5, k=4, m=3, seed=11)
        data = model_to_bytes(model)
        back = model_from_bytes(data)
        assert isinstance(back, Model)
        for a, b in zip(back.params().values(), model.params().values()):
            np.testing.assert_array_equal(a, b)
        assert model_to_bytes(back) == data

    def test_header_layout(self):
        model = Model.zeros(2, 3, 1)
        data = model_to_bytes(model)
        assert data[:8] == MODEL_MAGIC
        assert data[8:20] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + (
            1
        ).to_bytes(4, "little")
        assert len(data) == 8 + 12 + 8 * (3 * 2 + 1 * 3 + 3 + 1)

    def test_bad_magic_rejected(self, make_model):
        data = b"XXXXXXXX" + model_to_bytes(make_model())[8:]
        with pytest.raises(ValueError, match="magic"):
            model_from_bytes(data)

    def test_truncations_rejected(self, make_model):
        data = model_to_bytes(make_model())
        with pytest.raises(ValueError, match="truncated"):
            model_from_bytes(data[:12])
        with pytest.raises(ValueError, match="truncated"):
            model_from_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            model_from_bytes(data + b"\x00" * 8)

    def test_file_roundtrip(self, make_model, tmp_path):
        model = make_model(seed=21)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.w1, model.w1)
        np.testing.assert_array_equal(back.c, model.c)
