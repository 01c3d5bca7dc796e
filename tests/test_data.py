"""IDX container parsing, dataset containers, and task construction."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from ebmlp.core import rng_from_seed
from ebmlp.data import (
    STANDARD_SPLIT_FILES,
    Dataset,
    IdxFile,
    find_split_file,
    load_idx,
    load_standard_split,
    make_binary_task,
    parse_idx,
    serialize_idx,
    synthetic_task,
)
from ebmlp.mlp import accuracy
from ebmlp.models import Model
from ebmlp.training import train_mlp, TrainOptions


def idx_bytes(magic_type, dims, payload):
    head = bytes([0, 0, magic_type, len(dims)]) + struct.pack(f">{len(dims)}I", *dims)
    return head + payload


class TestParseIdx:
    def test_hand_built_vector(self):
        # magic 00 00 08 01, one dimension of size 2, payload bytes 7 and 3
        data = idx_bytes(0x08, (2,), bytes([7, 3]))
        idx = parse_idx(data)
        assert idx.magic == 0x00000801
        assert idx.dims == (2,)
        np.testing.assert_array_equal(idx.array(), [7, 3])

    def test_hand_built_matrix(self):
        data = idx_bytes(0x08, (2, 3), bytes(range(6)))
        arr = parse_idx(data).array()
        assert arr.shape == (2, 3)
        assert arr[1, 2] == 5

    def test_rank_beyond_three_rejected(self):
        # 00 00 08 05 is a five-dimensional ubyte container
        data = idx_bytes(0x08, (1, 1, 1, 1, 1), bytes([0]))
        with pytest.raises(ValueError, match="unsupported element type or rank"):
            parse_idx(data)

    def test_non_ubyte_type_rejected(self):
        data = idx_bytes(0x0D, (1,), bytes(4))
        with pytest.raises(ValueError, match="unsupported element type or rank"):
            parse_idx(data)

    def test_nonzero_leading_bytes_rejected(self):
        data = b"\x01\x00\x08\x01" + struct.pack(">I", 1) + bytes([0])
        with pytest.raises(ValueError, match="first two bytes must be zero"):
            parse_idx(data)

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="fewer than 4 bytes"):
            parse_idx(b"\x00\x00\x08")

    def test_missing_dimension_sizes_rejected(self):
        with pytest.raises(ValueError, match="missing dimension sizes"):
            parse_idx(b"\x00\x00\x08\x02" + struct.pack(">I", 1))

    def test_truncated_payload_rejected(self):
        data = idx_bytes(0x08, (4,), bytes(3))
        with pytest.raises(ValueError, match="truncated payload"):
            parse_idx(data)

    def test_oversized_payload_rejected(self):
        data = idx_bytes(0x08, (2,), bytes(3))
        with pytest.raises(ValueError, match="payload length mismatch"):
            parse_idx(data)

    def test_dimension_overflow_rejected(self):
        data = idx_bytes(0x08, (0xFFFFFFFF, 0xFFFFFFFF), b"")
        with pytest.raises(ValueError, match="dimension overflow"):
            parse_idx(data)

    def test_serialize_roundtrip(self):
        rng = rng_from_seed(1)
        arr = rng.integers(0, 256, size=(3, 4, 5)).astype(np.uint8)
        idx = IdxFile((0x08 << 8) | 3, arr.shape, arr.tobytes())
        data = serialize_idx(idx)
        back = parse_idx(data)
        assert serialize_idx(back) == data
        np.testing.assert_array_equal(back.array(), arr)


class TestLoadIdx:
    def test_plain_and_gzip(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        data = idx_bytes(0x08, (3, 4), arr.tobytes())
        plain = tmp_path / "plain-idx"
        plain.write_bytes(data)
        packed = tmp_path / "packed-idx.gz"
        packed.write_bytes(gzip.compress(data))
        np.testing.assert_array_equal(load_idx(plain).array(), arr)
        np.testing.assert_array_equal(load_idx(packed).array(), arr)

    def test_find_split_file(self, tmp_path):
        (tmp_path / "stem").write_bytes(b"x")
        (tmp_path / "other.gz").write_bytes(b"x")
        assert find_split_file(tmp_path, "stem").name == "stem"
        assert find_split_file(tmp_path, "other").name == "other.gz"
        assert find_split_file(tmp_path, "absent") is None

    def test_load_standard_split(self, synthetic_split_dir):
        train_x, train_y, test_x, test_y = load_standard_split(synthetic_split_dir)
        assert train_x.shape == (60, 6, 6)
        assert train_y.shape == (60,)
        assert test_x.shape == (40, 6, 6)
        assert test_y.shape == (40,)
        assert train_x.dtype == np.uint8

    def test_split_written_twice_is_equal_in_bytes(self, synthetic_split_dir, write_synthetic_split, tmp_path):
        # the gzipped test files carry no write time in their headers
        write_synthetic_split(tmp_path)
        for path in sorted(synthetic_split_dir.iterdir()):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=STANDARD_SPLIT_FILES[0]):
            load_standard_split(tmp_path)


class TestDataset:
    def test_basic_properties(self):
        data = Dataset(np.array([[0.0, 1.0], [0.5, 0.25]]), np.array([0, 1]))
        assert len(data) == 2
        assert data.n_features == 2

    def test_arrays_frozen(self):
        data = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError):
            data.inputs[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.labels[0] = 1

    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.array([[1.5]]), np.array([0]))
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.array([[0.5]]), np.array([2]))
        with pytest.raises(ValueError, match="equal length"):
            Dataset(np.zeros((2, 1)), np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(4), np.zeros(4, dtype=np.uint8))


class TestMakeBinaryTask:
    def test_balanced_and_scaled(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        train, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=20, seed=3)
        assert len(train) == 20
        assert int(np.sum(train.labels == 0)) == 10
        assert train.n_features == 36
        assert float(train.inputs.max()) <= 1.0
        assert float(train.inputs.max()) == pytest.approx(255.0 / 255.0)
        assert len(test) == 40

    def test_smaller_identifier_is_class_zero(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        a, _ = make_binary_task(*splits, class_a=0, class_b=1, train_count=10, seed=4)
        b, _ = make_binary_task(*splits, class_a=1, class_b=0, train_count=10, seed=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.class_names == ("0", "1")

    def test_seeded_reproducible_and_seed_sensitive(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        a, _ = make_binary_task(*splits, class_a=0, class_b=1, train_count=20, seed=5)
        b, _ = make_binary_task(*splits, class_a=0, class_b=1, train_count=20, seed=5)
        c, _ = make_binary_task(*splits, class_a=0, class_b=1, train_count=20, seed=6)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_test_split_in_order(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        _, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=10, seed=7)
        test_labels = splits[3]
        mask = (test_labels == 0) | (test_labels == 1)
        np.testing.assert_array_equal(test.labels, test_labels[mask])

    @staticmethod
    def _ten_class_split(rng, n_train=2000, n_test=1000, side=28):
        train_y = (np.arange(n_train) % 10).astype(np.uint8)
        test_y = (np.arange(n_test) % 10).astype(np.uint8)
        train_x = rng.integers(0, 256, size=(n_train, side, side), dtype=np.uint8)
        test_x = rng.integers(0, 256, size=(n_test, side, side), dtype=np.uint8)
        return train_x, train_y, test_x, test_y

    def test_rows_equal_whole_split_conversion(self):
        train_x, train_y, test_x, test_y = self._ten_class_split(rng_from_seed(30), 200, 100, 6)
        train, test = make_binary_task(train_x, train_y, test_x, test_y, class_a=3, class_b=7, train_count=20, seed=2)
        mask = (test_y == 3) | (test_y == 7)
        whole = test_x.reshape(len(test_x), -1).astype(np.float64) / 255.0
        assert np.array_equal(test.inputs, whole[mask])
        whole_train = train_x.reshape(len(train_x), -1).astype(np.float64) / 255.0
        assert all(any(np.array_equal(row, ref) for ref in whole_train) for row in train.inputs)

    def test_peak_memory_tracks_kept_rows(self):
        # two classes of ten: converting whole splits before selecting rows
        # would peak at several times what the task keeps
        splits = self._ten_class_split(rng_from_seed(31))
        tracemalloc.start()
        try:
            train, test = make_binary_task(*splits, class_a=0, class_b=1, train_count=20, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = train.inputs.nbytes + test.inputs.nbytes
        assert peak < 1.5 * kept, (peak, kept)

    def test_equal_classes_rejected(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        with pytest.raises(ValueError, match="must differ"):
            make_binary_task(*splits, class_a=1, class_b=1, train_count=10, seed=0)

    def test_odd_train_count_rejected(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        with pytest.raises(ValueError, match="even"):
            make_binary_task(*splits, class_a=0, class_b=1, train_count=9, seed=0)

    def test_insufficient_images_rejected(self, synthetic_split_dir):
        splits = load_standard_split(synthetic_split_dir)
        with pytest.raises(ValueError, match="insufficient images of class"):
            make_binary_task(*splits, class_a=0, class_b=1, train_count=200, seed=0)

    def test_missing_test_class_rejected(self, synthetic_split_dir):
        train_x, train_y, test_x, test_y = load_standard_split(synthetic_split_dir)
        only_zero = test_y.copy()
        only_zero[:] = 0
        with pytest.raises(ValueError, match="test split"):
            make_binary_task(train_x, train_y, test_x, only_zero, class_a=0, class_b=1, train_count=10, seed=0)


class TestSyntheticTask:
    def test_shapes_and_range(self):
        data = synthetic_task(4, 25, seed=8)
        assert len(data) == 25
        assert data.n_features == 4
        assert float(data.inputs.min()) >= 0.0
        assert float(data.inputs.max()) <= 1.0
        assert set(np.unique(data.labels)) <= {0, 1}

    def test_deterministic(self):
        a = synthetic_task(3, 15, seed=9)
        b = synthetic_task(3, 15, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_empty_set(self):
        data = synthetic_task(2, 0, seed=10)
        assert len(data) == 0

    def test_margin_separates_classes(self):
        # a linear probe trained on the data reaches full accuracy, which
        # only happens when the generated classes are in fact separable
        data = synthetic_task(3, 60, seed=11)
        model = Model.init_gaussian(3, 4, 1, rng_from_seed(12))
        train_mlp(model, data, TrainOptions(steps=60, batch_size=60, lr=0.2, seed=0))
        assert accuracy(model, data) == 1.0

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="n_inputs"):
            synthetic_task(0, 5, seed=0)
