"""Tests for sparse ingestion and the generators."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from softmax_bounds import datasets
from softmax_bounds.config import ConfigError
from softmax_bounds.datasets import (
    DatasetFormatError,
    SparseDataset,
    gen_powerlaw_categorical,
    load_sparse,
    unify_pair,
)
from softmax_bounds.rng import substream

from helpers import gen_toy_5class, write_sparse


class TestLoadSparse:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("3 1:0.5 7:2.0\n")
        ds = load_sparse(str(p))
        assert len(ds) == 1
        mat, y = ds.to_csr()
        assert y.tolist() == [2]  # 1-based on disk
        np.testing.assert_array_equal(mat.indptr, [0, 2])
        np.testing.assert_array_equal(mat.indices, [0, 6])
        np.testing.assert_array_equal(mat.data, [0.5, 2.0])
        assert ds.num_classes == 3
        assert ds.num_features == 7

    def test_duplicate_index_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 2:1 2:1\n")
        with pytest.raises(DatasetFormatError, match="line 1.*duplicate"):
            load_sparse(str(p))

    def test_unsorted_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n2 5:1 3:1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_sparse(str(p))

    def test_bad_label(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("zero 1:1\n")
        with pytest.raises(DatasetFormatError, match="line 1.*label"):
            load_sparse(str(p))
        p.write_text("0 1:1\n")
        with pytest.raises(DatasetFormatError, match="label 0"):
            load_sparse(str(p))

    def test_missing_label(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1:1 2:1\n")
        with pytest.raises(DatasetFormatError, match="line 1.*label"):
            load_sparse(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("\n\n")
        with pytest.raises(DatasetFormatError, match="no instances"):
            load_sparse(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n\n2 2:1\n")
        assert len(load_sparse(str(p))) == 2

    def test_empty_feature_row_allowed(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1\n2 1:1\n")
        ds = load_sparse(str(p))
        np.testing.assert_array_equal(ds.to_csr()[0].indptr, [0, 0, 1])

    def test_sidecar_overrides(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n")
        (tmp_path / "d.txt.meta.json").write_text('{"K": 10, "D": 50}')
        ds = load_sparse(str(p))
        assert ds.num_classes == 10
        assert ds.num_features == 50

    def test_sidecar_too_small_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("5 9:1\n")
        (tmp_path / "d.txt.meta.json").write_text('{"K": 3, "D": 50}')
        with pytest.raises(DatasetFormatError, match="exceeds"):
            load_sparse(str(p))

    @pytest.mark.parametrize(
        "meta",
        ['{"K": 3,', '{"K": "3"}', '{"K": -1}', '{"K": 1}', '{"D": 2.5}', '{"D": true}',
         '{"K": [3]}', "[3, 2]"],
    )
    def test_malformed_sidecar_rejected(self, tmp_path, meta):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n")
        (tmp_path / "d.txt.meta.json").write_text(meta)
        with pytest.raises(DatasetFormatError, match=r"d\.txt\.meta\.json"):
            load_sparse(str(p))

    def test_explicit_counts_override(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n")
        ds = load_sparse(str(p), num_classes=4, num_features=9)
        assert ds.num_classes == 4
        assert ds.num_features == 9
        # an explicit count wins over the sidecar's, each on its own
        (tmp_path / "d.txt.meta.json").write_text('{"K": 10, "D": 50}')
        ds = load_sparse(str(p), num_classes=2)
        assert (ds.num_classes, ds.num_features) == (2, 50)
        ds = load_sparse(str(p), num_features=1)
        assert (ds.num_classes, ds.num_features) == (10, 1)
        # only inferred counts are raised to 2 classes and 1 feature; an
        # explicit count below that is refused before the file is read
        (tmp_path / "d.txt.meta.json").unlink()
        ds = load_sparse(str(p))
        assert (ds.num_classes, ds.num_features) == (2, 1)
        for counts in ({"num_classes": 1}, {"num_classes": 0}, {"num_classes": -5},
                       {"num_features": 0}, {"num_features": -1}):
            with pytest.raises(ConfigError, match="num_classes >= 2 and num_features >= 1"):
                load_sparse(str(p), **counts)
            with pytest.raises(ConfigError):
                load_sparse(str(tmp_path / "missing.txt"), **counts)

    def test_round_trip_identity(self, tmp_path):
        rng = substream(13, "roundtrip")
        dense = np.zeros((66, 40))
        labels = np.zeros(66, dtype=np.int64)
        for i in range(60):
            nnz = int(rng.integers(0, 9))
            idx = np.sort(rng.choice(40, size=nnz, replace=False))
            dense[i, idx] = rng.normal(size=nnz)
            labels[i] = rng.integers(0, 6)
        # make every class and the last feature appear so inference is exact
        dense[60, 39], labels[60] = 1.0, 5
        dense[61:, 0], labels[61:] = 1.0, np.arange(5)
        ds = SparseDataset.from_dense(dense, labels, 6)
        path = str(tmp_path / "rt.txt")
        write_sparse(ds, path)
        back = load_sparse(path)
        assert back.num_classes == ds.num_classes
        assert back.num_features == ds.num_features
        assert len(back) == len(ds)
        (m0, y0), (m1, y1) = ds.to_csr(), back.to_csr()
        np.testing.assert_array_equal(y0, y1)
        np.testing.assert_array_equal(m0.indptr, m1.indptr)
        np.testing.assert_array_equal(m0.indices, m1.indices)
        np.testing.assert_array_equal(m0.data, m1.data)  # exact via repr

    def test_zero_nnz_rows_round_trip(self, tmp_path):
        dense = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, -2.0], [0.0, 0.0, 0.0]])
        ds = SparseDataset.from_dense(dense, [2, 0, 1], 3)
        path = str(tmp_path / "zero.txt")
        write_sparse(ds, path, sidecar=True)
        mat, y = load_sparse(path).to_csr()
        np.testing.assert_array_equal(mat.indptr, [0, 0, 2, 2])
        np.testing.assert_array_equal(mat.toarray(), dense)
        np.testing.assert_array_equal(y, [2, 0, 1])

    @settings(max_examples=300, deadline=None)
    @given(blob=st.text(alphabet="0123456789.:eE+- \n,abz", max_size=200))
    def test_fuzz_never_crashes(self, blob):
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write(blob)
            path = fh.name
        try:
            try:
                ds = load_sparse(path)
            except DatasetFormatError as exc:
                msg = str(exc)
                assert "line" in msg or "no instances" in msg
            else:
                # the loaded arrays pass the constructor's checks again
                mat, y = ds.to_csr()
                SparseDataset(mat.indptr, mat.indices, mat.data, y,
                              ds.num_features, ds.num_classes)
        finally:
            import os

            os.unlink(path)

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("1 1:1\n2 3:1 2:1:5\n", "cannot parse idx:val pair '2:1:5'"),
            ("1 1:1\n2 3:1 4\n", "cannot parse idx:val pair '4'"),
            ("1 1:1\n2 99999999999999999999:1\n", "cannot parse"),
            ("1 1:1\n2 0:1\n", "feature index out of range"),
            ("1 1:1\n2 3:inf\n", "non-finite"),
            ("1 1:1\n2 3:1 3:2\n", "duplicate"),
            ("1 1:1\n99999999999999999999 3:1\n", "label"),
        ],
    )
    def test_faults_name_the_line(self, tmp_path, text, fault):
        p = tmp_path / "d.txt"
        p.write_text(text)
        with pytest.raises(DatasetFormatError, match=f"line 2: {fault}"):
            load_sparse(str(p))

    def test_conversion_passes_split_anywhere(self, tmp_path, monkeypatch):
        rng = substream(14, "passes")
        dense = rng.normal(size=(9, 6)) * (rng.uniform(size=(9, 6)) < 0.5)
        ds = SparseDataset.from_dense(dense, rng.integers(0, 3, size=9), 3)
        path = tmp_path / "d.txt"
        write_sparse(ds, str(path), sidecar=True)
        whole = load_sparse(str(path))
        monkeypatch.setattr(datasets, "_PAIRS_PER_PASS", 2)
        parts = load_sparse(str(path))
        (m0, y0), (m1, y1) = whole.to_csr(), parts.to_csr()
        np.testing.assert_array_equal(m0.indptr, m1.indptr)
        np.testing.assert_array_equal(m0.indices, m1.indices)
        np.testing.assert_array_equal(m0.data, m1.data)
        np.testing.assert_array_equal(y0, y1)
        path.write_text("1 1:1 2:1\n2 1:1 2:1\n\n3 4:1\n3 5:1 6:x\n")
        with pytest.raises(DatasetFormatError, match="line 5: cannot parse idx:val pair '6:x'"):
            load_sparse(str(path))

    def test_declared_bounds_name_the_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:1\n3 9:1\n")
        with pytest.raises(DatasetFormatError, match="line 2: feature index out of range"):
            load_sparse(str(p), num_features=8)
        with pytest.raises(DatasetFormatError, match="line 2: label exceeds"):
            load_sparse(str(p), num_classes=2)


def csr_arrays(**changes):
    """A valid two-row CSR fixture, with some arrays replaced."""
    arrays = dict(
        indptr=np.array([0, 2, 3]),
        indices=np.array([0, 3, 1]),
        values=np.array([1.0, -2.0, 0.5]),
        labels=np.array([1, 0]),
        num_features=4,
        num_classes=3,
    )
    arrays.update(changes)
    return arrays


@st.composite
def small_datasets(draw):
    """1-8 rows, some of them empty, over K in [2, 6] classes and D in
    [1, 12] features, with any finite values (zeros and -0.0 included)."""
    k, d, n = draw(st.integers(2, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rows = [sorted(draw(st.sets(st.integers(0, d - 1)))) for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([i for r in rows for i in r], dtype=np.int64)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, indices.size, elements=finite))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return SparseDataset(indptr, indices, values, labels, d, k)


class TestWriteLoadRoundTrip:
    @given(small_datasets(), st.booleans())
    def test_round_trip_property(self, ds, sidecar):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "d.txt")
            write_sparse(ds, path, sidecar=sidecar)
            back = load_sparse(path)
        (m0, y0), (m1, y1) = ds.to_csr(), back.to_csr()
        np.testing.assert_array_equal(m1.indptr, m0.indptr)
        np.testing.assert_array_equal(m1.indices, m0.indices)
        assert m1.data.tobytes() == m0.data.tobytes()
        np.testing.assert_array_equal(y1, y0)
        if sidecar:
            k, d = ds.num_classes, ds.num_features
        else:
            # without the sidecar a reload infers K and D as observed maxima
            k, d = max(2, int(y0.max()) + 1), max(1, int(m0.indices.max(initial=-1)) + 1)
        assert (back.num_classes, back.num_features) == (k, d)


class TestCsr:
    def test_matches_dense(self):
        rng = substream(3, "csr")
        dense = rng.normal(size=(7, 5)) * (rng.uniform(size=(7, 5)) < 0.4)
        labels = rng.integers(0, 3, size=7)
        ds = SparseDataset.from_dense(dense, labels, 3)
        mat, y = ds.to_csr()
        np.testing.assert_array_equal(mat.toarray(), dense)
        np.testing.assert_array_equal(y, labels)

    def test_built_from_arrays(self):
        ds = SparseDataset(**csr_arrays())
        assert len(ds) == 2
        np.testing.assert_array_equal(
            ds.to_csr()[0].toarray(), [[1.0, 0.0, 0.0, -2.0], [0.0, 0.5, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(ds.labels(), [1, 0])

    def test_stored_arrays_are_read_only(self):
        ds = SparseDataset(**csr_arrays())
        mat, y = ds.to_csr()
        for arr in (mat.indptr, mat.indices, mat.data, y, ds.labels()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_caller_arrays_stay_writable(self):
        arrays = csr_arrays()
        SparseDataset(**arrays)
        arrays["values"][0] = 7.0
        arrays["labels"][0] = 2

    def test_to_csr_returns_the_stored_matrix(self):
        ds = SparseDataset(**csr_arrays())
        (m1, y1), (m2, y2) = ds.to_csr(), ds.to_csr()
        assert m1 is m2
        assert y1 is y2
        assert ds.labels() is y1

    @pytest.mark.parametrize(
        "changes",
        [
            {"indptr": np.array([0, 3, 2])},  # non-monotone indptr
            {"indptr": np.array([0, 2])},  # fewer rows than labels
            {"indptr": np.array([1, 2, 3])},  # does not start at 0
            {"values": np.array([1.0, 2.0])},  # length mismatch
            {"indices": np.array([3, 0, 1])},  # unsorted within a row
            {"indices": np.array([2, 2, 1])},  # duplicate within a row
            {"indices": np.array([-1, 3, 1])},  # negative index
            {"indices": np.array([0, 4, 1])},  # index out of range
            {"indices": np.array([0.0, 3.0, 1.0])},  # non-integer indices
            {"values": np.array([1.0, np.nan, 0.5])},  # non-finite value
            {"values": np.array([1.0, 0.0, np.inf])},
            {"labels": np.array([1, 3])},  # label out of range
            {"labels": np.array([-1, 0])},
            {"num_classes": 1},
            {"num_features": 0},
        ],
    )
    def test_validate_rejects_malformed_arrays(self, changes):
        with pytest.raises(ValueError):
            SparseDataset(**csr_arrays(**changes))

    def test_rejection_names_the_row(self):
        with pytest.raises(ValueError, match="row 1: .*out of range"):
            SparseDataset(**csr_arrays(indices=np.array([0, 3, 9])))
        with pytest.raises(ValueError, match="row 0: duplicate"):
            SparseDataset(**csr_arrays(indices=np.array([3, 3, 1])))

    def test_index_order_resets_at_row_boundaries(self):
        # the second row starts below where the first ended: that is fine
        SparseDataset(**csr_arrays(indices=np.array([2, 3, 0])))


class TestUnifyPair:
    def test_takes_maxima(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("3 5:1\n")
        b.write_text("1 9:1\n")
        train, test = unify_pair(load_sparse(str(a)), load_sparse(str(b)))
        assert train.num_classes == test.num_classes == 3
        assert train.num_features == test.num_features == 9
        assert train.to_csr()[0].shape == (1, 9)

    def test_shares_the_arrays(self):
        a = SparseDataset(**csr_arrays())
        b = SparseDataset(**csr_arrays(num_features=6, num_classes=5))
        ua, ub = unify_pair(a, b)
        for before, after in ((a, ua), (b, ub)):
            (m0, y0), (m1, y1) = before.to_csr(), after.to_csr()
            for x0, x1 in ((m0.indptr, m1.indptr), (m0.indices, m1.indices),
                           (m0.data, m1.data), (y0, y1)):
                assert np.shares_memory(x0, x1)
        assert ua.to_csr()[0].shape == (2, 6)


class TestToyGenerator:
    def test_balanced_split(self):
        ds = gen_toy_5class(200, seed=0)
        assert ds.num_classes == 5
        assert ds.num_features == 2
        counts = np.bincount(ds.labels(), minlength=5)
        np.testing.assert_array_equal(counts, [40] * 5)

    def test_remainder_distribution(self):
        ds = gen_toy_5class(7, seed=0)
        counts = np.bincount(ds.labels(), minlength=5)
        np.testing.assert_array_equal(counts, [2, 2, 1, 1, 1])

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_sparse(gen_toy_5class(50, seed=9), str(a))
        write_sparse(gen_toy_5class(50, seed=9), str(b))
        assert a.read_bytes() == b.read_bytes()
        write_sparse(gen_toy_5class(50, seed=10), str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_cluster_means(self):
        # with many points the class means land near the circle of radius 3
        ds = gen_toy_5class(50_000, seed=4)
        mat, y = ds.to_csr()
        dense = mat.toarray()
        for k in range(5):
            mean = dense[y == k].mean(axis=0)
            angle = 2 * np.pi * k / 5
            np.testing.assert_allclose(
                mean, [3 * np.cos(angle), 3 * np.sin(angle)], atol=0.1
            )

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            gen_toy_5class(4, seed=0)


class TestPowerlawGenerator:
    def test_probabilities_normalized(self):
        _, p = gen_powerlaw_categorical(100, 1, seed=3)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p > 0).all()

    def test_same_seed_identical(self):
        a, pa = gen_powerlaw_categorical(50, 1000, seed=8)
        b, pb = gen_powerlaw_categorical(50, 1000, seed=8)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pa, pb)

    def test_concentration(self):
        # empirical frequencies approach true p within 3.5 sigma binomial bounds
        labels, p = gen_powerlaw_categorical(20, 1_000_000, seed=5)
        freq = np.bincount(labels, minlength=20) / labels.size
        se = np.sqrt(p * (1 - p) / labels.size)
        assert np.all(np.abs(freq - p) <= 3.5 * se + 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_powerlaw_categorical(1, 10, seed=0)
        with pytest.raises(ConfigError):
            gen_powerlaw_categorical(1, 10, seed=0)
        with pytest.raises(ValueError):
            gen_powerlaw_categorical(5, 0, seed=0)
