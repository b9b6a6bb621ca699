"""Sparse dataset ingestion and the synthetic label generator for the experiments.

On-disk format is libsvm-like text: one instance per line,

    label idx:val idx:val ...

with 1-based labels and 1-based, strictly increasing feature indices. In
memory everything is 0-based (labels included) so arrays index naturally;
the loader translates at the boundary.

In memory a dataset is one CSR matrix plus a label array: row i holds the
feature indices ``indices[indptr[i]:indptr[i + 1]]`` and the values at the
same positions. The arrays are validated once, when the dataset is built,
and are read-only from then on, so every consumer shares them. This is
the only in-memory form: a minibatch or a single instance is a set of row
positions in a dataset, or a dataset of its own.

Class and feature counts are inferred as maxima over the file, and raised
to at least 2 classes and 1 feature, unless a sidecar JSON file
``<path>.meta.json`` with keys ``{"K": ..., "D": ...}`` pins them (needed
when the test split lacks the last class, say), or the caller passes
explicit counts. A pinned or explicit count below that minimum is refused.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from operator import itemgetter

import numpy as np

from softmax_bounds.config import ConfigError
from softmax_bounds.rng import substream

__all__ = [
    "DatasetFormatError",
    "SparseDataset",
    "load_sparse",
    "unify_pair",
    "gen_powerlaw_categorical",
]

_INT64_MAX = int(np.iinfo(np.int64).max)
# idx:val tokens the loader converts per pass; bounds its memory on large files
_PAIRS_PER_PASS = 1 << 16


class DatasetFormatError(ValueError):
    """A dataset file is malformed; the message carries the line number."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``."""
    view = a.view()
    view.flags.writeable = False
    return view


def _fault(indptr, indices, values, labels, num_features, num_classes) -> tuple[int, str] | None:
    """(row, problem) for the first row breaking the first broken rule, or None.

    ``indptr`` must already frame ``labels.size`` rows over the entries.
    """
    row = np.repeat(np.arange(labels.size), np.diff(indptr))
    same_row = row[1:] == row[:-1]
    checks = (
        (row[(indices < 0) | (indices >= num_features)],
         f"feature index out of range for {num_features} features"),
        (row[1:][same_row & (indices[1:] == indices[:-1])], "duplicate feature index"),
        (row[1:][same_row & (indices[1:] < indices[:-1])],
         "feature indices not strictly increasing"),
        (row[~np.isfinite(values)], "non-finite feature value"),
        (np.flatnonzero(labels < 0), "negative label"),
        (np.flatnonzero(labels >= num_classes), f"label exceeds the class count {num_classes}"),
    )
    return next(((int(rows[0]), problem) for rows, problem in checks if rows.size), None)


def _check_arrays(indptr, indices, values, labels, num_features, num_classes) -> None:
    """Raise ValueError, naming the first bad row, unless the arrays form a
    labeled CSR dataset of the given dimensions."""
    if num_classes < 2 or num_features < 1:
        raise ValueError(
            f"need >= 2 classes and >= 1 feature, got {num_classes} and {num_features}"
        )
    if any(a.ndim != 1 for a in (indptr, indices, values, labels)):
        raise ValueError("indptr, indices, values and labels must be 1-D")
    if any(a.dtype.kind not in "iu" for a in (indptr, indices, labels)):
        raise ValueError("indptr, indices and labels must hold integers")
    if (
        indptr.size != labels.size + 1
        or indptr[0] != 0
        or indptr[-1] != indices.size
        or values.size != indices.size
        or np.any(indptr[1:] < indptr[:-1])
    ):
        raise ValueError(
            f"indptr does not frame {labels.size} rows over {indices.size} entries "
            f"({values.size} values)"
        )
    fault = _fault(indptr, indices, values, labels, num_features, num_classes)
    if fault is not None:
        raise ValueError(f"row {fault[0]}: {fault[1]}")


class SparseDataset:
    """A labeled sparse dataset: one read-only CSR matrix and 0-based labels.

    The arrays are checked and frozen here; ``to_csr`` and ``labels`` hand
    out the stored objects without copying.
    """

    def __init__(self, indptr, indices, values, labels, num_features: int, num_classes: int):
        from scipy.sparse import csr_matrix

        indptr, indices, labels = np.asarray(indptr), np.asarray(indices), np.asarray(labels)
        values = np.asarray(values, dtype=np.float64)
        _check_arrays(indptr, indices, values, labels, num_features, num_classes)
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        mat = csr_matrix((values, indices, indptr), shape=(labels.size, self.num_features))
        mat.indptr, mat.indices, mat.data = map(_frozen, (mat.indptr, mat.indices, mat.data))
        self._csr = mat
        self._labels = _frozen(labels.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return int(self._labels.size)

    def labels(self) -> np.ndarray:
        return self._labels

    def to_csr(self):
        """Features as a scipy CSR matrix plus the label vector (both stored)."""
        return self._csr, self._labels

    @classmethod
    def from_dense(cls, features, labels, num_classes: int) -> "SparseDataset":
        from scipy.sparse import csr_matrix

        mat = csr_matrix(np.asarray(features, dtype=np.float64))
        return cls(mat.indptr, mat.indices, mat.data, labels, mat.shape[1], num_classes)


def _sidecar(path: str) -> tuple[int, int]:
    """The (K, D) that ``<path>.meta.json`` pins; 0 where it pins nothing."""
    meta_path = path + ".meta.json"
    if not os.path.exists(meta_path):
        return 0, 0
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise DatasetFormatError(f"{meta_path}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{meta_path}: expected a JSON object")
    dims = meta.get("K", 0), meta.get("D", 0)
    if any(type(v) is not int or not 0 <= v <= _INT64_MAX for v in dims):
        raise DatasetFormatError(f"{meta_path}: K and D must be integers in [0, {_INT64_MAX}]")
    if dims[0] == 1:
        raise DatasetFormatError(f"{meta_path}: K must be 0 (not pinned) or at least 2")
    return dims


def _label(field: str, lineno: int) -> int:
    """0-based label from a line's first token."""
    if ":" in field:
        raise DatasetFormatError(f"line {lineno}: missing label field")
    try:
        label = int(field)
    except ValueError:
        raise DatasetFormatError(f"line {lineno}: cannot parse label {field!r}") from None
    if not 1 <= label <= _INT64_MAX:
        raise DatasetFormatError(f"line {lineno}: label {label} out of range")
    return label - 1


def _convert(pairs: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of ``idx:val`` tokens, as written; raises
    ValueError or OverflowError when a token does not convert."""
    parts = list(map(str.partition, pairs, repeat(":")))
    idx = np.fromiter(map(int, map(itemgetter(0), parts)), np.int64, len(parts))
    val = np.fromiter(map(float, map(itemgetter(2), parts)), np.float64, len(parts))
    return idx, val


def _converts(pair: str) -> bool:
    try:
        _convert([pair])
    except (ValueError, OverflowError):
        return False
    return True


def load_sparse(
    path: str,
    num_classes: int | None = None,
    num_features: int | None = None,
) -> SparseDataset:
    """Load a single-label sparse text file.

    Rejects duplicate or unsorted feature indices, unparsable tokens, and
    out-of-range labels, always naming the offending line. Blank lines are
    skipped. An empty file (no instances) is an error. Explicit counts
    below 2 classes or 1 feature raise ConfigError.

    Lines are split one at a time and their labels read; the idx:val
    tokens are collected and converted in passes of ``_PAIRS_PER_PASS``
    tokens, each appending to flat index and value arrays. Only when a
    pass fails are its tokens tried one by one, to name the line of the
    first bad one.
    """
    if any(n is not None and n < least for n, least in ((num_classes, 2), (num_features, 1))):
        raise ConfigError(f"need num_classes >= 2 and num_features >= 1, "
                          f"got {num_classes} and {num_features}")
    labels: list[int] = []
    linenos: list[int] = []
    counts: list[int] = []
    pairs: list[str] = []
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def convert() -> None:
        try:
            idx, val = _convert(pairs)
        except (ValueError, OverflowError):
            bad = list(map(_converts, pairs)).index(False)
            pos = sum(map(len, values)) + bad
            row = int(np.searchsorted(np.cumsum(counts), pos, side="right"))
            raise DatasetFormatError(
                f"line {linenos[row]}: cannot parse idx:val pair {pairs[bad]!r}"
            ) from None
        indices.append(idx - 1)
        values.append(val)
        pairs.clear()

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            labels.append(_label(tokens[0], lineno))
            linenos.append(lineno)
            counts.append(len(tokens) - 1)
            pairs += tokens[1:]
            if len(pairs) >= _PAIRS_PER_PASS:
                convert()
    if not labels:
        raise DatasetFormatError(f"{path}: no instances found")
    convert()
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices, values = np.concatenate(indices), np.concatenate(values)
    y = np.array(labels, dtype=np.int64)

    # an explicit count wins over the sidecar's, and 0 in the sidecar pins nothing
    meta_classes, meta_features = _sidecar(path)
    num_classes = num_classes or meta_classes or max(int(y.max()) + 1, 2)
    num_features = num_features or meta_features or max(int(indices.max(initial=-1)) + 1, 1)
    try:
        return SparseDataset(indptr, indices, values, y, num_features, num_classes)
    except ValueError:  # a row breaks a rule; find it again, to name its line
        row, problem = _fault(indptr, indices, values, y, num_features, num_classes)
        raise DatasetFormatError(f"line {linenos[row]}: {problem}") from None


def unify_pair(train: SparseDataset, test: SparseDataset) -> tuple[SparseDataset, SparseDataset]:
    """Give a train/test pair one shared K and D (the maxima of the two).

    The results share the inputs' arrays; nothing is copied.
    """
    k = max(train.num_classes, test.num_classes)
    d = max(train.num_features, test.num_features)
    out = []
    for ds in (train, test):
        mat, labels = ds.to_csr()
        out.append(SparseDataset(mat.indptr, mat.indices, mat.data, labels, d, k))
    return out[0], out[1]


def gen_powerlaw_categorical(
    num_classes: int, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Labels drawn i.i.d. from p(k) proportional to u_k^2, u_k ~ U[0,1].

    Returns (labels, true_p); labels are 0-based. Deterministic given seed.
    """
    if num_classes < 2:
        raise ConfigError(f"need num_classes >= 2, got {num_classes}")
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    rng = substream(seed, "powerlaw")
    u = rng.uniform(size=num_classes)
    p = u**2
    p /= p.sum()
    labels = rng.choice(num_classes, size=n, p=p)
    return labels.astype(np.int64), p
