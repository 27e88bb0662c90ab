"""The package's file formats: every file gaussdpp reads or writes.

`read_json` returns the JSON object a file holds, and raises a ValueError
naming the file if the text is not UTF-8, does not parse or holds another
value.  `write_json` writes strict JSON (NaN and Infinity raise before any
file exists), keys sorted and indented, with a final newline.  `write_csv`
writes a header row, then each float as its repr(), which parses back to
the same double.  Both writers write a temporary file next to the target
and rename it onto the target, so a failed or killed run never leaves half
a file.  `read_table` reads a UTF-8 feature CSV (Fisher's Iris, say): a
header row, numeric feature cells, and optionally one label column of any
text.  A leading byte-order mark, as Excel writes, is skipped.
`load_dataset` wraps what it reads in a numpy `Dataset`.

`roc_auc` scores a ranking against binary labels, as `gaussdpp roc` does
with an embedding file.  Nothing in this module imports numpy at module
level, nor any gaussdpp module, so `roc` runs on the standard library alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path


def read_json(path) -> dict:
    """The JSON object a file holds (see the module docstring)."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def finite_number(value) -> bool:
    """An int or float, not a bool, that is a finite double (a huge int is not)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def value_text(value) -> str:
    """A value read from a file, for a message: its repr, but an integer too
    long to print is "more than 10^15" or "less than -10^15", and any other
    repr longer than 40 characters is cut to its first 36 and "..."."""
    if type(value) is int and abs(value) > 10**15:
        return "more than 10^15" if value > 0 else "less than -10^15"
    text = repr(value)
    return text if len(text) <= 40 else text[:36] + "..."


def _write_atomically(path, write) -> None:
    """Call write(fh) on `.<name>.<pid>.tmp` next to path, then rename that
    onto path; the temporary file is removed on any failure.  open() makes
    it, so its permissions follow the umask like any other output."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    """Write obj as strict, sorted, indented JSON (see the module docstring)."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomically(path, lambda fh: fh.write(text))


def write_csv(path, header, rows) -> None:
    """Write a header row, then the rows with each float as its repr()."""
    table = [header, *([repr(float(v)) if isinstance(v, float) else v for v in row]
                       for row in rows)]
    _write_atomically(path, lambda fh: csv.writer(fh).writerows(table))


def read_table(path, label_column: str | None = None, positive_label=None):
    """Parse a feature CSV with the standard library alone: its feature
    column names, its rows of feature values as floats, and its labels (None
    without `label_column`).

    All columns except `label_column` must be finite numbers; a
    non-numeric or non-finite cell is reported with its line and column.
    Labels are the cells' text, stripped; when `positive_label` is given
    they are mapped to 1 for that value and 0 otherwise, after checking the
    value actually occurs.  A header-only file yields no rows.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise ValueError(f"{path}: no column named {label_column!r} "
                                 f"(have {header})")
            label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                                 f"cells, got {len(row)}")
            feats = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    raw_labels.append(cell.strip())
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in "
                        f"column {header[i]!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite value {cell!r} in "
                                     f"column {header[i]!r}")
                feats.append(value)
            rows.append(feats)

    labels = None
    if label_idx is not None:
        labels = raw_labels
        if positive_label is not None:
            wanted = str(positive_label)
            if rows and wanted not in raw_labels:
                raise ValueError(f"{path}: positive label {wanted!r} does not "
                                 "occur in the label column")
            labels = [1 if v == wanted else 0 for v in raw_labels]
    return feature_names, rows, labels


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional per-row labels.

    Labels may be binary (0/1 integers) or raw categorical values; ROC
    evaluation requires the binary form.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        import numpy as np

        f = np.array(self.features, dtype=float, copy=True)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain non-finite values")
        f.setflags(write=False)
        object.__setattr__(self, "features", f)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (f.shape[0],):
                raise ValueError(
                    f"labels have shape {lab.shape}, expected ({f.shape[0]},)")
            object.__setattr__(self, "labels", lab)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def load_dataset(path, label_column: str | None = None, positive_label=None):
    """`read_table` into a numpy Dataset: labels mapped by `positive_label`
    are int64, other labels an object array of their text."""
    import numpy as np

    feature_names, rows, labels = read_table(path, label_column, positive_label)
    if labels is not None:
        labels = np.asarray(labels, dtype=object if positive_label is None else np.int64)
    return Dataset(np.array(rows, dtype=float).reshape(len(rows), len(feature_names)), labels)


@dataclass(frozen=True)
class RocCurve:
    """Operating points from thresholding scores in descending order.

    One vertex per distinct score value (ties grouped), prefixed by the
    (0, 0) origin; both coordinates are nondecreasing and the curve ends
    at (1, 1).  `auc` is the exact trapezoidal area, equal to the
    Mann-Whitney statistic with ties counted one half.
    """

    points: tuple[tuple[float, float], ...]  # (fpr, tpr) at each vertex
    thresholds: tuple[float, ...]            # score at each vertex; +inf at the origin
    auc: float


def roc_auc(scores, labels) -> RocCurve:
    """ROC curve and AUC for binary labels (1 = positive class).

    Scores are numbers, none NaN, and labels each equal 0 or 1.  Counting
    is done in integers, so the AUC matches the pairwise Mann-Whitney
    computation exactly, not merely to rounding.
    """
    scores, labels = list(scores), list(labels)
    if len(scores) != len(labels) or any(isinstance(v, (list, tuple)) or getattr(v, "ndim", 0)
                                         for v in scores + labels):
        raise ValueError("scores and labels must be 1-D of equal length")
    scores = [float(v) for v in scores]
    if any(map(math.isnan, scores)):
        raise ValueError("scores must not be NaN")
    if not all(v in (0, 1) for v in labels):
        raise ValueError("labels must be binary 0/1")
    positive = [1 if v == 1 else 0 for v in labels]
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")

    ranked = sorted(zip(scores, positive), key=lambda row: -row[0])  # stable
    points, thresholds = [(0.0, 0.0)], [math.inf]
    tp = prev_tp = prev_fp = area2 = 0
    for k, (score, label) in enumerate(ranked, start=1):
        tp += label
        if k < len(ranked) and ranked[k][0] == score:
            continue  # a tie group ends at its last row
        fp = k - tp
        area2 += (fp - prev_fp) * (tp + prev_tp)
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(score)
        prev_tp, prev_fp = tp, fp
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds),
                    auc=area2 / (2 * n_pos * n_neg))
