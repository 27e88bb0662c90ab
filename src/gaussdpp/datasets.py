"""CSV dataset ingestion.

Expected layout: a header row naming the columns, numeric feature cells,
and optionally one label column (any text).  The two public benchmarks
used in the demos follow this shape: Fisher's Iris as 150 rows x 4
feature columns plus a species column, and the Wisconsin (diagnostic)
Breast Cancer set as 569 rows x 30 feature columns plus a diagnosis
column.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .dimred import Dataset


def load_dataset(path, label_column: str | None = None,
                 positive_label=None) -> Dataset:
    """Read a feature CSV into a Dataset.

    All columns except `label_column` must be finite numbers; a
    non-numeric or non-finite cell is reported with its line and column.
    When `positive_label` is given, labels are mapped to 1 for that value
    and 0 otherwise, after checking the value actually occurs.  A
    header-only file yields a valid empty dataset.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
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

    features = (np.asarray(rows, dtype=float) if rows
                else np.empty((0, len(feature_names))))
    labels = None
    if label_idx is not None:
        if positive_label is not None:
            wanted = str(positive_label)
            if rows and wanted not in raw_labels:
                raise ValueError(f"{path}: positive label {wanted!r} does not "
                                 "occur in the label column")
            labels = np.asarray([1 if v == wanted else 0 for v in raw_labels],
                                dtype=np.int64)
        else:
            labels = np.asarray(raw_labels, dtype=object)
    return Dataset(features=features, labels=labels, feature_names=feature_names)
