"""The package's file formats: every file gaussdpp reads or writes.

`read_json` returns the JSON object a file holds, and raises a ValueError
naming the file if the text is not UTF-8, does not parse or holds another
value.  `write_json` writes strict JSON (NaN and Infinity raise before any
file exists), keys sorted and indented, with a final newline.  `write_csv`
writes a header row, then each float as its repr(), which parses back to
the same double.  Both writers write a temporary file next to the target
and rename it onto the target, so a failed or killed run never leaves half
a file.  `load_dataset` reads a UTF-8 feature CSV (Fisher's Iris, say): a
header row, numeric feature cells, and optionally one label column of any
text.  A leading byte-order mark, as Excel writes, is skipped.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import suppress
from pathlib import Path

import numpy as np

from .dimred import Dataset


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
    table = [header, *([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row] for row in rows)]
    _write_atomically(path, lambda fh: csv.writer(fh).writerows(table))


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
