"""Dataset ingestion and serialization.

CSV ingestion infers a per-column schema (numeric vs categorical), encodes
categorical columns ordinally by first appearance, records missing cells in
a mask (imputation happens downstream, after normalization), and label-
encodes the target. Row order is never changed, so row identity survives
from file to prediction output.

Datasets export to CSV for round trips through ingestion.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Tensor
from .prior import CLASSIFICATION, REGRESSION, Dataset

log = logging.getLogger(__name__)

MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?"})

NUMERIC = "numeric"
CATEGORICAL = "categorical"
TARGET = "target"


@dataclass
class ColumnSchema:
    name: str
    kind: str                                   # numeric | categorical | target
    categories: Optional[dict[str, int]] = None
    missing_tokens: frozenset = MISSING_TOKENS
    missing_count: int = 0
    target_task: Optional[str] = None           # set on the target column


def _is_missing(token: str) -> bool:
    return token.strip().lower() in MISSING_TOKENS


def _parses_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def infer_column_kind(values: list[str], n_rows: int) -> str:
    """Categorical when any token is non-numeric or the distinct count is at
    most max(20, 5% of rows); numeric otherwise."""
    observed = [v for v in values if not _is_missing(v)]
    if not observed:
        return NUMERIC
    if any(not _parses_numeric(v) for v in observed):
        return CATEGORICAL
    if len(set(observed)) <= max(20, int(0.05 * n_rows)):
        return CATEGORICAL
    return NUMERIC


def _encode_categorical(values: list[str]) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    codes = np.zeros(len(values))
    missing = np.zeros(len(values), dtype=bool)
    mapping: dict[str, int] = {}
    for i, raw in enumerate(values):
        if _is_missing(raw):
            missing[i] = True
            continue
        key = raw.strip()
        if key not in mapping:
            mapping[key] = len(mapping)
        codes[i] = mapping[key]
    return codes, missing, mapping


def _encode_numeric(values: list[str]) -> tuple[np.ndarray, np.ndarray, int]:
    out = np.zeros(len(values))
    missing = np.zeros(len(values), dtype=bool)
    unparseable = 0
    for i, raw in enumerate(values):
        if _is_missing(raw):
            missing[i] = True
            continue
        try:
            out[i] = float(raw)
        except ValueError:
            missing[i] = True
            unparseable += 1
    return out, missing, unparseable


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows. Columns are keyed by name downstream, so a
    repeated name is refused rather than letting one column shadow another."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file, header row required")
    repeated = sorted(name for name, k in Counter(rows[0]).items() if k > 1)
    if repeated:
        raise ValueError(f"{path}: duplicate column names {repeated}")
    return rows[0], rows[1:]


def ingest_csv(path, target: str,
               overrides: Optional[dict[str, str]] = None
               ) -> tuple[Dataset, list[ColumnSchema]]:
    """Parse a CSV into the engine's dataset form plus its column schemas.

    `overrides` pins a column's kind ('numeric' or 'categorical'), including
    the target (categorical target means classification).
    """
    overrides = overrides or {}
    header, rows = read_table(path)
    if target not in header:
        raise ValueError(f"{path}: target column '{target}' not found")
    n = len(rows)
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    columns = {name: [row[j] if j < len(row) else "" for row in rows]
               for j, name in enumerate(header)}

    schemas: list[ColumnSchema] = []
    feature_cols: list[np.ndarray] = []
    feature_missing: list[np.ndarray] = []
    cat_flags: list[bool] = []
    for name in header:
        if name == target:
            continue
        values = columns[name]
        kind = overrides.get(name) or infer_column_kind(values, n)
        if kind == CATEGORICAL:
            codes, missing, mapping = _encode_categorical(values)
            schema = ColumnSchema(name, CATEGORICAL, categories=mapping,
                                  missing_count=int(missing.sum()))
        else:
            codes, missing, unparseable = _encode_numeric(values)
            if unparseable:
                log.warning("%s: %d unparseable cells in numeric column '%s' "
                            "treated as missing", path, unparseable, name)
            schema = ColumnSchema(name, NUMERIC, missing_count=int(missing.sum()))
        if missing.all():
            log.warning("%s: column '%s' is entirely missing, dropped", path, name)
            continue
        schemas.append(schema)
        feature_cols.append(codes)
        feature_missing.append(missing)
        cat_flags.append(kind == CATEGORICAL)

    if not feature_cols:
        raise ValueError(f"{path}: no usable feature columns")

    t_values = columns[target]
    if any(_is_missing(v) for v in t_values):
        raise ValueError(f"{path}: target column '{target}' has missing cells")
    t_kind = overrides.get(target) or infer_column_kind(t_values, n)
    if t_kind == CATEGORICAL:
        labels_f, _, mapping = _encode_categorical(t_values)
        labels = labels_f.astype(int)
        ds = Dataset(
            X=Tensor(np.stack(feature_cols, axis=1)),
            y_values=Tensor(labels.astype(np.float64)),
            y_labels=labels,
            cat_mask=np.array(cat_flags),
            task=CLASSIFICATION,
            n_classes=len(mapping),
            missing_mask=np.stack(feature_missing, axis=1))
        schemas.append(ColumnSchema(target, TARGET, categories=mapping,
                                    target_task=CLASSIFICATION))
    else:
        y = np.array([float(v) for v in t_values])
        ds = Dataset(
            X=Tensor(np.stack(feature_cols, axis=1)),
            y_values=Tensor(y),
            y_labels=None,
            cat_mask=np.array(cat_flags),
            task=REGRESSION,
            missing_mask=np.stack(feature_missing, axis=1))
        schemas.append(ColumnSchema(target, TARGET, target_task=REGRESSION))
    return ds, schemas


def ingest_features_with_schema(path, schemas: list[ColumnSchema]
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Parse a feature-only CSV using a previously inferred schema (the
    training file's encoding). Unseen category strings become missing cells."""
    header, rows = read_table(path)
    n = len(rows)
    columns = {name: [row[j] if j < len(row) else "" for row in rows]
               for j, name in enumerate(header)}
    feats, missing = [], []
    for schema in schemas:
        if schema.kind == TARGET:
            continue
        if schema.name not in columns:
            raise ValueError(f"{path}: column '{schema.name}' missing")
        values = columns[schema.name]
        if schema.kind == CATEGORICAL:
            codes = np.zeros(n)
            miss = np.zeros(n, dtype=bool)
            for i, raw in enumerate(values):
                key = raw.strip()
                if _is_missing(raw) or key not in schema.categories:
                    miss[i] = True
                else:
                    codes[i] = schema.categories[key]
            feats.append(codes)
            missing.append(miss)
        else:
            codes, miss, _ = _encode_numeric(values)
            feats.append(codes)
            missing.append(miss)
    return np.stack(feats, axis=1), np.stack(missing, axis=1)


def export_csv(ds: Dataset, path, target_name: str = "target") -> None:
    """Plain-text dump: feature columns x0..x{d-1} then the target. Missing
    cells are written as empty tokens."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(ds.d)] + [target_name])
        y = ds.y_labels if ds.task == CLASSIFICATION else ds.y_values.data
        for i in range(ds.n):
            row = []
            for j in range(ds.d):
                if ds.missing_mask is not None and ds.missing_mask[i, j]:
                    row.append("")
                else:
                    row.append(repr(float(ds.X.data[i, j])))
            row.append(str(int(y[i])) if ds.task == CLASSIFICATION
                       else repr(float(y[i])))
            writer.writerow(row)
