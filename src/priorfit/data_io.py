"""Dataset ingestion and serialization.

CSV ingestion infers a per-column schema (numeric vs categorical), encodes
categorical columns ordinally by first appearance, records missing cells in
a mask (imputation happens downstream, after normalization), and label-
encodes the target. Every column of the training file, its target and every
column of a test file encode through the same two functions: `_categories`
builds a categorical column's mapping, `_encode` applies a column's schema.
Unparseable numeric cells become missing cells with a warning, in either
file. Row order is never changed, so row identity survives from file to
prediction output.

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


def _categories(values: list[str]) -> dict[str, int]:
    """Each observed (stripped) token's code, in order of first appearance."""
    mapping: dict[str, int] = {}
    for raw in values:
        if not _is_missing(raw):
            mapping.setdefault(raw.strip(), len(mapping))
    return mapping


def _encode(values: list[str], schema: ColumnSchema
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Codes, missing mask and unparseable count of one column under its
    schema. With categories, a token outside them is missing; without, a
    token that does not parse as a float is missing and counted."""
    codes = np.zeros(len(values))
    missing = np.zeros(len(values), dtype=bool)
    unparseable = 0
    categories = schema.categories
    for i, raw in enumerate(values):
        if _is_missing(raw):
            missing[i] = True
        elif categories is not None:
            code = categories.get(raw.strip())
            if code is None:
                missing[i] = True
            else:
                codes[i] = code
        else:
            try:
                codes[i] = float(raw)
            except ValueError:
                missing[i] = True
                unparseable += 1
    return codes, missing, unparseable


def _warn_unparseable(path, name: str, count: int) -> None:
    if count:  # the cells stay missing, but not silently
        log.warning("%s: %d unparseable cells in numeric column '%s' "
                    "treated as missing", path, count, name)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows. Columns are keyed by name downstream, so a
    repeated name is refused rather than letting one column shadow another.
    A row with more cells than the header (an unquoted comma, say) is refused
    rather than cut, which would shift every later column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header row required")
        rows = []
        for row in reader:
            if len(row) > len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} "
                                 f"cells, the header {len(header)}")
            rows.append(row)
    repeated = sorted(name for name, k in Counter(header).items() if k > 1)
    if repeated:
        raise ValueError(f"{path}: duplicate column names {repeated}")
    return header, rows


def _read_columns(path) -> tuple[dict[str, list[str]], int]:
    """The file's cells keyed by column name (short rows padded with blank
    cells), and its row count."""
    header, rows = read_table(path)
    return ({name: [row[j] if j < len(row) else "" for row in rows]
             for j, name in enumerate(header)}, len(rows))


def ingest_csv(path, target: str,
               overrides: Optional[dict[str, str]] = None
               ) -> tuple[Dataset, list[ColumnSchema]]:
    """Parse a CSV into the engine's dataset form plus its column schemas.

    `overrides` pins a column's kind ('numeric' or 'categorical'), including
    the target (categorical target means classification).
    """
    overrides = overrides or {}
    columns, n = _read_columns(path)
    if target not in columns:
        raise ValueError(f"{path}: target column '{target}' not found")
    if n == 0:
        raise ValueError(f"{path}: no data rows")

    schemas: list[ColumnSchema] = []
    feature_cols: list[np.ndarray] = []
    feature_missing: list[np.ndarray] = []
    for name, values in columns.items():
        if name == target:
            continue
        if (overrides.get(name) or infer_column_kind(values, n)) == CATEGORICAL:
            schema = ColumnSchema(name, CATEGORICAL, categories=_categories(values))
        else:
            schema = ColumnSchema(name, NUMERIC)
        codes, missing, unparseable = _encode(values, schema)
        _warn_unparseable(path, name, unparseable)
        if missing.all():
            log.warning("%s: column '%s' is entirely missing, dropped", path, name)
            continue
        schema.missing_count = int(missing.sum())
        schemas.append(schema)
        feature_cols.append(codes)
        feature_missing.append(missing)

    if not feature_cols:
        raise ValueError(f"{path}: no usable feature columns")

    t_values = columns[target]
    if any(_is_missing(v) for v in t_values):
        raise ValueError(f"{path}: target column '{target}' has missing cells")
    if (overrides.get(target) or infer_column_kind(t_values, n)) == CATEGORICAL:
        t_schema = ColumnSchema(target, TARGET, categories=_categories(t_values),
                                target_task=CLASSIFICATION)
    else:
        t_schema = ColumnSchema(target, TARGET, target_task=REGRESSION)
    y, _, unparseable = _encode(t_values, t_schema)
    if unparseable:
        raise ValueError(f"{path}: target column '{target}' has {unparseable} "
                         "cells that do not parse as numbers")
    classification = t_schema.target_task == CLASSIFICATION
    ds = Dataset(
        X=Tensor(np.stack(feature_cols, axis=1)),
        y_values=Tensor(y),
        y_labels=y.astype(int) if classification else None,
        cat_mask=np.array([s.kind == CATEGORICAL for s in schemas]),
        task=t_schema.target_task,
        n_classes=len(t_schema.categories) if classification else None,
        missing_mask=np.stack(feature_missing, axis=1))
    return ds, schemas + [t_schema]


def ingest_features_with_schema(path, schemas: list[ColumnSchema]
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Parse a feature-only CSV using a previously inferred schema (the
    training file's encoding). Unseen category strings become missing cells,
    and so do unparseable numeric cells, with a warning."""
    columns, _ = _read_columns(path)
    feats, missing = [], []
    for schema in schemas:
        if schema.kind == TARGET:
            continue
        if schema.name not in columns:
            raise ValueError(f"{path}: column '{schema.name}' missing")
        codes, miss, unparseable = _encode(columns[schema.name], schema)
        _warn_unparseable(path, schema.name, unparseable)
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
