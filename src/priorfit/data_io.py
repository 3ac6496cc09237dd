"""Dataset ingestion and serialization.

`read_table` reads a CSV once into its columns. Each cell is then decided
once per file: one missing mask per column is shared by kind inference
(numeric vs categorical), category building and encoding. Categorical
columns and a classification target are coded by first appearance, and
missing cells are recorded in a mask (imputation happens downstream, after
normalization). Every column of the training file, its target and every
column of a test file encode through `_encode`. Unparseable numeric cells,
non-finite ones included, become missing cells with a warning, in either
file; in the target they are refused. Row order is never
changed, so row identity survives from file to prediction output.

Datasets export to CSV for round trips through ingestion.
"""

from __future__ import annotations

import csv
import logging
import math
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
    categories: Optional[dict[str, int]] = None  # None: numeric


def _missing_mask(values: list[str]) -> list[bool]:
    return [v.strip().lower() in MISSING_TOKENS for v in values]


def infer_column_kind(values: list[str], missing: list[bool]) -> str:
    """Categorical when the distinct count of observed raw tokens is at most
    max(20, 5% of rows) or any of them is non-numeric; numeric otherwise.
    Tokens are counted unstripped, so "1" and " 1" are two."""
    observed = [v for v, m in zip(values, missing) if not m]
    if not observed:
        return NUMERIC
    if len(set(observed)) <= max(20, int(0.05 * len(values))):
        return CATEGORICAL
    try:
        for v in observed:
            float(v)
    except ValueError:
        return CATEGORICAL
    return NUMERIC


def _categories(values: list[str], missing: list[bool]) -> dict[str, int]:
    """Each observed (stripped) token's code, in order of first appearance."""
    mapping: dict[str, int] = {}
    for raw, m in zip(values, missing):
        if not m:
            mapping.setdefault(raw.strip(), len(mapping))
    return mapping


def _encode(values: list[str], missing: list[bool],
            categories: Optional[dict[str, int]]
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Codes, missing mask and unparseable count of one column. With
    categories, a token outside them is missing; without, a token that does
    not parse as a finite float (`inf`, `1e999` and `+nan` do not) is
    missing and counted."""
    codes = [0.0] * len(values)
    missing = list(missing)
    unparseable = 0
    for i, raw in enumerate(values):
        if missing[i]:
            continue
        if categories is not None:
            code = categories.get(raw.strip())
            if code is None:
                missing[i] = True
            else:
                codes[i] = code
        else:
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                codes[i] = value
            else:
                missing[i] = True
                unparseable += 1
    return np.array(codes, dtype=np.float64), np.array(missing, dtype=bool), unparseable


def _warn_unparseable(path, name: str, count: int) -> None:
    if count:  # the cells stay missing, but not silently
        log.warning("%s: %d unparseable cells in numeric column '%s' "
                    "treated as missing", path, count, name)


def read_table(path) -> dict[str, list[str]]:
    """The file's cells keyed by header name, in header order, short rows
    padded with blank cells. Columns are keyed by name downstream, so a
    repeated name is refused rather than letting one column shadow another.
    A row with more cells than the header (an unquoted comma, say) is refused
    rather than cut, which would shift every later column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header row required")
        width = len(header)
        columns = [[] for _ in header]
        appends = [col.append for col in columns]
        for row in reader:
            if len(row) != width:
                if len(row) > width:
                    raise ValueError(f"{path}: line {reader.line_num} has "
                                     f"{len(row)} cells, the header {width}")
                row += [""] * (width - len(row))
            for append, cell in zip(appends, row):
                append(cell)
    repeated = sorted(name for name, k in Counter(header).items() if k > 1)
    if repeated:
        raise ValueError(f"{path}: duplicate column names {repeated}")
    return dict(zip(header, columns))


def ingest_csv(path, target: Optional[str] = None,
               overrides: Optional[dict[str, str]] = None
               ) -> tuple[Dataset, list[ColumnSchema]]:
    """Parse a CSV into the engine's dataset form plus its column schemas.

    The target is the last header column unless named. `overrides` pins a
    column's kind ('numeric' or 'categorical'), including the target
    (categorical target means classification).
    """
    overrides = overrides or {}
    columns = read_table(path)
    target = list(columns)[-1] if target is None else target
    if target not in columns:
        raise ValueError(f"{path}: target column '{target}' not found")
    if not columns[target]:
        raise ValueError(f"{path}: no data rows")

    schemas: list[ColumnSchema] = []
    feature_cols: list[np.ndarray] = []
    feature_missing: list[np.ndarray] = []
    for name, values in columns.items():
        if name == target:
            continue
        missing = _missing_mask(values)
        if (overrides.get(name) or infer_column_kind(values, missing)) == CATEGORICAL:
            schema = ColumnSchema(name, CATEGORICAL, _categories(values, missing))
        else:
            schema = ColumnSchema(name, NUMERIC)
        codes, missing, unparseable = _encode(values, missing, schema.categories)
        _warn_unparseable(path, name, unparseable)
        if missing.all():
            log.warning("%s: column '%s' is entirely missing, dropped", path, name)
            continue
        schemas.append(schema)
        feature_cols.append(codes)
        feature_missing.append(missing)

    if not feature_cols:
        raise ValueError(f"{path}: no usable feature columns")

    t_values = columns[target]
    t_missing = _missing_mask(t_values)
    if any(t_missing):
        raise ValueError(f"{path}: target column '{target}' has missing cells")
    if (overrides.get(target) or infer_column_kind(t_values, t_missing)) == CATEGORICAL:
        t_schema = ColumnSchema(target, TARGET, _categories(t_values, t_missing))
    else:
        t_schema = ColumnSchema(target, TARGET)
    y, _, unparseable = _encode(t_values, t_missing, t_schema.categories)
    if unparseable:
        raise ValueError(f"{path}: target column '{target}' has {unparseable} "
                         "cells that do not parse as numbers")
    classification = t_schema.categories is not None
    ds = Dataset(
        X=Tensor(np.stack(feature_cols, axis=1)),
        y_values=Tensor(y),
        y_labels=y.astype(int) if classification else None,
        cat_mask=np.array([s.kind == CATEGORICAL for s in schemas]),
        task=CLASSIFICATION if classification else REGRESSION,
        n_classes=len(t_schema.categories) if classification else None,
        missing_mask=np.stack(feature_missing, axis=1))
    return ds, schemas + [t_schema]


def ingest_features_with_schema(path, schemas: list[ColumnSchema]
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Parse a feature-only CSV using a previously inferred schema (the
    training file's encoding). Unseen category strings become missing cells,
    and so do unparseable numeric cells, with a warning."""
    columns = read_table(path)
    feats, missing = [], []
    for schema in schemas:
        if schema.kind == TARGET:
            continue
        values = columns.get(schema.name)
        if values is None:
            raise ValueError(f"{path}: column '{schema.name}' missing")
        codes, miss, unparseable = _encode(values, _missing_mask(values), schema.categories)
        _warn_unparseable(path, schema.name, unparseable)
        feats.append(codes)
        missing.append(miss)
    return np.stack(feats, axis=1), np.stack(missing, axis=1)


def export_csv(ds: Dataset, path, target_name: str = "target") -> None:
    """Plain-text dump, one row of Python values at a time: feature columns
    x0..x{d-1} then the target. Missing cells are written as empty tokens."""
    classification = ds.task == CLASSIFICATION
    y = ds.y_labels if classification else ds.y_values.data
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(ds.d)] + [target_name])
        for x_row, m_row, t in zip(ds.X.data, ds.missing_mask, y):
            row = ["" if m else repr(v) for v, m in zip(x_row.tolist(), m_row.tolist())]
            row.append(str(int(t)) if classification else repr(float(t)))
            writer.writerow(row)
