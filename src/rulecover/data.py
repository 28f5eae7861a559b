"""Core data types: binary datasets, equality rules, conjunction models and
fit reports, plus their CSV/JSON serialization."""

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Rule:
    """Equality stump on one binary feature.

    Fires (returns 1) iff ``x[feature_index] == expected_value``.
    """

    feature_index: int
    expected_value: int

    def __post_init__(self):
        if self.feature_index < 0:
            raise DataError(f"feature_index must be >= 0, got {self.feature_index}")
        if self.expected_value not in (0, 1):
            raise DataError(f"expected_value must be 0 or 1, got {self.expected_value}")

    def evaluate(self, features):
        """Vector of rule outputs (uint8) over the rows of a feature matrix."""
        features = np.asarray(features)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if self.feature_index >= features.shape[1]:
            raise DataError(
                f"rule on feature {self.feature_index} applied to "
                f"{features.shape[1]}-column data"
            )
        return (features[:, self.feature_index] == self.expected_value).astype(np.uint8)

    def negated(self):
        return Rule(self.feature_index, 1 - self.expected_value)

    def __str__(self):
        return f"x{self.feature_index}=={self.expected_value}"


@dataclass(frozen=True)
class Conjunction:
    """Ordered AND of rules; with ``is_disjunction`` set, the same rule list
    is read as an OR via De Morgan's law.

    An empty conjunction predicts 1 everywhere (identity of AND); an empty
    disjunction predicts 0 everywhere.
    """

    rules: tuple = ()
    is_disjunction: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def predict(self, features):
        features = np.asarray(features)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        m = features.shape[0]
        if self.is_disjunction:
            out = np.zeros(m, dtype=np.uint8)
            for rule in self.rules:
                out |= rule.evaluate(features)
        else:
            out = np.ones(m, dtype=np.uint8)
            for rule in self.rules:
                out &= rule.evaluate(features)
        return out

    def predict_one(self, x):
        return int(self.predict(np.asarray(x).reshape(1, -1))[0])

    def feature_indices(self):
        return frozenset(rule.feature_index for rule in self.rules)

    def to_dict(self, stop_reason=None):
        doc = {
            "model_type": "disjunction" if self.is_disjunction else "conjunction",
            "rules": [
                {"feature_index": int(r.feature_index),
                 "expected_value": int(r.expected_value)}
                for r in self.rules
            ],
        }
        if stop_reason is not None:
            doc["stop_reason"] = str(
                stop_reason.value if isinstance(stop_reason, StopReason) else stop_reason
            )
        return doc

    @classmethod
    def from_dict(cls, doc):
        try:
            mode = doc["model_type"]
            rules = tuple(
                Rule(int(r["feature_index"]), int(r["expected_value"]))
                for r in doc["rules"]
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed model document: {exc}") from exc
        if mode not in ("conjunction", "disjunction"):
            raise DataError(f"unknown model_type {mode!r}")
        return cls(rules=rules, is_disjunction=(mode == "disjunction"))

    def __len__(self):
        return len(self.rules)

    def __str__(self):
        if not self.rules:
            return "<empty disjunction>" if self.is_disjunction else "<empty conjunction>"
        sep = " or " if self.is_disjunction else " and "
        return sep.join(str(r) for r in self.rules)


class StopReason(str, Enum):
    NO_NEGATIVES_LEFT = "no_negatives_left"
    MAX_RULES = "max_rules"
    INVARIANCE_REACHED = "invariance_reached"
    NO_VALID_RULE = "no_valid_rule"


@dataclass(frozen=True)
class IterationRecord:
    """One greedy step: the chosen rule, its utility, and (for the
    invariance-filtered learner) the leaf test and stopping test p-values."""

    rule: Rule
    utility: float
    leaf_p_value: Optional[float] = None
    stop_p_value: Optional[float] = None


@dataclass(frozen=True)
class FitReport:
    model: Conjunction
    selected_features: frozenset
    per_iteration_log: tuple
    stop_reason: StopReason

    def __post_init__(self):
        object.__setattr__(self, "selected_features", frozenset(self.selected_features))
        object.__setattr__(self, "per_iteration_log", tuple(self.per_iteration_log))


def _exact_cast(values, dtype, message):
    """``values`` as a contiguous ``dtype`` array, refusing any value the cast
    would change (fractions, NaN, or integers out of the dtype's range)."""
    try:
        raw = np.asarray(values)
        with np.errstate(invalid="ignore"):
            out = np.ascontiguousarray(raw, dtype=dtype)
    except (TypeError, ValueError):
        raise DataError(message) from None
    if not np.array_equal(out, raw):
        raise DataError(message)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column-oriented table of binary features, binary labels and
    environment ids. Arrays are locked read-only after construction, so a
    Dataset can be shared freely across workers.
    """

    features: np.ndarray
    labels: np.ndarray
    envs: np.ndarray
    feature_names: tuple = ()

    def __post_init__(self):
        features = _exact_cast(self.features, np.uint8, "features must be 0/1 valued")
        labels = _exact_cast(self.labels, np.uint8, "labels must be 0/1 valued")
        envs = _exact_cast(self.envs, np.int64, "environment ids must be integers")
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        m, d = features.shape
        if m < 1 or d < 1:
            raise DataError("need at least one sample and one feature")
        if labels.shape != (m,) or envs.shape != (m,):
            raise DataError(
                f"row counts disagree: {m} feature rows, "
                f"{labels.shape[0]} labels, {envs.shape[0]} env ids"
            )
        if features.max() > 1:
            raise DataError("features must be 0/1 valued")
        if labels.max() > 1:
            raise DataError("labels must be 0/1 valued")
        if envs.min() < 0:
            raise DataError("environment ids must be non-negative")
        names = tuple(self.feature_names) if self.feature_names else tuple(
            f"x{j}" for j in range(d)
        )
        if len(names) != d:
            raise DataError(f"{len(names)} feature names for {d} features")
        for arr in (features, labels, envs):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "envs", envs)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_distinct_envs(self):
        return int(np.unique(self.envs).size)


def candidate_rules(dataset):
    """The 2-per-feature equality stumps, skipping any rule whose truth
    vector is constant on the dataset (constant columns yield no usable
    split and only create degenerate argmax ties)."""
    rules = []
    for j in range(dataset.n_features):
        column = dataset.features[:, j]
        if column.min() == column.max():
            continue
        rules.append(Rule(j, 1))
        rules.append(Rule(j, 0))
    return rules


def save_dataset_csv(dataset, path):
    """Write the canonical CSV form: header ``x0,...,x{d-1},y,e``, one sample
    per row, ASCII digits, LF line endings."""
    path = Path(path)
    d = dataset.n_features
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(d)] + ["y", "e"])
        for i in range(dataset.n_samples):
            row = [str(int(v)) for v in dataset.features[i]]
            row.append(str(int(dataset.labels[i])))
            row.append(str(int(dataset.envs[i])))
            writer.writerow(row)


def load_dataset_csv(path):
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3 or header[-2:] != ["y", "e"]:
            raise DataError(f"{path}: header must end with 'y,e', got {header}")
        names = tuple(header[:-2])
        d = len(names)
        features, labels, envs = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(
                    f"{path}:{lineno}: expected {d + 2} columns, got {len(row)}"
                )
            feat_row = []
            for j, value in enumerate(row[:d]):
                if value not in ("0", "1"):
                    raise DataError(
                        f"{path}:{lineno}: column '{names[j]}': "
                        f"expected 0/1, got {value!r}"
                    )
                feat_row.append(int(value))
            if row[d] not in ("0", "1"):
                raise DataError(
                    f"{path}:{lineno}: column 'y': expected 0/1, got {row[d]!r}"
                )
            try:
                env = int(row[d + 1])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: column 'e': expected an integer, "
                    f"got {row[d + 1]!r}"
                ) from None
            if env < 0:
                raise DataError(f"{path}:{lineno}: column 'e': negative env id {env}")
            features.append(feat_row)
            labels.append(int(row[d]))
            envs.append(env)
    if not features:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        features=np.array(features, dtype=np.uint8),
        labels=np.array(labels, dtype=np.uint8),
        envs=np.array(envs, dtype=np.int64),
        feature_names=names,
    )


def save_model_json(model, path, stop_reason=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(model.to_dict(stop_reason=stop_reason), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_json(path):
    """Returns (model, stop_reason-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    return Conjunction.from_dict(doc), doc.get("stop_reason")
