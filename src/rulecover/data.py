"""Core data types: binary datasets, equality rules, conjunction models and
fit reports, plus their CSV/JSON serialization."""

import csv
import io
import json
import operator
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .errors import DataError, _require_bool, _require_sequence

# The model types a fit or a model document names, indexed by is_disjunction.
_MODEL_TYPES = ("conjunction", "disjunction")


@dataclass(frozen=True)
class Rule:
    """Equality stump on one binary feature.

    Fires (returns 1) iff ``x[feature_index] == expected_value``.
    """

    feature_index: int
    expected_value: int

    def __post_init__(self):
        for name in ("feature_index", "expected_value"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DataError(f"{name} must be an integer, got {value!r}") from None
        if self.feature_index < 0:
            raise DataError(f"feature_index must be >= 0, got {self.feature_index}")
        if self.expected_value not in (0, 1):
            raise DataError(f"expected_value must be 0 or 1, got {self.expected_value}")

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
        rules = _require_sequence("rules", self.rules, DataError)
        for rule in rules:
            if not isinstance(rule, Rule):
                raise DataError(f"rules must be Rule values, got {rule!r}")
        flag = _require_bool("is_disjunction", self.is_disjunction, DataError)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "is_disjunction", flag)

    def predict(self, features):
        """uint8 model output per row of a feature matrix (or one row)."""
        outputs = prediction_matrix(np.atleast_2d(features), self.rules)
        fired = outputs.any(axis=1) if self.is_disjunction else outputs.all(axis=1)
        return fired.view(np.uint8)

    def feature_indices(self):
        return frozenset(rule.feature_index for rule in self.rules)

    def to_dict(self, stop_reason=None):
        doc = {
            "model_type": _MODEL_TYPES[bool(self.is_disjunction)],
            "rules": [asdict(rule) for rule in self.rules],
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
            fields = [(r["feature_index"], r["expected_value"]) for r in doc["rules"]]
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed model document: {exc}") from exc
        for value in (v for pair in fields for v in pair):
            if type(value) is not int:  # refuses floats, bools and strings
                raise DataError(
                    f"malformed model document: rule fields must be JSON "
                    f"integers, got {value!r}"
                )
        rules = tuple(Rule(j, v) for j, v in fields)
        if mode not in _MODEL_TYPES:
            raise DataError(f"unknown model_type {mode!r}")
        return cls(rules=rules, is_disjunction=bool(_MODEL_TYPES.index(mode)))

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
    would change (fractions, NaN, or integers out of the dtype's range). A
    safe cast (``np.can_cast``) changes no value, so it skips the check and
    its full-size comparison."""
    try:
        raw = np.asarray(values)
        with np.errstate(invalid="ignore"):
            out = np.ascontiguousarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise DataError(message) from None
    if not np.can_cast(raw.dtype, dtype) and not np.array_equal(out, raw):
        raise DataError(message)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column-oriented table of binary features, binary labels and
    environment ids. Arrays are locked read-only after construction, so a
    Dataset can be shared freely across workers. An input array is kept only
    when it owns its memory; a view of another array is copied, so writing
    that other array cannot change the Dataset. The packed columns and the
    env numbering, kept from a fit's first use, then match the arrays; only a
    writeable view of an owned input, made before the lock, gets round it.
    """

    features: np.ndarray
    labels: np.ndarray
    envs: np.ndarray
    feature_names: tuple = ()

    def __post_init__(self):
        features = _exact_cast(self.features, np.uint8, "features must be 0/1 valued")
        labels = _exact_cast(self.labels, np.uint8, "labels must be 0/1 valued")
        envs = _exact_cast(self.envs, np.int64, "environment ids must be integers")
        features, labels, envs = (
            arr if arr.flags.owndata else arr.copy() for arr in (features, labels, envs)
        )
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
        names = _require_sequence("feature_names", self.feature_names, DataError)
        names = names or tuple(f"x{j}" for j in range(d))
        if len(names) != d:
            raise DataError(f"{len(names)} feature names for {d} features")
        for name in names:
            if type(name) is not str:  # refuses numbers and numpy's np.str_
                raise DataError(f"feature_names must be str values, got {name!r}")
        for arr in (features, labels, envs):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "envs", envs)
        object.__setattr__(self, "feature_names", names)

    @cached_property
    def _packed_columns(self):
        """The features bit-packed over the samples, (d, W) uint64
        (``_kernels._pack_columns``), packed on a greedy fit's first use and
        kept read-only."""
        packed = _kernels._pack_columns(self.features)
        packed.setflags(write=False)
        return packed

    @cached_property
    def _env_numbering(self):
        """``_kernels._dense_ids`` of the env ids, kept read-only: ``envs``
        itself, at no memory cost, when they are dense already."""
        numbering = _kernels._dense_ids(self.envs)
        for arr in numbering:
            arr.setflags(write=False)
        return numbering

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]


def _rule_arrays(rules, n_features):
    """The rules' feature indices (intp) and expected values (uint8), refusing
    a rule beyond ``n_features`` columns with DataError."""
    index = np.array([rule.feature_index for rule in rules], dtype=np.intp)
    if index.size and index.max() >= n_features:
        raise DataError(
            f"rule on feature {index.max()} applied to {n_features}-column data"
        )
    values = np.array([rule.expected_value for rule in rules], dtype=np.uint8)
    return index, values


def prediction_matrix(features, rules):
    """(m, n_rules) uint8 matrix of rule outputs on a 2-D feature matrix; every
    model output, and every rule a fit on distinct rows appends, is applied
    through it."""
    features = np.asarray(features)
    index, values = _rule_arrays(rules, features.shape[1])
    return (np.take(features, index, axis=1) == values).view(np.uint8)


def candidate_rules(dataset):
    """The 2-per-feature equality stumps, skipping any rule whose truth
    vector is constant on the dataset (constant columns yield no usable
    split and only create degenerate argmax ties). The fits hold the same
    candidates as arrays and find the constant columns from their first leaf
    count, so none calls this."""
    features = dataset.features
    varying = np.flatnonzero(features.min(axis=0) != features.max(axis=0))
    return [Rule(int(j), value) for j in varying for value in (1, 0)]


_LF = ord("\n")
_ZERO = ord("0")
_MAX_FAST_DIGITS = 18  # every 18-digit id is below 2**63, so needs no range check
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# CSV text formatted or parsed at a time; a chunk holds at least one line
_CSV_CHUNK_BYTES = 1 << 20


def _csv_header(d):
    return ",".join([f"x{j}" for j in range(d)] + ["y", "e"]) + "\n"


def save_dataset_csv(dataset, path):
    """Write the canonical CSV form: header ``x0,...,x{d-1},y,e``, one sample
    per row, ASCII digits, LF line endings; ``load_dataset_csv`` reads it back
    as a byte matrix when every env id has at most 18 digits.

    Rows are formatted and written in chunks of about ``_CSV_CHUNK_BYTES`` of
    text, so the memory held beyond the dataset stays near two chunks
    whatever the dataset's size."""
    features, labels, envs = dataset.features, dataset.labels, dataset.envs
    m, d = features.shape
    longest = 2 * d + 3 + _digit_counts(envs.max())
    step = _csv_chunk_rows(int(longest))
    with open(path, "wb") as fh:
        fh.write(_csv_header(d).encode("ascii"))
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            fh.write(memoryview(_csv_lines(features[rows], labels[rows], envs[rows])))


def _digit_counts(envs):
    """The number of decimal digits of each non-negative env id."""
    return np.searchsorted(_POW10[1:], envs, side="right") + 1


def _csv_chunk_rows(line_bytes):
    """Rows per chunk when no line is longer than ``line_bytes``."""
    return max(1, _CSV_CHUNK_BYTES // line_bytes)


def _csv_lines(features, labels, envs):
    """The canonical CSV lines of some rows, as one uint8 buffer: each line's
    0/1 fields and commas are scattered as a fixed-width block, and the env
    ids' digits once per digit count."""
    m, d = features.shape
    fixed = 2 * d + 2
    widths = _digit_counts(envs)
    ends = np.cumsum(widths + (fixed + 1))
    starts = ends - (widths + (fixed + 1))
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    block = np.full((m, fixed), ord(","), dtype=np.uint8)
    np.add(features, _ZERO, out=block[:, 0 : 2 * d : 2])
    np.add(labels, _ZERO, out=block[:, 2 * d])
    # every line is at least fixed + 2 bytes long, so the windows never overlap
    sliding_window_view(out, fixed, writeable=True)[starts] = block
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == width)
        digits = envs[rows, None] // _POW10[width - 1 :: -1] % 10 + _ZERO
        sliding_window_view(out, width, writeable=True)[starts[rows] + fixed] = digits
    out[ends - 1] = _LF
    return out


def _csv_rows(fh, path):
    """The rows of a CSV text file, with a decoding or parsing failure
    raised as DataError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _load_canonical(raw):
    """The Dataset in a file in exactly the layout ``save_dataset_csv`` writes,
    with env ids of at most 18 digits, else None.

    The row count is the number of LFs, so the feature matrix, labels and env
    ids are allocated once. Each chunk of about ``_CSV_CHUNK_BYTES``, cut at a
    line end, then has its line ends found, its layout checked and its env
    ids parsed into them, so the memory held beyond the file and the dataset
    stays near a few chunks."""
    cut = raw.find(b"\n") + 1
    d = raw.count(b",", 0, cut) - 1
    if d < 1 or raw[:cut] != _csv_header(d).encode("ascii"):
        return None
    if len(raw) == cut or raw[-1] != _LF:
        return None
    m = raw.count(b"\n", cut)
    features = np.empty((m, d), dtype=np.uint8)
    labels = np.empty(m, dtype=np.uint8)
    envs = np.empty(m, dtype=np.int64)
    data = np.frombuffer(raw, dtype=np.uint8)
    row = 0
    while cut < len(raw):
        # the chunk runs to the end of the line holding its last byte
        stop = raw.find(b"\n", min(cut + _CSV_CHUNK_BYTES, len(raw)) - 1) + 1
        body = data[cut:stop]
        ends = np.flatnonzero(body == _LF)
        rows = slice(row, row + len(ends))
        if not _parse_canonical_lines(
            body, ends, features[rows], labels[rows], envs[rows]
        ):
            return None
        row, cut = rows.stop, stop
    return Dataset(features=features, labels=labels, envs=envs)


def _parse_canonical_lines(body, ends, features, labels, envs):
    """Fill ``features``, ``labels`` and ``envs`` from the LF-terminated lines
    in ``body``, whose LFs sit at ``ends``; False if a line deviates from the
    canonical layout."""
    d = features.shape[1]
    fixed = 2 * d + 2
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts - fixed
    if widths.min() < 1 or widths.max() > _MAX_FAST_DIGITS:
        return False
    # bytes below '0' wrap around to large values in the uint8 subtraction
    block = sliding_window_view(body, fixed)[starts]
    np.subtract(block[:, 0 : 2 * d : 2], np.uint8(_ZERO), out=features)
    np.subtract(block[:, 2 * d], np.uint8(_ZERO), out=labels)
    if features.max() > 1 or labels.max() > 1 or (block[:, 1::2] != ord(",")).any():
        return False
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == width)
        digits = sliding_window_view(body, width)[starts[rows] + fixed]
        digits = digits - np.uint8(_ZERO)
        if digits.max() > 9:
            return False
        envs[rows] = digits @ _POW10[width - 1 :: -1]
    return True


def _load_csv_module(raw, path):
    """One pass of the ``csv`` module over the file's bytes ``raw``; each
    row's 0/1 fields are checked by one set test and kept as a string of bits
    for one ``np.frombuffer``. Env ids are ASCII decimal digits below 2**63."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3 or header[-2:] != ["y", "e"]:
            raise DataError(f"{path}: header must end with 'y,e', got {header}")
        names = tuple(header[:-2])
        d = len(names)
        columns = names + ("y",)
        is_binary = frozenset("01").issuperset
        bits, envs = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(
                    f"{path}:{lineno}: expected {d + 2} columns, got {len(row)}"
                )
            if not is_binary(row[: d + 1]):  # scan again to name the column
                j = next(j for j in range(d + 1) if row[j] not in ("0", "1"))
                raise DataError(
                    f"{path}:{lineno}: column '{columns[j]}': "
                    f"expected 0/1, got {row[j]!r}"
                )
            env = row[d + 1]
            if not (env.isascii() and env.isdigit()) or (
                len(env) > 18 and int(env) >= 2**63
            ):
                raise DataError(
                    f"{path}:{lineno}: column 'e': expected an integer in "
                    f"[0, 2**63), got {env!r}"
                )
            bits.append("".join(row[: d + 1]))
            envs.append(env)
    if not bits:
        raise DataError(f"{path}: no data rows")
    table = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8)
    table = table.reshape(-1, d + 1) - ord("0")
    return Dataset(
        features=table[:, :d],
        labels=table[:, d],
        envs=np.array(envs, dtype=np.int64),
        feature_names=names,
    )


def load_dataset_csv(path):
    """The Dataset in a CSV file, raising DataError for a file it cannot read
    or a row it refuses.

    The file is read once as bytes. One in the layout ``save_dataset_csv``
    writes, with env ids of at most 18 digits, is parsed as a byte matrix;
    any other goes whole to the ``csv``-module loader, which accepts CRLF,
    quotes, blank lines and wider ids. Both accept the same input and raise
    the same errors."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    dataset = _load_canonical(raw)
    return _load_csv_module(raw, path) if dataset is None else dataset


def write_json(path, doc):
    """Write ``doc`` as canonical JSON: 2-space indent, sorted keys, UTF-8,
    one trailing LF. Every JSON file rulecover writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model_json(model, path, stop_reason=None):
    write_json(path, model.to_dict(stop_reason=stop_reason))


def load_model_json(path):
    """Returns (model, stop_reason-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    return Conjunction.from_dict(doc), doc.get("stop_reason")
