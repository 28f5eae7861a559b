import csv
import errno
import io
import itertools
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rulecover import data
from rulecover.data import (
    Conjunction,
    Dataset,
    Rule,
    candidate_rules,
    load_dataset_csv,
    load_model_json,
    prediction_matrix,
    save_dataset_csv,
    save_model_json,
)
from rulecover.errors import DataError

from conftest import (
    evaluate,
    load_dataset_csv_reference,
    save_dataset_csv_reference,
)


def test_rule_evaluate_truth():
    rule = Rule(1, 1)
    X = np.array([[0, 1], [0, 0], [1, 1]], dtype=np.uint8)
    assert evaluate(rule, X).tolist() == [1, 0, 1]
    assert evaluate(Rule(0, 0), X).tolist() == [1, 1, 0]
    assert prediction_matrix(X, [rule, Rule(0, 0)]).tolist() == [
        [1, 1], [0, 1], [1, 0]
    ]


def test_rule_validation():
    with pytest.raises(DataError):
        Rule(-1, 0)
    with pytest.raises(DataError):
        Rule(0, 2)


@pytest.mark.parametrize(
    "feature_index, expected_value",
    [(0.7, 1), (1.0, 1), (0, 1.0), (0, 0.5), ("0", 1), (0, None), (np.float64(2), 0)],
)
def test_rule_refuses_non_integer_fields(feature_index, expected_value):
    # Rule(0.7, 1) used to fit column 0 and print as x0.7==1
    with pytest.raises(DataError, match="must be an integer"):
        Rule(feature_index, expected_value)


def test_rule_stores_python_ints():
    rule = Rule(np.int64(3), np.uint8(1))
    assert type(rule.feature_index) is int and type(rule.expected_value) is int
    assert rule == Rule(3, 1) and str(rule) == "x3==1"


def test_rule_out_of_range_feature():
    X = np.zeros((3, 2), dtype=np.uint8)
    with pytest.raises(DataError):
        evaluate(Rule(5, 1), X)
    with pytest.raises(DataError, match="rule on feature 5 applied to 2-column"):
        prediction_matrix(X, [Rule(0, 1), Rule(5, 1)])
    for is_disjunction in (False, True):
        with pytest.raises(DataError):
            Conjunction((Rule(5, 1),), is_disjunction).predict(X)


def test_empty_conjunction_predicts_one():
    X = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert Conjunction().predict(X).tolist() == [1, 1]
    assert Conjunction(is_disjunction=True).predict(X).tolist() == [0, 0]


def test_conjunction_truth_table():
    model = Conjunction(rules=(Rule(0, 1), Rule(1, 1)))
    assert model.predict([[1, 1, 0], [1, 0, 0]]).tolist() == [1, 0]


def test_disjunction_de_morgan_example():
    model = Conjunction(rules=(Rule(0, 1), Rule(1, 1)), is_disjunction=True)
    assert model.predict([[0, 1], [0, 0]]).tolist() == [1, 0]


def test_de_morgan_identity_exhaustive():
    # conjunction(rules) == NOT disjunction(negated rules), all d <= 4 inputs
    rule_sets = [
        (Rule(0, 1),),
        (Rule(0, 1), Rule(1, 0)),
        (Rule(0, 0), Rule(1, 1), Rule(2, 1)),
        (Rule(0, 1), Rule(1, 1), Rule(2, 0), Rule(3, 1)),
    ]
    for rules in rule_sets:
        d = max(r.feature_index for r in rules) + 1
        conj = Conjunction(rules=rules)
        disj_neg = Conjunction(
            rules=tuple(r.negated() for r in rules), is_disjunction=True
        )
        for bits in itertools.product((0, 1), repeat=d):
            x = np.array(bits, dtype=np.uint8)
            assert conj.predict(x)[0] == 1 - disj_neg.predict(x)[0]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=5),
       st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_predict_is_pure(rule_spec, bits):
    model = Conjunction(rules=tuple(Rule(j, v) for j, v in rule_spec))
    x = np.array(bits, dtype=np.uint8)
    assert model.predict(x).tolist() == model.predict(x).tolist()
    assert model.predict(x).tolist() in ([0], [1])


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=6),
    st.integers(1, 6),
    st.sampled_from([np.uint8, np.int64, bool]),
    st.integers(0, 2**32 - 1),
)
def test_prediction_matrix_matches_per_rule_reference(rule_spec, m, dtype, seed):
    # int64 inputs (such as 257) are compared at their own width, not as uint8
    rules = [Rule(j, v) for j, v in rule_spec]
    X = np.random.default_rng(seed).choice([0, 1, 257], (m, 4)).astype(dtype)
    before = X.copy()
    out = prediction_matrix(X, rules)
    assert out.dtype == np.uint8 and out.shape == (m, len(rules))
    expected_and = np.ones(m, dtype=np.uint8)
    expected_or = np.zeros(m, dtype=np.uint8)
    for k, rule in enumerate(rules):
        assert np.array_equal(out[:, k], evaluate(rule, X))
        expected_and &= evaluate(rule, X)
        expected_or |= evaluate(rule, X)
    assert np.array_equal(X, before)
    conj = Conjunction(rules=tuple(rules)).predict(X)
    disj = Conjunction(rules=tuple(rules), is_disjunction=True).predict(X)
    assert conj.dtype == disj.dtype == np.uint8
    assert np.array_equal(conj, expected_and)
    assert np.array_equal(disj, expected_or)


def _dataset(features, labels=None, envs=None):
    features = np.asarray(features, dtype=np.uint8)
    m = features.shape[0]
    if labels is None:
        labels = np.zeros(m, dtype=np.uint8)
        labels[: m // 2] = 1
    if envs is None:
        envs = np.zeros(m, dtype=np.int64)
    return Dataset(features=features, labels=labels, envs=envs)


def test_candidate_rules_counts():
    ds = _dataset([[0, 1, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0]])
    rules = candidate_rules(ds)
    assert len(rules) == 6
    assert rules[0] == Rule(0, 1) and rules[1] == Rule(0, 0)


def test_candidate_rules_drops_constant_column():
    ds = _dataset([[0, 0], [1, 0], [0, 0], [1, 0]])
    rules = candidate_rules(ds)
    assert rules == [Rule(0, 1), Rule(0, 0)]


def test_candidate_rules_single_feature():
    ds = _dataset([[0], [1]])
    assert candidate_rules(ds) == [Rule(0, 1), Rule(0, 0)]


@pytest.mark.parametrize("m, d", [(1, 1), (2, 3), (30, 12), (3000, 3), (4999, 41)])
def test_candidate_rules_match_column_loop_reference(m, d):
    # m > 4096 // d folds rows and leaves m % k rows over; one cell flipped in
    # the first, a middle and the last row must each make its column usable.
    rng = np.random.default_rng(m * d)
    for density in (0.0, 0.5, 1.0):
        features = (rng.random((m, d)) < density).astype(np.uint8)
        for row in (0, m // 2, m - 1):
            features[row, rng.integers(d)] ^= 1
        expected = []
        for j in range(d):
            if features[:, j].min() != features[:, j].max():
                expected += [Rule(j, 1), Rule(j, 0)]
        assert candidate_rules(_dataset(features)) == expected


def test_dataset_validation():
    with pytest.raises(DataError):
        _dataset([[0, 2]])
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1), dtype=np.uint8),
            labels=np.array([0, 1, 1], dtype=np.uint8),
            envs=np.zeros(2, dtype=np.int64),
        )
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1), dtype=np.uint8),
            labels=np.array([0, 1], dtype=np.uint8),
            envs=np.array([0, -1], dtype=np.int64),
        )
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1), dtype=np.uint8),
            labels=np.array([0, 1], dtype=np.uint8),
            envs=np.zeros(2, dtype=np.int64),
            feature_names=("a", "b"),
        )


# Values are checked before the cast to uint8/int64, which would otherwise
# turn 0.5 and 256 into 0, label 257 into 1 and env 1.7 into 1.
def test_dataset_rejects_features_the_cast_would_change():
    with pytest.raises(DataError, match="features"):
        Dataset(features=[[0.5], [256.0]], labels=[0, 1], envs=[0, 1])


def test_dataset_rejects_labels_the_cast_would_change():
    with pytest.raises(DataError, match="labels"):
        Dataset(features=[[0], [1]], labels=[257, 0], envs=[0, 1])


def test_dataset_rejects_fractional_env_ids():
    with pytest.raises(DataError, match="environment ids"):
        Dataset(features=[[0], [1]], labels=[0, 1], envs=[1.7, 0])


@pytest.mark.parametrize("env", [2**63, 10**20, -(2**64)])
def test_dataset_rejects_env_ids_beyond_int64(env):
    with pytest.raises(DataError, match="environment ids"):
        Dataset(features=[[0], [1]], labels=[0, 1], envs=[0, env])


def test_dataset_arrays_are_read_only():
    ds = _dataset([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1


def test_csv_round_trip(tmp_path):
    ds = _dataset(
        [[0, 1], [1, 0], [1, 1]],
        labels=np.array([1, 0, 1], dtype=np.uint8),
        envs=np.array([0, 1, 2], dtype=np.int64),
    )
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    text = path.read_bytes()
    assert text.startswith(b"x0,x1,y,e\n")
    assert b"\r" not in text
    loaded = load_dataset_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.envs, ds.envs)


def test_csv_bytes_match_csv_module_reference(tmp_path):
    rng = np.random.default_rng(9)
    for m, d in ((1, 1), (7, 3), (200, 12)):
        ds = Dataset(
            features=rng.integers(0, 2, (m, d)),
            labels=rng.integers(0, 2, m),
            envs=rng.choice([0, 7, 12, 999, 10**12], m),
        )
        ref = io.StringIO(newline="")
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(d)] + ["y", "e"])
        for i in range(m):
            writer.writerow(
                [str(int(v)) for v in ds.features[i]]
                + [str(int(ds.labels[i])), str(int(ds.envs[i]))]
            )
        save_dataset_csv(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == ref.getvalue().encode("ascii")


def test_csv_parse_error_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,y,e\n0,1,0\n2,0,1\n")
    with pytest.raises(DataError, match=r"bad.csv:3.*x0"):
        load_dataset_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n0,1,0\n")
    with pytest.raises(DataError, match="header"):
        load_dataset_csv(path)


_DEVIATIONS = (
    "crlf", "quoted", "blank", "ragged", "bad_bit", "header", "byte",
    "no_final_lf", "bom", "lone_cr",
)


def _env_ids(max_width):
    """Env ids of 1 to ``max_width`` digits, zero-padded to the drawn width."""
    return st.builds(
        lambda width, value: str(value % 10**width).zfill(width),
        st.integers(1, max_width),
        st.sampled_from([0, 7, 9, 10, 999, 10**18, 2**63 - 1]) | st.integers(0, 2**64),
    )


@st.composite
def _csv_texts(draw):
    """A dataset CSV in canonical form, then altered by a random subset of
    _DEVIATIONS. Env ids are zero-padded to 1-18 digits in one file out of
    three; in the others they may run to 19 or 40 digits, which the canonical
    form leaves to the ``csv`` module."""
    d = draw(st.integers(1, 4))
    env = _env_ids(draw(st.sampled_from([18, 19, 40])))
    bit = st.sampled_from("01")
    lines = [[f"x{j}" for j in range(d)] + ["y", "e"]]
    for _ in range(draw(st.integers(0, 24))):
        lines.append([draw(bit) for _ in range(d + 1)] + [draw(env)])
    deviations = draw(st.sets(st.sampled_from(_DEVIATIONS), max_size=2))
    if "header" in deviations:
        lines[0][-draw(st.integers(1, 2))] = draw(st.sampled_from(["Y", "env", ""]))
    if "bad_bit" in deviations and len(lines) > 1:
        row = draw(st.integers(1, len(lines) - 1))
        lines[row][draw(st.integers(0, d))] = draw(
            st.sampled_from(["2", "", " 1", "01", "x", "1.0", "\u0661"])
        )
    if "byte" in deviations and len(lines) > 1:
        # one bit, comma or env digit of a data row becomes a byte just below
        # '0', one just above '9', a space or a NUL
        row = lines[draw(st.integers(1, len(lines) - 1))]
        byte = draw(st.sampled_from("/: \x00"))
        slot = draw(st.sampled_from(["bit", "comma", "digit"]))
        if slot == "bit":
            row[draw(st.integers(0, d))] = byte
        elif slot == "comma":
            j = draw(st.integers(0, d))
            row[j : j + 2] = [row[j] + byte + row[j + 1]]
        else:
            k = draw(st.integers(0, len(row[-1]) - 1))
            row[-1] = row[-1][:k] + byte + row[-1][k + 1 :]
    if "ragged" in deviations and len(lines) > 1:
        row = lines[draw(st.integers(1, len(lines) - 1))]
        if draw(st.booleans()):
            row.append(draw(bit))
        else:
            row.pop()
    if "quoted" in deviations:
        for row in lines:
            for j in range(len(row)):
                if draw(st.booleans()):
                    row[j] = f'"{row[j]}"'
    text = [",".join(row) for row in lines]
    if "blank" in deviations:
        for _ in range(draw(st.integers(1, 3))):
            text.insert(draw(st.integers(1, len(text))), "")
    newline = "\r\n" if "crlf" in deviations else "\n"
    text = newline.join(text) + newline
    if "no_final_lf" in deviations:
        text = text[:-1]
    if "lone_cr" in deviations:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + "\r" + text[k:]
    if "bom" in deviations:
        text = "\ufeff" + text
    return text


def _is_canonical(raw):
    """Whether a file has exactly the layout ``save_dataset_csv`` writes, with
    env ids of at most 18 digits: the files the loader reads from bytes."""
    header, _, body = raw.partition(b"\n")
    d = header.count(b",") - 1
    names = b",".join([b"x%d" % j for j in range(d)] + [b"y", b"e"])
    line = rb"(?:[01],){%d}[0-9]{1,18}\n" % (d + 1)
    pattern = rb"(?:%s)+" % line
    return d >= 1 and header == names and re.fullmatch(pattern, body) is not None


class _FallbackReached(Exception):
    pass


def _refuse_csv_rows(fh, path):
    raise _FallbackReached


def _load_outcome(loader, path):
    try:
        ds = loader(path)
    except DataError as exc:
        return str(exc)
    return (
        ds.features.dtype, ds.features.tolist(), ds.labels.dtype,
        ds.labels.tolist(), ds.envs.dtype, ds.envs.tolist(), ds.feature_names,
    )


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "data.csv"


@given(_csv_texts())
def test_loader_matches_field_by_field_reference(scratch_csv, text):
    scratch_csv.write_bytes(text.encode("utf-8"))
    assert _load_outcome(load_dataset_csv, scratch_csv) == _load_outcome(
        load_dataset_csv_reference, scratch_csv
    )


@given(_csv_texts())
def test_loader_reads_exactly_the_canonical_files_from_bytes(scratch_csv, text):
    raw = text.encode("utf-8")
    scratch_csv.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_csv_rows", _refuse_csv_rows)
        if _is_canonical(raw):
            load_dataset_csv(scratch_csv)
        else:
            with pytest.raises(_FallbackReached):
                load_dataset_csv(scratch_csv)


_CANONICAL = b"x0,x1,y,e\n0,1,1,7\n1,0,0,012\n1,1,0,999999999999999999\n"


@pytest.mark.parametrize(
    "raw",
    [
        _CANONICAL.replace(b"\n", b"\r\n"),
        _CANONICAL.replace(b"0,1,1,7", b'"0",1,1,7'),
        _CANONICAL + b"\n",
        b"\xef\xbb\xbf" + _CANONICAL,
        _CANONICAL + b"0,0,1,1000000000000000000\n",
        _CANONICAL + b"0,0,1,9223372036854775807\n",
        _CANONICAL + b"0,0,1,0000000000000000007\n",
        _CANONICAL + b"0,0,1,7,1\n",
        _CANONICAL + b"0,0,1\n",
        _CANONICAL + b"0,2,1,7\n",
        _CANONICAL[:-1],
        _CANONICAL.replace(b"0,1,1,7", b"0,1,1\r7"),
        _CANONICAL + b"0,0,1,+7\n",
        _CANONICAL.replace(b"x0,x1", b"x1,x0"),
        b"x0,x1,y,e\n",
    ]
    + [
        _CANONICAL + row.replace(b"?", byte)
        for byte in (b"/", b":", b" ", b"\x00")
        for row in (b"?,0,1,7\n", b"0?0,1,7\n", b"0,0,1,?\n", b"0,0,1,1?\n")
    ],
)
def test_loader_falls_back_to_csv_module_on_any_deviation(tmp_path, raw):
    path = tmp_path / "data.csv"
    path.write_bytes(_CANONICAL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_csv_rows", _refuse_csv_rows)
        load_dataset_csv(path)
        path.write_bytes(raw)
        with pytest.raises(_FallbackReached):
            load_dataset_csv(path)
    assert _load_outcome(load_dataset_csv, path) == _load_outcome(
        load_dataset_csv_reference, path
    )


def test_csv_missing_file_message(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(DataError) as info:
        load_dataset_csv(path)
    assert str(info.value) == (
        f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
    )


def test_csv_directory_message(tmp_path):
    with pytest.raises(DataError) as info:
        load_dataset_csv(tmp_path)
    assert str(info.value) == (
        f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
    )


def test_csv_unreadable_file_message(tmp_path, monkeypatch):
    path = tmp_path / "locked.csv"
    path.write_bytes(_CANONICAL)
    path.chmod(0)
    if os.access(path, os.R_OK):  # a superuser reads past the mode bits
        def denied(self):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
    with pytest.raises(DataError) as info:
        load_dataset_csv(path)
    assert str(info.value) == (
        f"cannot read {path}: [Errno 13] Permission denied: '{path}'"
    )


def test_csv_fallback_parses_the_bytes_read_once(tmp_path, monkeypatch):
    # A pipe yields its bytes once: a second open of the path reads nothing.
    crlf = _CANONICAL.replace(b"\n", b"\r\n")
    on_disk = tmp_path / "crlf.csv"
    on_disk.write_bytes(crlf)
    expected = _load_outcome(load_dataset_csv, on_disk)
    assert isinstance(expected, tuple)
    piped = tmp_path / "pipe.csv"
    monkeypatch.setattr(
        Path, "read_bytes", lambda self: crlf if self == piped else b""
    )
    assert not piped.exists()
    assert _load_outcome(load_dataset_csv, piped) == expected


_ENV_EDGES = [0, 9, 10, 10**18 - 1, 10**18, 2**63 - 1]


@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.sampled_from(_ENV_EDGES)
        | st.integers(1, 19).flatmap(
            lambda width: st.integers(10 ** (width - 1), min(10**width, 2**63) - 1)
        ),
        min_size=1,
    ),
)
def test_csv_writer_matches_per_row_reference(scratch_csv, m, d, seed, env_ids):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        features=rng.integers(0, 2, (m, d)),
        labels=rng.integers(0, 2, m),
        envs=[env_ids[i % len(env_ids)] for i in range(m)],
    )
    reference = scratch_csv.with_name("reference.csv")
    save_dataset_csv_reference(ds, reference)
    save_dataset_csv(ds, scratch_csv)
    assert scratch_csv.read_bytes() == reference.read_bytes()
    with pytest.MonkeyPatch.context() as patch:
        if ds.envs.max() < 10**18:
            patch.setattr(data, "_csv_rows", _refuse_csv_rows)
        loaded = load_dataset_csv(scratch_csv)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.envs, ds.envs)


def test_model_json_round_trip(tmp_path):
    model = Conjunction(rules=(Rule(2, 0), Rule(0, 1)), is_disjunction=True)
    path = tmp_path / "model.json"
    save_model_json(model, path, stop_reason="max_rules")
    loaded, stop = load_model_json(path)
    assert loaded == model
    assert stop == "max_rules"
    X = (np.random.default_rng(0).random((20, 3)) < 0.5).astype(np.uint8)
    assert np.array_equal(loaded.predict(X), model.predict(X))
