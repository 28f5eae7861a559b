"""Every count the fits and tests read, in numpy.

The data is read once, by ``_count_table``, the builder ICP, pruning and
the greedy fits on narrow data use: it gives each of the R distinct feature
rows a (label, environment) table of counts, (R, 2, k) int64 (cached
sufficient statistics, Moore & Lee, JAIR 1998). The greedy fits sum every
stump's leaf table from it (``leaf_label_env_counts``), scm with the env
axis summed away; ICP and icscm's pruning sum each subset's strata
(``_subset_counts``), and ICP sums a held level from the level above
(``_marginal_level_counts``). Every row, stratum and env id is numbered by
``_dense_ids`` (env ids once per Dataset, ``Dataset._env_numbering``), which
returns the ids it numbered, so this module alone decides which strata a
table holds; callers index by key. A row wider than ``_MAX_KEY_BITS``
columns has no int64 key, so each such sample is its own row. Callers see
every count array as (..., 2, k), label then environment; only the bodies
of these functions flatten a table's cells.

A greedy fit whose 2**d row keys outnumber its m samples holds the data
bit-packed instead (``_packed_table``), as the Set Covering Machine's Kover
learner does (Drouin et al., BMC Genomics 2016): each feature column is W
uint64 words, W = ceil(m / 64), whose bytes are ``np.packbits`` of the
column in little bit order (sample i at bit i % 8 of byte i // 8), and each
(label, env) group is a mask in that layout. A stump's leaf count is then
the popcount of column AND group mask, an exact integer. The Dataset packs
its columns once and keeps them (``Dataset._packed_columns``); only the
group masks are built per fit.
"""

import operator

import numpy as np

from .errors import DataError

# Recorded in experiment manifests and benchmark records.
BACKEND = "python"
# Columns that pack into one non-negative int64 key (``joint_strata``).
_MAX_KEY_BITS = 62
# Samples ``_pack_columns`` packs at a time; a multiple of 8, so that each
# block starts on a whole byte of the output.
_PACK_ROWS = 4096


def leaf_label_env_counts(rows, counts, index, value):
    """Per-rule (label, environment) counts over the samples a rule maps to 0.

    ``rows`` is an (R, d) 0/1 matrix with (R, 2, k) per-row (label, env)
    ``counts``, or, from ``_packed_table``, (d, W) uint64 packed columns with
    (2, k, W) uint64 group masks; rule r is the stump
    ``x[index[r]] == value[r]``. Returns an (n_rules, 2, k) int64 array
    where cell [r, a, b] counts the samples of group (a, b) the rule maps
    to 0.
    """
    index = np.asarray(index, dtype=np.intp)
    value = np.asarray(value, dtype=np.uint8)
    if index.ndim != 1 or index.shape != value.shape:
        raise ValueError("index and value must be 1-D and of equal length")
    if _is_packed(rows):
        sizes, ones = _packed_group_sums(rows, counts)
        n_env = counts.shape[1]
    else:
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if rows.ndim != 2 or counts.ndim != 3 or counts.shape[1] != 2:
            raise ValueError("rows must be 2-D and counts (n_rows, 2, n_env)")
        if rows.shape[0] != counts.shape[0]:
            raise ValueError("rows and counts disagree on the row count")
        n_rows, _, n_env = counts.shape
        # count-weighted column sums per (label, env) group, exact in
        # float64 below 2**53 samples
        weights = np.ascontiguousarray(
            counts.reshape(n_rows, 2 * n_env).T, dtype=np.float64
        )
        sizes = weights.sum(axis=1).astype(np.int64)
        ones = (weights @ rows).astype(np.int64)
    # A rule (j, 0) maps to 0 the samples where column j is 1, and a rule
    # (j, 1) the rest of the group.
    ones = ones[:, index]
    zeros = np.where(value == 1, sizes[:, None] - ones, ones)
    zeros = zeros.reshape(2, n_env, len(index))
    return np.ascontiguousarray(zeros.transpose(2, 0, 1))


def _is_packed(rows):
    """Whether a table's first array is packed columns (uint64 words), not
    0/1 rows."""
    return rows.dtype == np.uint64


def _packed_group_sums(columns, masks):
    """Each (label, env) group's size, (2k,), and the number of its samples
    where each column is 1, (2k, d), from (d, W) packed columns and (2, k, W)
    group masks: popcounts of the masks and of column AND mask."""
    if columns.ndim != 2 or masks.ndim != 3 or masks.shape[0] != 2:
        raise ValueError("columns must be 2-D and masks (2, n_env, n_words)")
    if masks.dtype != np.uint64 or columns.shape[1] != masks.shape[2]:
        raise ValueError("columns and masks must be uint64 words of one width")
    masks = masks.reshape(-1, masks.shape[2])
    sizes = np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
    ones = np.zeros((len(masks), len(columns)), dtype=np.int64)
    for group in np.flatnonzero(sizes):
        # only the words from the group's first sample to its last count
        words = np.flatnonzero(masks[group])
        span = slice(words[0], words[-1] + 1)
        both = columns[:, span] & masks[group, span]
        np.bitwise_count(both).sum(axis=1, dtype=np.int64, out=ones[group])
    return sizes, ones


def stratified_label_env_counts(strata, n_strata, y, e, n_env):
    """(label, environment) counts per stratum.

    ``strata`` holds dense ids in [0, n_strata). Returns an
    (n_strata, 2, n_env) int64 array of counts.
    """
    strata = np.ascontiguousarray(strata, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.uint8)
    e = np.ascontiguousarray(e, dtype=np.int64)
    if not (strata.shape[0] == y.shape[0] == e.shape[0]):
        raise ValueError("strata, y and e disagree on the sample count")
    n_env = int(n_env)
    idx = (strata * 2 + y) * n_env + e
    flat = np.bincount(idx, minlength=int(n_strata) * 2 * n_env)
    return flat.reshape(int(n_strata), 2, n_env).astype(np.int64, copy=False)


def _count_table(dataset, columns=None):
    """The data as distinct feature rows and their (label, env) counts:
    ``rows`` (R, d) 0/1 and ``counts`` (R, 2, k) int64, env ids numbered by
    ``Dataset._env_numbering``; ``columns`` keeps only those feature
    columns, in the order given. The rows are numbered by ``_dense_ids``
    over their packed keys, in ascending key (a sort only when the 2**d keys
    outnumber the samples); above ``_MAX_KEY_BITS`` columns every sample is
    its own row, with a count of 1."""
    features = dataset.features
    if columns is not None:
        features = features[:, columns]
    m, d = features.shape
    envs, env_ids = dataset._env_numbering
    if d <= _MAX_KEY_BITS:
        row_ids, keys = _dense_ids(joint_strata(features, range(d)))
        rows = _unpack_keys(keys, d)
    else:
        rows, row_ids = features, np.arange(m)
    labels, k = dataset.labels, len(env_ids)
    return rows, stratified_label_env_counts(row_ids, len(rows), labels, envs, k)


def _greedy_table(dataset):
    """The table a greedy fit holds: the count table's distinct rows when
    the 2**d row keys are at most the sample count, else ``_packed_table``."""
    m, d = dataset.features.shape
    if 2**d <= m:
        return _count_table(dataset)
    return _packed_table(dataset)


def _packed_table(dataset):
    """The data bit-packed over its samples: the Dataset's (d, W) packed
    columns and a (2, k, W) uint64 mask of each (label, env) group."""
    envs, env_ids = dataset._env_numbering
    k, m = len(env_ids), dataset.n_samples
    groups = envs + k * dataset.labels.astype(np.int64)
    masks = np.zeros((2 * k, -(-m // 64) * 8), dtype=np.uint8)
    members = groups == np.arange(2 * k)[:, None]
    masks[:, : -(-m // 8)] = np.packbits(members, axis=1, bitorder="little")
    return dataset._packed_columns, masks.view(np.uint64).reshape(2, k, -1)


def _pack_columns(matrix):
    """The columns of an (m, d) 0/1 uint8 matrix as (d, W) uint64 words over
    its rows, in the layout the module docstring gives; the padding bits of
    the last word are 0.

    ``_PACK_ROWS`` rows at a time are copied into a buffer padded to whole
    words, so the memory held beyond the output stays at one block. Each
    eight rows' bytes, read as uint64 words, are shifted by their row's
    offset and ORed, giving one byte per column with those eight samples'
    bits (a byte is 0 or 1, so no shift carries into the next); the
    (rows / 8, d) bytes are then transposed into place.
    """
    m, d = matrix.shape
    width = -(-d // 8) * 8
    out = np.zeros((d, -(-m // 64) * 8), dtype=np.uint8)
    block = np.zeros((min(_PACK_ROWS, -(-m // 8) * 8), width), dtype=np.uint8)
    for lo in range(0, m, _PACK_ROWS):
        n = min(_PACK_ROWS, m - lo)
        rows = -(-n // 8) * 8
        block[:n, :d] = matrix[lo : lo + n]
        block[n:rows] = 0
        words = block[:rows].view(np.uint64).reshape(rows // 8, 8, width // 8)
        packed = words[:, 0].copy()
        for shift in range(1, 8):
            packed |= words[:, shift] << shift
        out[:, lo // 8 : (lo + rows) // 8] = packed.view(np.uint8)[:, :d].T
    return out.view(np.uint64)


def _unpack_keys(keys, width):
    """The 0/1 rows that ``joint_strata`` packs into ``keys`` over ``width``
    columns: a row is its key's bits, lowest first."""
    key_bytes = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(key_bytes, axis=1, count=width, bitorder="little")


def _subset_counts(table, rows, subset):
    """The strata of ``subset`` as ``joint_strata`` packs them, in ascending
    key, and their (n_strata, 2, k) counts summed from the (R, 2, k) per-row
    ``table``: all 2**|S| strata when they are at most the distinct rows,
    else only the occupied ones, numbered by ``_dense_ids``."""
    strata = joint_strata(rows, subset)
    if 2 ** len(subset) <= len(rows):
        keys = np.arange(2 ** len(subset))
    else:
        strata, keys = _dense_ids(strata)
    cells = table.reshape(-1, table.shape[1] * table.shape[2]).T
    sums = [np.bincount(strata, weights=cell, minlength=len(keys)) for cell in cells]
    return keys, np.stack(sums, axis=1).reshape(len(keys), *table.shape[1:])


def _marginal_level_counts(parents, parent_subsets, subsets):
    """(subsets, 2**s, 2, k) counts of the size-s ``subsets`` from
    ``parents``, the (parent_subsets, 2**(s + 1), 2, k) held counts of
    ``parent_subsets``, every size-(s + 1) subset in ``combinations`` order.
    A subset's parent adds its smallest missing column c and is found by its
    position in ``parent_subsets``; c sits at bit c of the parent's stratum
    id, and the subset's table sums the parent's two strata that differ only
    in that bit."""
    position = {subset: i for i, subset in enumerate(parent_subsets)}
    columns = np.array(subsets, dtype=np.intp)
    size = columns.shape[1]
    missing = (columns == np.arange(size)).sum(axis=1)
    parent = [
        position[subset[:c] + (c,) + subset[c:]]
        for subset, c in zip(subsets, missing.tolist())
    ]
    bit = 1 << missing[:, None]
    strata = np.arange(2**size)[None, :]
    low = strata & (bit - 1)
    strata = low | ((strata ^ low) << 1)
    strata += (np.array(parent, dtype=np.intp) * 2 ** (size + 1))[:, None]
    tables = parents.reshape(-1, *parents.shape[2:])
    counts = tables[strata]
    counts += tables[strata | bit]
    return counts


def _dense_ids(ids):
    """Integer ids numbered densely in ascending order, and the distinct ids
    they number: ``np.unique(ids, return_inverse=True)`` in reverse order.
    Non-negative ids below their count are numbered through a table of the
    ids present, so memory stays bounded by the data; any other ids
    (negative, or not below their count) are sorted."""
    if ids.min() >= 0 and ids.max() < len(ids):
        present = np.zeros(ids.max() + 1, bool)
        present[ids] = True
        if not present.all():
            ids = (np.cumsum(present) - 1)[ids]
        return ids, np.flatnonzero(present)
    distinct, ids = np.unique(ids, return_inverse=True)
    return ids, distinct


def joint_strata(features, feature_indices):
    """Stratum ids from the joint value of binary feature columns.

    An empty index set yields a single all-zero stratum, which reduces the
    conditional G-test to the unconditional one. An index that is not an
    integer (as ``Rule`` checks it), negative, not below the column count, or
    repeated raises DataError, as do features that are not 2-D and, in the
    indexed columns, a value other than 0/1 (2 would pack as another row's
    stratum, and 0.5 as 0).
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise DataError("features must be a 2-D matrix")
    try:
        cols = sorted(map(operator.index, feature_indices))
    except TypeError:
        raise DataError(
            f"feature indices must be integers, got {feature_indices!r}"
        ) from None
    d = features.shape[1]
    if cols and (cols[0] < 0 or cols[-1] >= d) or len(set(cols)) < len(cols):
        raise DataError(
            f"feature indices must be distinct columns of {d}-column data, "
            f"got {cols}"
        )
    if len(cols) > _MAX_KEY_BITS:
        raise DataError(f"cannot pack {len(cols)} features into stratum ids")
    bits = features[:, cols]
    uint8 = bits.dtype == np.uint8
    if not (bits.max(initial=0) <= 1 if uint8 else np.isin(bits, (0, 1)).all()):
        raise DataError("features must be 0/1 valued")
    weights = np.int64(1) << np.arange(len(cols), dtype=np.int64)
    if len(cols) <= 24:
        # float32 sums of distinct powers of two below 2**24 are exact, and
        # a float32 product is two to three times faster than an int64 one
        packed = bits.astype(np.float32) @ weights.astype(np.float32)
        return packed.astype(np.int64)
    return bits.astype(np.int64) @ weights
