"""Peak memory of the data paths, read with tracemalloc at the shape of the
benchmark's wide fits (2 environments x 10,000 rows, 203 features). These are
allocation sizes, not timings, so machine load does not move them."""

import tracemalloc

import pytest

from rulecover.data import Dataset, load_dataset_csv, save_dataset_csv
from rulecover.icscm import IcscmConfig, icscm_fit
from rulecover.simulator import SimConfig, simulate

MiB = 2**20
_WIDE = SimConfig(n_distractors=200, n_samples_per_env=10000, seed=0)


def _peak(fn, *args):
    """(``fn(*args)``, the most bytes allocated at once during the call and not
    freed before it)."""
    # warm-up: lazy numpy imports allocate once per process, not per call
    fn(*args)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def _nbytes(dataset):
    return dataset.features.nbytes + dataset.labels.nbytes + dataset.envs.nbytes


@pytest.fixture(scope="module")
def wide():
    return simulate(_WIDE)[0]


@pytest.fixture(scope="module")
def wide_csv(wide, tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "wide.csv"
    save_dataset_csv(wide, path)
    return path


def test_simulate_holds_little_beyond_the_dataset():
    (dataset, _), peak = _peak(simulate, _WIDE)
    assert peak <= 1.25 * _nbytes(dataset) + MiB


def test_save_dataset_csv_holds_a_few_chunks(wide, wide_csv):
    _, peak = _peak(save_dataset_csv, wide, wide_csv.with_name("again.csv"))
    assert peak <= 3 * MiB


def test_load_dataset_csv_holds_the_file_the_dataset_and_a_few_chunks(wide_csv):
    dataset, peak = _peak(load_dataset_csv, wide_csv)
    assert peak <= wide_csv.stat().st_size + _nbytes(dataset) + 4 * MiB


def test_dataset_copies_no_array_it_can_keep(wide):
    features, labels, envs = (a.copy() for a in (wide.features, wide.labels, wide.envs))
    dataset, peak = _peak(Dataset, features, labels, envs)
    assert dataset.features is features
    assert peak < MiB // 2


def test_first_fit_on_a_wide_dataset_holds_less_than_its_features(wide):
    # the first fit packs the columns, an eighth of the features, and keeps
    # them on the Dataset; each call gets a fresh Dataset, so both pack
    arrays = (wide.features, wide.labels, wide.envs)
    datasets = iter([Dataset(*(a.copy() for a in arrays)) for _ in range(2)])
    _, peak = _peak(lambda: icscm_fit(next(datasets), IcscmConfig()))
    assert peak < wide.features.nbytes
