"""The paper's claim on the default simulator's population: icscm, pruning
and ICP recover exactly the causal parents, and scm takes the child first,
on a Dataset whose rows carry the simulator's expected counts."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from rulecover.data import Dataset, Rule, StopReason
from rulecover.icp import IcpConfig, icp_report
from rulecover.icscm import IcscmConfig, icscm_fit, prune
from rulecover.scm import ScmConfig, scm_fit
from rulecover.simulator import SimConfig

PARENTS = frozenset({0, 1})


def _population_dataset(xb):
    """``simulate(SimConfig(n_distractors=xb))``'s expected samples at
    40,000 * 2**xb per environment, each distinct row repeated by its count.
    The parent marginals are tenths and eps_y and eps_child twentieths, so
    with each distractor pattern at 2**-xb every count is an exact integer
    (40,000 = 10 * 10 * 20 * 20)."""
    config = SimConfig(n_distractors=xb)
    n = 40_000 * 2**xb
    eps_y, eps_child = Fraction(repr(config.eps_y)), Fraction(repr(config.eps_child))
    assert Fraction(repr(config.eps_distractor)) == Fraction(1, 2)
    rows, labels, envs, counts = [], [], [], []
    for env, probs in enumerate(config.parent_probs):
        p1, p2 = (Fraction(repr(p)) for p in probs)
        for x1, x2, flip, redirect in product((0, 1), repeat=4):
            label = (x1 & x2) ^ flip
            child = min(env, 1) if redirect else label
            count = Fraction(n, 2**xb)
            for p, bit in ((p1, x1), (p2, x2), (eps_y, flip), (eps_child, redirect)):
                count *= p if bit else 1 - p
            assert count.denominator == 1
            for pattern in product((0, 1), repeat=xb):
                rows.append((x1, x2, *pattern, child))
                labels.append(label)
                envs.append(env)
                counts.append(int(count))
    counts = np.array(counts)
    assert counts.sum() == config.n_envs * n
    return Dataset(
        features=np.repeat(np.array(rows, dtype=np.uint8), counts, axis=0),
        labels=np.repeat(np.array(labels, dtype=np.uint8), counts),
        envs=np.repeat(np.array(envs, dtype=np.int64), counts),
    )


@pytest.fixture(scope="module", params=range(4), ids=lambda xb: f"xb{xb}")
def population(request):
    return request.param, _population_dataset(request.param)


@pytest.mark.parametrize("method", ["chi2", "gtest"])
def test_icscm_selects_the_parents(population, method):
    _, dataset = population
    report = icscm_fit(dataset, IcscmConfig(test_method=method))
    assert report.selected_features == PARENTS
    assert report.stop_reason == StopReason.INVARIANCE_REACHED
    assert [step.leaf_p_value for step in report.per_iteration_log] == [1.0, 1.0]
    # pruning the unpruned model keeps both parents' rules
    unpruned = icscm_fit(dataset, IcscmConfig(test_method=method, prune=False))
    pruned = prune(unpruned.model, dataset, IcscmConfig().alpha)
    assert set(pruned.rules) == {Rule(0, 1), Rule(1, 1)}


def test_scm_takes_the_child_first(population):
    xb, dataset = population
    report = scm_fit(dataset, ScmConfig())
    assert report.model.rules[0] == Rule(xb + 2, 1)


@pytest.mark.parametrize("min_cell", [10, 0])
def test_icp_accepts_the_parents_without_the_child(population, min_cell):
    # the accepted subsets are exactly the parents with any distractors
    xb, dataset = population
    report = icp_report(dataset, IcpConfig(min_samples_per_cell=min_cell))
    assert report.selected == PARENTS
    distractors = range(2, 2 + xb)
    want = {
        PARENTS | set(extra)
        for size in range(xb + 1)
        for extra in combinations(distractors, size)
    }
    accepted = [test for test in report.tests if test.accepted]
    assert {frozenset(test.features) for test in accepted} == want
    assert len(accepted) == 2**xb
    assert all(test.p_value == 1.0 for test in accepted)
