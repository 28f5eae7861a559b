"""Seeded generator for the discrete multi-environment benchmark network.

Two parent features drive the label through a noisy AND; a child feature
copies the label except when noise redirects it to the environment id, which
makes the child a better predictor of the label than the parents themselves;
distractor features are independent coin flips. The environment shifts the
parent marginals but never the labelling mechanism.

Randomness comes from numpy's Philox counter-based generator, so streams are
platform-stable and independent across harness seeds. A dataset's width,
``SimConfig.n_features``, is declared once, on the config, and read by
``simulate`` and by the harness's icp feasibility check.

``simulate`` allocates the dataset's arrays once and fills them in place,
drawing the distractors in row chunks of at most 512 KiB of float64, so its
peak memory is the dataset plus about that much at any size.
"""

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Conjunction, Dataset, Rule, save_dataset_csv, write_json
from .errors import ConfigError, _require_fields, _require_int, _require_real
from .errors import _require_sequence

# Per-environment P(parent_i = 1) used when no table is supplied: parent 1
# jumps 0.1 -> 0.5 across environments while parent 2 drops 0.5 -> 0.3.
DEFAULT_PARENT_PROBS = ((0.1, 0.5), (0.5, 0.3))

# float64 draws per distractor chunk: 2**16 doubles is 512 KiB
_DISTRACTOR_CHUNK_DOUBLES = 2**16


@dataclass(frozen=True)
class SimConfig:
    n_envs: int = 2
    n_samples_per_env: int = 10000
    n_distractors: int = 3
    eps_y: float = 0.05
    eps_child: float = 0.05
    eps_distractor: float = 0.5
    parent_probs: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        _require_fields(self, _require_int, "n_envs", "n_samples_per_env", minimum=1)
        _require_fields(self, _require_int, "n_distractors", "seed", minimum=0)
        unit = dict(low=0, high=1, closed=True)
        eps = ("eps_y", "eps_child", "eps_distractor")
        _require_fields(self, _require_real, *eps, **unit)
        if self.seed >= 2**64:
            raise ConfigError("seed must fit in 64 bits")
        probs = self.parent_probs
        if probs is None:
            if self.n_envs > len(DEFAULT_PARENT_PROBS):
                raise ConfigError(
                    f"no default parent probabilities for {self.n_envs} environments; "
                    "supply parent_probs with one row per environment"
                )
            probs = DEFAULT_PARENT_PROBS[: self.n_envs]
        probs = tuple(
            tuple(
                _require_real("parent_probs entry", p, **unit)
                for p in _require_sequence("parent_probs row", row)
            )
            for row in _require_sequence("parent_probs", probs)
        )
        if len(probs) != self.n_envs:
            raise ConfigError(
                f"parent_probs has {len(probs)} rows for {self.n_envs} environments"
            )
        for row in probs:
            if len(row) != 2:
                raise ConfigError("each parent_probs row needs exactly two entries")
        object.__setattr__(self, "parent_probs", probs)

    @property
    def n_features(self):
        """Columns of a simulated dataset: parents, distractors and child."""
        return self.n_distractors + 3


@dataclass(frozen=True)
class GroundTruth:
    """Which feature columns are causal parents of the label, which are
    unrelated distractors, and which is the label's child."""

    parent_indices: frozenset
    distractor_indices: frozenset
    child_index: int


def simulate(config):
    """Draw a dataset from the generative process.

    Per row in environment e: parents ~ Bernoulli(parent_probs[e]);
    label = (parent1 AND parent2) XOR Bernoulli(eps_y);
    child = label, except with probability eps_child it records min(e, 1)
    (clamped so the feature stays binary beyond two environments);
    each distractor ~ Bernoulli(eps_distractor), independent of everything.

    Column order: parent1, parent2, distractors..., child. Bit-identical
    output for identical configs.

    The uint8 features, labels and env ids are allocated once and each
    environment's rows are filled in place. Per environment the draws come in
    the order parent1, parent2, flip, redirect, then the distractors row by
    row, in chunks of ``_DISTRACTOR_CHUNK_DOUBLES // k`` rows (at least one),
    so the float64 draws held at once stay near 512 KiB whatever the size.
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_samples_per_env
    k = config.n_distractors
    m = config.n_envs * n
    features = np.empty((m, config.n_features), dtype=np.uint8)
    labels = np.empty(m, dtype=np.uint8)
    envs = np.repeat(np.arange(config.n_envs, dtype=np.int64), n)
    step = max(1, _DISTRACTOR_CHUNK_DOUBLES // max(k, 1))
    for env in range(config.n_envs):
        p1, p2 = config.parent_probs[env]
        rows = slice(env * n, (env + 1) * n)
        env_rows = features[rows]
        parent1 = rng.random(n) < p1
        parent2 = rng.random(n) < p2
        flip = rng.random(n) < config.eps_y
        redirect = rng.random(n) < config.eps_child
        for lo in range(0, n, step):
            block = env_rows[lo : lo + step, 2 : 2 + k]
            np.less(rng.random(block.shape), config.eps_distractor, out=block)
        label = (parent1 & parent2) ^ flip
        env_rows[:, 0] = parent1
        env_rows[:, 1] = parent2
        env_rows[:, 2 + k] = np.where(redirect, min(env, 1), label)
        labels[rows] = label

    names = (
        ["parent_1", "parent_2"]
        + [f"distractor_{i + 1}" for i in range(k)]
        + ["child"]
    )
    dataset = Dataset(
        features=features, labels=labels, envs=envs, feature_names=tuple(names)
    )
    truth = GroundTruth(
        parent_indices=frozenset({0, 1}),
        distractor_indices=frozenset(range(2, 2 + k)),
        child_index=2 + k,
    )
    return dataset, truth


def oracle_accuracy(dataset, truth):
    """(accuracy of the parents' AND, accuracy of the child copy) as label
    predictors; the generative process makes the child the better one."""

    def accuracy(columns):
        model = Conjunction(rules=tuple(Rule(j, 1) for j in sorted(columns)))
        return float((model.predict(dataset.features) == dataset.labels).mean())

    return accuracy(truth.parent_indices), accuracy({truth.child_index})


def save_simulation(dataset, truth, config, out_dir):
    """Write dataset.csv plus a ground_truth.json sidecar carrying the truth
    partition and the full config for provenance."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "dataset.csv"
    save_dataset_csv(dataset, csv_path)
    json_path = out_dir / "ground_truth.json"
    ground_truth = {
        "parent_indices": sorted(truth.parent_indices),
        "distractor_indices": sorted(truth.distractor_indices),
        "child_index": truth.child_index,
        "feature_names": list(dataset.feature_names),
    }
    write_json(json_path, {"ground_truth": ground_truth, "sim_config": asdict(config)})
    return csv_path, json_path
