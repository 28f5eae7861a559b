"""Seeded generator for the discrete multi-environment benchmark network.

Two parent features drive the label through a noisy AND; a child feature
copies the label except when noise redirects it to the environment id, which
makes the child a better predictor of the label than the parents themselves;
distractor features are independent coin flips. The environment shifts the
parent marginals but never the labelling mechanism.

Randomness comes from numpy's Philox counter-based generator, so streams are
platform-stable and independent across harness seeds.
"""

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Conjunction, Dataset, Rule, save_dataset_csv, write_json
from .errors import ConfigError, _require_int_fields

# Per-environment P(parent_i = 1) used when no table is supplied: parent 1
# jumps 0.1 -> 0.5 across environments while parent 2 drops 0.5 -> 0.3.
DEFAULT_PARENT_PROBS = ((0.1, 0.5), (0.5, 0.3))


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
        _require_int_fields(
            self, n_envs=1, n_samples_per_env=1, n_distractors=0, seed=0
        )
        for name in ("eps_y", "eps_child", "eps_distractor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
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
        probs = tuple(tuple(float(p) for p in row) for row in probs)
        if len(probs) != self.n_envs:
            raise ConfigError(
                f"parent_probs has {len(probs)} rows for {self.n_envs} environments"
            )
        for row in probs:
            if len(row) != 2:
                raise ConfigError("each parent_probs row needs exactly two entries")
            if not all(0.0 <= p <= 1.0 for p in row):
                raise ConfigError(f"parent probabilities must lie in [0, 1], got {row}")
        object.__setattr__(self, "parent_probs", probs)


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
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_samples_per_env
    k = config.n_distractors
    feature_blocks = []
    label_blocks = []
    env_blocks = []
    for env in range(config.n_envs):
        p1, p2 = config.parent_probs[env]
        parent1 = rng.random(n) < p1
        parent2 = rng.random(n) < p2
        flip = rng.random(n) < config.eps_y
        redirect = rng.random(n) < config.eps_child
        distractors = rng.random((n, k)) < config.eps_distractor
        label = (parent1 & parent2) ^ flip
        child = np.where(redirect, min(env, 1), label)
        block = np.empty((n, k + 3), dtype=np.uint8)
        block[:, 0] = parent1
        block[:, 1] = parent2
        block[:, 2 : 2 + k] = distractors
        block[:, 2 + k] = child
        feature_blocks.append(block)
        label_blocks.append(label.astype(np.uint8))
        env_blocks.append(np.full(n, env, dtype=np.int64))

    names = (
        ["parent_1", "parent_2"]
        + [f"distractor_{i + 1}" for i in range(k)]
        + ["child"]
    )
    dataset = Dataset(
        features=np.concatenate(feature_blocks, axis=0),
        labels=np.concatenate(label_blocks),
        envs=np.concatenate(env_blocks),
        feature_names=tuple(names),
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
