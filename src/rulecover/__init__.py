"""rulecover: greedy rule-conjunction learners with invariance filtering,
an exhaustive invariant-set baseline, a multi-environment simulator and a
reproducible experiment harness."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .data import (
    Conjunction,
    Dataset,
    FitReport,
    IterationRecord,
    Rule,
    StopReason,
    candidate_rules,
    load_dataset_csv,
    load_model_json,
    save_dataset_csv,
    save_model_json,
)
from .errors import ConfigError, DataError, InfeasibleError, RulecoverError
from .harness import (
    ExperimentGrid,
    IdentificationResult,
    derive_run_seed,
    precision_recall,
    run_identification,
    run_runtime_benchmark,
    summarize,
)
from .icp import IcpConfig, IcpReport, icp_report
from .icscm import IcscmConfig, icscm_fit, prune
from .scm import ScmConfig, scm_fit
from .simulator import GroundTruth, SimConfig, oracle_accuracy, save_simulation, simulate
from .stats import (
    TestResult,
    chi2_sf,
    conditional_gtest,
    independence_test,
    joint_strata,
)

__version__ = "0.1.0"

__all__ = [
    "Conjunction",
    "ConfigError",
    "DataError",
    "Dataset",
    "ExperimentGrid",
    "FitReport",
    "GroundTruth",
    "IcpConfig",
    "IcpReport",
    "IcscmConfig",
    "IdentificationResult",
    "InfeasibleError",
    "IterationRecord",
    "KERNEL_BACKEND",
    "Rule",
    "RulecoverError",
    "ScmConfig",
    "SimConfig",
    "StopReason",
    "TestResult",
    "candidate_rules",
    "chi2_sf",
    "conditional_gtest",
    "derive_run_seed",
    "icp_report",
    "icscm_fit",
    "independence_test",
    "joint_strata",
    "load_dataset_csv",
    "load_model_json",
    "oracle_accuracy",
    "precision_recall",
    "prune",
    "run_identification",
    "run_runtime_benchmark",
    "save_dataset_csv",
    "save_model_json",
    "save_simulation",
    "scm_fit",
    "simulate",
    "summarize",
]
