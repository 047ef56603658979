"""Multi-class intrusion-detection pipeline on NSL-KDD-format data.

Stages: record ingestion and label granularities, supervised MDL
discretization, CFS/information-gain feature selection (including the
hybrid union selector), AdaBoost.M1 over discrete naive Bayes, and pooled
k-fold cross-validated per-class evaluation.

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562), so a process loads
only the stages it uses.
"""

import importlib
import os

# no idspipe step calls BLAS, so numpy's OpenBLAS needs no worker threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "config": (
            "ATTACK23", "CATEGORY5", "ClassifierConfig", "CrossValConfig",
            "DEFAULT_HYBRID_ALPHA", "ExperimentConfig", "PipelineConfig", "SampleConfig",
            "SelectionConfig",
        ),
        "classify": (
            "EnsembleModel", "NaiveBayesModel", "train_adaboost_m1", "train_naive_bayes",
        ),
        "data": (
            "Dataset", "FeatureSchema", "FoldPlan", "NSLKDD_SCHEMA", "map_labels",
            "parse_records", "reference_sample_counts", "stratified_folds",
        ),
        "discretize": (
            "CutPointList", "DiscretizationModel", "apply_discretizer", "entropy",
            "fit_discretizer", "mdlp_cuts",
        ),
        "evaluate": ("ConfusionMatrix", "EvaluationReport", "aggregate", "per_class_metrics"),
        "pipeline": ("reproduce_tables", "run_experiment"),
        "select": (
            "CorrelationCache", "FeatureSubset", "RankedFeatures", "best_first_search",
            "cfs_merit", "gain_ratio", "greedy_forward_search", "info_gain", "rank_threshold",
            "symmetrical_uncertainty",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
