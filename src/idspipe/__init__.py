"""Multi-class intrusion-detection pipeline on NSL-KDD-format data.

Stages: record ingestion and label granularities, supervised MDL
discretization, CFS/information-gain feature selection (including the
hybrid union selector), AdaBoost.M1 over discrete naive Bayes, and pooled
k-fold cross-validated per-class evaluation.
"""

import os

# no idspipe step calls BLAS, so numpy's OpenBLAS needs no worker threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (
    ClassifierConfig,
    CrossValConfig,
    DEFAULT_HYBRID_ALPHA,
    ExperimentConfig,
    PipelineConfig,
    SampleConfig,
    SelectionConfig,
)
from .classify import (
    EnsembleModel,
    NaiveBayesModel,
    nb_predict,
    train_adaboost_m1,
    train_naive_bayes,
)
from .data import (
    ATTACK23,
    CATEGORY5,
    Dataset,
    FeatureSchema,
    FoldPlan,
    NSLKDD_SCHEMA,
    map_labels,
    parse_records,
    reference_sample_counts,
    stratified_folds,
)
from .discretize import (
    CutPointList,
    DiscretizationModel,
    apply_discretizer,
    entropy,
    fit_discretizer,
    mdlp_cuts,
)
from .evaluate import (
    ConfusionMatrix,
    EvaluationReport,
    aggregate,
    cross_validate,
    per_class_metrics,
)
from .pipeline import reproduce_tables, run_experiment
from .select import (
    CorrelationCache,
    FeatureSubset,
    RankedFeatures,
    best_first_search,
    cfs_merit,
    gain_ratio,
    greedy_forward_search,
    info_gain,
    rank_threshold,
    symmetrical_uncertainty,
)

__version__ = "0.1.0"
