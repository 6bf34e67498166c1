"""episilver: silver-standard epidemic tweet datasets and classifiers.

A regex labeling heuristic turns raw tweet archives into noisily
labeled multi-class training data; classical text classifiers train on
TF-IDF features and are scored with per-class precision/recall/F1,
weighted F1, accuracy and confusion matrices.
"""

from .corpus import (
    NormalizedDocument,
    TweetRecord,
    deduplicate,
    filter_original,
    ingest_files,
    normalize_text,
    parse_record,
)
from .errors import ConfigError, DataError, PipelineError, TrainingError
from .evaluation import (
    EvalReport,
    accuracy,
    build_report,
    class_prf,
    confusion_matrix,
    normalize_confusion,
    render_report,
    weighted_f1,
)
# Ahead of .features, which loads scipy.sparse: without a bytecode cache,
# compiling models.py after scipy is loaded raises peak RSS by ~0.5 MB.
from .models import (
    DatasetSplit,
    LinearModel,
    TreeModel,
    predict,
    stratified_split,
    train_decision_tree,
    train_linear_svm,
    train_logistic,
)
from .features import TfIdfModel, fit_tfidf, tokenize, transform
from .labeling import (
    EpidemicClass,
    LabeledExample,
    LabelRule,
    Ruleset,
    SilverDataset,
    assign_label,
    build_silver_dataset,
    compile_ruleset,
    default_ruleset,
    label_documents,
    load_ruleset,
    match_classes,
    sample_negatives,
)
from .pipeline import PipelineConfig, RunResult, run_pipeline
from .synth import SynthSpec, synth_corpus

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DatasetSplit", "EpidemicClass", "EvalReport",
    "LabelRule", "LabeledExample", "LinearModel", "NormalizedDocument",
    "PipelineConfig", "PipelineError", "RunResult", "Ruleset", "SilverDataset",
    "SynthSpec", "TfIdfModel", "TrainingError", "TreeModel",
    "TweetRecord", "accuracy", "assign_label", "build_report",
    "build_silver_dataset", "class_prf", "compile_ruleset", "confusion_matrix",
    "deduplicate", "default_ruleset", "filter_original", "fit_tfidf",
    "ingest_files", "label_documents", "load_ruleset", "match_classes",
    "normalize_confusion", "normalize_text", "parse_record", "predict",
    "render_report", "run_pipeline", "sample_negatives", "stratified_split",
    "synth_corpus", "tokenize", "train_decision_tree", "train_linear_svm",
    "train_logistic", "transform", "weighted_f1",
]
