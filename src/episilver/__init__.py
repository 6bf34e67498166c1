"""episilver: silver-standard epidemic tweet datasets and classifiers.

A regex labeling heuristic turns raw tweet archives into noisily
labeled multi-class training data; classical text classifiers train on
TF-IDF features and are scored with per-class precision/recall/F1,
weighted F1, accuracy and confusion matrices.

The exports below load their module on first access (PEP 562), so
``import episilver`` loads no numeric package; numpy comes in with the
first name from ``evaluation``, ``features``, ``models`` or
``pipeline``, and scipy only when a linear trainer runs.
"""

import importlib

_EXPORTS = {
    "config": ("PipelineConfig",),
    "corpus": (
        "NormalizedDocument", "TweetRecord", "deduplicate", "filter_original",
        "ingest_files", "normalize_text", "parse_record",
    ),
    "errors": ("ConfigError", "DataError", "PipelineError", "TrainingError"),
    "evaluation": (
        "EvalReport", "accuracy", "build_report", "class_prf",
        "confusion_matrix", "normalize_confusion", "render_report",
        "weighted_f1",
    ),
    "features": ("CsrArrays", "TfIdfModel", "fit_tfidf", "tokenize", "transform"),
    "labeling": (
        "EpidemicClass", "LabeledExample", "LabelRule", "Ruleset",
        "SilverDataset", "build_silver_dataset",
        "compile_ruleset", "default_ruleset", "label_documents",
        "load_ruleset", "match_classes", "sample_negatives",
    ),
    "models": (
        "LinearModel", "TreeModel", "predict", "train_decision_tree",
        "train_linear_svm", "train_logistic",
    ),
    "pipeline": ("RunResult", "run_pipeline", "split_dataset"),
    "synth": ("SynthSpec", "synth_corpus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
