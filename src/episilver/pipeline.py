"""End-to-end orchestration: ingest through evaluation, with a manifest.

Every run writes a manifest recording the resolved configuration, a
hash of it, all derived seeds, per-stage counts and wall times, so any
reported number can be traced back to its inputs. The other files, and
the manifest less its timings, are byte-identical for one configuration.

The back half has one implementation per stage (`split_dataset`,
`fit_features`, `train_model`, `evaluate`); `run_pipeline` and the
`train` and `eval` subcommands call only these, and these call only the
public functions of `labeling`, `features` and `models`.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import evaluation, features, models
from .config import PipelineConfig, config_hash, derive_seed
from .corpus import ingest_files
from .errors import ConfigError, DataError, StratificationError, stage
from .labeling import (
    EpidemicClass,
    Ruleset,
    label_documents,
    load_ruleset,
    matched_words,
    write_dataset_tsv,
)


@dataclass
class RunResult:
    manifest: dict
    out_dir: Path
    reports: dict[str, evaluation.EvalReport] = field(default_factory=dict)

    @property
    def dataset_path(self) -> Path:
        return self.out_dir / "dataset.tsv"


def split_dataset(examples, ratio: float, master_seed: int):
    """Split examples by class; returns the train examples and the
    validation examples, each in dataset order. A generator seeded from
    the master seed shuffles each class's members in turn, classes in
    sorted order, and the first ceil(ratio * n_c) go to training: every
    class's train fraction is within one example of the ratio, and every
    class has a member in training, so a model's class order is the
    dataset's."""
    if not examples:
        raise DataError("empty dataset")
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio {ratio} outside (0, 1)")
    by_class: dict[EpidemicClass, list[int]] = {}
    for i, ex in enumerate(examples):
        by_class.setdefault(ex.label, []).append(i)
    for cls, members in by_class.items():
        if len(members) < 2:
            raise StratificationError(
                f"class {cls.label} has {len(members)} member(s); need at least 2")
    rng = random.Random(derive_seed(master_seed, "split"))
    in_train = [False] * len(examples)
    for cls in sorted(by_class):
        members = by_class[cls]
        rng.shuffle(members)
        for i in members[:math.ceil(ratio * len(members))]:
            in_train[i] = True
    if all(in_train):
        raise StratificationError(f"split ratio {ratio} leaves no validation "
                                  f"example of {len(examples)}")
    return ([ex for ex, t in zip(examples, in_train) if t],
            [ex for ex, t in zip(examples, in_train) if not t])


def fit_features(texts, mask: Ruleset | None, ratio: float, master_seed: int,
                 out_dir: Path):
    """Fit TF-IDF on the training texts, write tfidf.json with their split
    record into out_dir, and return the model and the training rows. With a
    ruleset (``--mask-keywords``), the tokens of its `matched_words` in the
    training texts stay out of the vocabulary."""
    masked = () if mask is None else {
        token for word in matched_words(mask, texts) for token in features.tokenize(word)}
    tfidf, X_train = features.fit_transform(texts, masked)
    features.save_tfidf(tfidf, out_dir / "tfidf.json",
                        features.split_record(texts, ratio, master_seed))
    return tfidf, X_train


def train_model(kind: str, X_train, y_train, master_seed: int,
                tfidf: features.TfIdfModel, out_dir: Path):
    """Train one model kind at the default hyperparameters, the tree's
    sampling seed derived from the master seed, and write model-<kind>.json,
    with the idf checksum of tfidf, the rows' feature model, into out_dir.
    A kind not in MODEL_KINDS is a ConfigError, raised before training."""
    if kind == "tree":
        model = models.train_decision_tree(
            X_train, y_train,
            models.TreeHyperparams(seed=derive_seed(master_seed, "tree")))
    elif kind == "logistic":
        model = models.train_logistic(X_train, y_train)
    elif kind == "svm":
        model = models.train_linear_svm(X_train, y_train)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    models.save_model(model, out_dir / f"model-{kind}.json", features.idf_checksum(tfidf))
    return model


def evaluate(model, X_val, y_val, out_dir: Path) -> evaluation.EvalReport:
    """Score the model on the validation rows over its class order and
    write report-<kind>.tsv, report-<kind>.json and confusion-<kind>.csv
    into out_dir, the kind being the model's."""
    report = evaluation.build_report(
        model.kind, y_val, models.predict(model, X_val), model.class_order)
    (out_dir / f"report-{model.kind}.tsv").write_bytes(
        evaluation.render_report(report, "tsv"))
    (out_dir / f"report-{model.kind}.json").write_bytes(
        evaluation.render_report(report, "json"))
    (out_dir / f"confusion-{model.kind}.csv").write_bytes(
        evaluation.render_confusion_csv(report))
    return report


@contextmanager
def _timed(name: str, timings: dict, key: str | None = None):
    """Run the block as stage `name` and store its wall time in timings
    under `key`, or under `name` when no key is given."""
    t0 = time.perf_counter()
    with stage(name):
        yield
    timings[key or name] = time.perf_counter() - t0


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute ingest -> label -> balance -> split -> features -> train
    -> evaluate, writing dataset, model, report and manifest files."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = config.master_seed
    seeds = {"master": seed,
             **{s: derive_seed(seed, s) for s in ("negatives", "split", "tree")}}
    timings: dict[str, float] = {}

    with stage("config"):
        ruleset = load_ruleset(config.ruleset_path)
    with _timed("ingest", timings):
        docs, stats = ingest_files(config.inputs, config.require_lang, config.threads)
    with _timed("label", timings):
        dataset, label_stats = label_documents(
            docs, ruleset, config.included_classes, config.policy, seeds["negatives"])
    del docs  # the dataset keeps the texts it needs; free the rest before training
    with _timed("balance", timings):
        write_dataset_tsv(dataset, out_dir / "dataset.tsv")
    with stage("split"):
        train, validation = split_dataset(dataset.examples, config.ratio, seed)
    with _timed("features", timings):
        tfidf, X_train = fit_features(
            [ex.text for ex in train], ruleset if config.mask_keywords else None,
            config.ratio, seed, out_dir)
        X_val = features.transform(tfidf, (ex.text for ex in validation))
    y_train, y_val = [ex.label for ex in train], [ex.label for ex in validation]

    convergence, reports = {}, {}
    for kind in config.model_kinds:
        with _timed("train", timings, f"train-{kind}"):
            model = train_model(kind, X_train, y_train, seed, tfidf, out_dir)
        convergence[kind] = {"classes": [c.label for c in model.class_order],
                             "iterations": getattr(model, "n_iter", None),
                             **{k: getattr(model, k, None) for k in
                                ("cg_products", "converged", "final_grad_norm")}}
        with _timed("evaluate", timings, f"eval-{kind}"):
            reports[kind] = evaluate(model, X_val, y_val, out_dir)

    manifest = {
        "config": config.as_dict(),
        "config_sha256": config_hash(config),
        "seeds": seeds,
        "stages": {
            "ingest": stats.as_dict(),
            "label": label_stats,
            "dataset": {
                "class_counts": {c.label: n for c, n in dataset.class_counts.items()},
                "total": dataset.total,
                "negatives_sampled": dataset.class_counts[EpidemicClass.NON_EPIDEMIC],
            },
            "split": {"train": len(train), "validation": len(validation),
                      "ratio": config.ratio},
            "features": {"vocabulary_size": tfidf.dim, "train_documents": tfidf.doc_count,
                         "masked_keywords": config.mask_keywords},
            "models": convergence,
            "eval": {kind: {"weighted_f1": r.weighted_f1, "accuracy": r.accuracy}
                     for kind, r in reports.items()},
        },
        "artifacts": {
            "dataset": "dataset.tsv", "tfidf": "tfidf.json",
            **{f"{name}-{kind}": f"{name}-{kind}.json"
               for kind in reports for name in ("model", "report")},
        },
        "timings": timings,
        "threads": config.threads,
    }
    with stage("manifest"):
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return RunResult(manifest, out_dir, reports)
