"""Metric suite: per-class P/R/F1, weighted F1, accuracy, confusion matrices.

The 0/0 convention for precision, recall and F1 is 0.0; classes with no
true positive, whose three values are all 0, are flagged in the report.
Weighted F1 uses per-class support as weights.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, read_document
from .labeling import EpidemicClass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows = true class, columns = predicted class."""

    counts: tuple[tuple[int, ...], ...]
    class_order: tuple[EpidemicClass, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


@dataclass(frozen=True)
class ClassMetrics:
    epidemic_class: EpidemicClass
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    """A model's confusion matrix on the validation rows. Every metric is
    computed from the counts, so a report cannot disagree with them."""

    model_id: str
    confusion: ConfusionMatrix

    @property
    def class_order(self) -> tuple[EpidemicClass, ...]:
        return self.confusion.class_order

    @property
    def per_class(self) -> tuple[ClassMetrics, ...]:
        return class_prf(self.confusion)

    @property
    def weighted_f1(self) -> float:
        return weighted_f1(self.per_class)

    @property
    def accuracy(self) -> float:
        return accuracy(self.confusion)

    @property
    def zero_division(self) -> tuple[EpidemicClass, ...]:
        """Classes with no true positive: precision, recall and F1 are 0."""
        return tuple(cls for i, cls in enumerate(self.class_order)
                     if not self.confusion.counts[i][i])


def confusion_matrix(
    true: Sequence[EpidemicClass],
    pred: Sequence[EpidemicClass],
    class_order: Sequence[EpidemicClass],
) -> ConfusionMatrix:
    if len(true) != len(pred) or not true:
        raise InputError(
            f"label sequences must be equal-length and non-empty "
            f"({len(true)} true, {len(pred)} predicted)"
        )
    index = {cls: i for i, cls in enumerate(class_order)}
    counts = np.zeros((len(class_order), len(class_order)), dtype=np.int64)
    for t, p in zip(true, pred):
        if t not in index or p not in index:
            raise InputError(f"label outside the class order: {t.label}/{p.label}")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(
        counts=tuple(tuple(int(v) for v in row) for row in counts),
        class_order=tuple(class_order),
    )


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def class_prf(cm: ConfusionMatrix) -> tuple[ClassMetrics, ...]:
    """Per-class precision, recall, F1 and support; 0/0 yields 0.0."""
    counts = cm.as_array()
    col_sums = counts.sum(axis=0)
    row_sums = counts.sum(axis=1)
    out = []
    for i, cls in enumerate(cm.class_order):
        tp = float(counts[i, i])
        precision = _safe_div(tp, float(col_sums[i]))
        recall = _safe_div(tp, float(row_sums[i]))
        f1 = f1_score(precision, recall)
        out.append(ClassMetrics(
            epidemic_class=cls, precision=precision, recall=recall,
            f1=f1, support=int(row_sums[i]),
        ))
    return tuple(out)


def f1_score(precision: float, recall: float) -> float:
    return _safe_div(2.0 * precision * recall, precision + recall)


def weighted_f1(per_class: Sequence[ClassMetrics]) -> float:
    total = sum(m.support for m in per_class)
    if total == 0:
        raise InputError("total support is zero")
    return sum(m.support * m.f1 for m in per_class) / total


def accuracy(cm: ConfusionMatrix) -> float:
    counts = cm.as_array()
    total = counts.sum()
    if total == 0:
        raise InputError("empty confusion matrix")
    return float(np.trace(counts)) / float(total)


def normalize_confusion(cm: ConfusionMatrix) -> np.ndarray:
    """Each row divided by its sum; all-zero rows stay all-zero."""
    counts = cm.as_array().astype(np.float64)
    row_sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(row_sums > 0, counts / row_sums, 0.0)
    return normalized


def build_report(
    model_id: str,
    true: Sequence[EpidemicClass],
    pred: Sequence[EpidemicClass],
    class_order: Sequence[EpidemicClass],
) -> EvalReport:
    return EvalReport(model_id, confusion_matrix(true, pred, class_order))


REPORT_FORMAT_VERSION = 1


def _report_json(report: EvalReport) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "model_id": report.model_id,
        "class_order": [c.label for c in report.class_order],
        "per_class": [
            {
                "class": m.epidemic_class.label,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
            }
            for m in report.per_class
        ],
        "weighted_f1": report.weighted_f1,
        "accuracy": report.accuracy,
        "confusion": [list(row) for row in report.confusion.counts],
        "zero_division": [c.label for c in report.zero_division],
    }


def render_report(report: EvalReport, fmt: str) -> bytes:
    """Render as 4-decimal TSV (one row per class plus a weighted row)
    or as full-precision JSON that round-trips to an equal report."""
    if fmt == "json":
        return json.dumps(_report_json(report), sort_keys=True).encode("utf-8")
    if fmt == "tsv":
        per_class = report.per_class
        lines = [f"# model\t{report.model_id}"]
        lines.append("class\tprecision\trecall\tf1\tsupport")
        total = sum(m.support for m in per_class)
        for m in per_class:
            lines.append(
                f"{m.epidemic_class.label}\t{m.precision:.4f}\t{m.recall:.4f}"
                f"\t{m.f1:.4f}\t{m.support}"
            )
        w_p = sum(m.support * m.precision for m in per_class) / total
        w_r = sum(m.support * m.recall for m in per_class) / total
        lines.append(
            f"weighted\t{w_p:.4f}\t{w_r:.4f}\t{report.weighted_f1:.4f}\t{total}"
        )
        lines.append(f"# accuracy\t{report.accuracy:.4f}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise InputError(f"unknown report format {fmt!r}")


def render_confusion_csv(report: EvalReport) -> bytes:
    """Row-normalized confusion matrix as CSV, written next to reports."""
    normalized = normalize_confusion(report.confusion)
    labels = [c.label for c in report.class_order]
    lines = ["true\\pred," + ",".join(labels)]
    for label, row in zip(labels, normalized):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def report_from_json(data: bytes | str, origin: str = "<report>") -> EvalReport:
    """Parse a JSON-rendered report. The report is the one its confusion
    matrix gives: the file is accepted only if rendering that report gives
    it back (`errors.read_document`); otherwise DataError names `origin`
    and the keys that differ or are malformed."""
    return read_document(data, origin, "report", REPORT_FORMAT_VERSION,
                         _report_from_doc, _report_json, "the confusion matrix")


def _report_from_doc(doc: dict) -> EvalReport:
    """The report a JSON document's confusion matrix gives. A matrix that
    is not square over a non-empty class order, a count that is not a
    non-negative int, or a total of 0 is a ValueError."""
    class_order = tuple(EpidemicClass.from_label(t) for t in doc["class_order"])
    counts = tuple(tuple(row) for row in doc["confusion"])
    if not class_order or len(counts) != len(class_order) or any(
            len(row) != len(class_order) for row in counts):
        raise ValueError("confusion matrix is not square over the classes")
    if any(type(v) is not int or v < 0 for row in counts for v in row):
        raise ValueError("a confusion count is not a non-negative int")
    if not sum(map(sum, counts)):
        raise ValueError("confusion matrix is empty")
    return EvalReport(str(doc["model_id"]), ConfusionMatrix(counts, class_order))
