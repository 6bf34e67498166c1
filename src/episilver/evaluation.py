"""Metric suite: per-class P/R/F1, weighted F1, accuracy, confusion matrices.

The 0/0 convention for precision, recall and F1 is 0.0; classes where
it fired are flagged in the report. Weighted F1 uses per-class support
as weights.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InputError
from .labeling import EpidemicClass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows = true class, columns = predicted class."""

    counts: tuple[tuple[int, ...], ...]
    class_order: tuple[EpidemicClass, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.as_array().sum())


@dataclass(frozen=True)
class ClassMetrics:
    epidemic_class: EpidemicClass
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    model_id: str
    class_order: tuple[EpidemicClass, ...]
    per_class: tuple[ClassMetrics, ...]
    weighted_f1: float
    accuracy: float
    confusion: ConfusionMatrix
    zero_division: tuple[EpidemicClass, ...]


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
    cm = confusion_matrix(true, pred, class_order)
    per_class = class_prf(cm)
    counts = cm.as_array()
    flagged = tuple(
        m.epidemic_class
        for i, m in enumerate(per_class)
        if counts[:, i].sum() == 0 or counts[i, :].sum() == 0
        or (m.precision + m.recall) == 0.0
    )
    return EvalReport(
        model_id=model_id,
        class_order=tuple(class_order),
        per_class=per_class,
        weighted_f1=weighted_f1(per_class),
        accuracy=accuracy(cm),
        confusion=cm,
        zero_division=flagged,
    )


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
        lines = [f"# model\t{report.model_id}"]
        lines.append("class\tprecision\trecall\tf1\tsupport")
        total = sum(m.support for m in report.per_class)
        for m in report.per_class:
            lines.append(
                f"{m.epidemic_class.label}\t{m.precision:.4f}\t{m.recall:.4f}"
                f"\t{m.f1:.4f}\t{m.support}"
            )
        w_p = sum(m.support * m.precision for m in report.per_class) / total
        w_r = sum(m.support * m.recall for m in report.per_class) / total
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
    """Parse a JSON-rendered report; invalid JSON, a missing key, a value
    of the wrong type or out of range, or an unknown class raises
    DataError naming `origin`."""
    try:
        doc = json.loads(data)
        if doc.get("format_version") != REPORT_FORMAT_VERSION:
            raise InputError(f"{origin}: unsupported report format version")
        return _report_from_doc(doc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            ConfigError) as exc:
        raise DataError(
            f"{origin}: malformed report: {type(exc).__name__}: {exc}"
        ) from exc


_REAL = (int, float)


def _checked(value, kinds: type | tuple[type, ...], low: float = -math.inf):
    """value, unless it is a bool, not of `kinds`, below `low` or not finite."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{value!r} is a {type(value).__name__}")
    if not low <= value < math.inf:
        raise ValueError(f"{value!r} is below {low} or not finite")
    return value


def _report_from_doc(doc: dict) -> EvalReport:
    """The report a JSON document holds. An empty class order, per-class
    rows out of the class order, a metric that is not a finite number, a
    count that is not a non-negative int, a total support of 0 or a
    confusion matrix that is not square over the classes is a ValueError
    or a TypeError."""
    class_order = tuple(EpidemicClass.from_label(t) for t in doc["class_order"])
    per_class = tuple(
        ClassMetrics(
            epidemic_class=EpidemicClass.from_label(m["class"]),
            precision=_checked(m["precision"], _REAL),
            recall=_checked(m["recall"], _REAL), f1=_checked(m["f1"], _REAL),
            support=_checked(m["support"], int, 0),
        )
        for m in doc["per_class"]
    )
    if tuple(m.epidemic_class for m in per_class) != class_order:
        raise ValueError("per-class rows do not follow the class order")
    if not sum(m.support for m in per_class):  # also for an empty class order
        raise ValueError("total support is zero")
    confusion = tuple(tuple(_checked(v, int, 0) for v in row)
                      for row in doc["confusion"])
    if len(confusion) != len(class_order) or any(
            len(row) != len(class_order) for row in confusion):
        raise ValueError("confusion matrix is not square over the classes")
    return EvalReport(
        model_id=doc["model_id"],
        class_order=class_order,
        per_class=per_class,
        weighted_f1=_checked(doc["weighted_f1"], _REAL),
        accuracy=_checked(doc["accuracy"], _REAL),
        confusion=ConfusionMatrix(counts=confusion, class_order=class_order),
        zero_division=tuple(
            EpidemicClass.from_label(t) for t in doc["zero_division"]
        ),
    )
