import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from episilver.errors import InputError
from episilver.evaluation import (
    accuracy,
    build_report,
    class_prf,
    confusion_matrix,
    f1_score,
    normalize_confusion,
    render_confusion_csv,
    render_report,
    report_from_json,
    weighted_f1,
)
from episilver.labeling import EpidemicClass as EC

A, B = EC.CHOLERA, EC.EBOLA
ORDER2 = (A, B)


class TestConfusionMatrix:
    def test_hand_count(self):
        cm = confusion_matrix([A, A, B], [A, B, B], ORDER2)
        assert cm.counts == ((1, 1), (0, 1))

    def test_perfect_prediction_is_diagonal(self):
        true = [A, A, B, B, B]
        cm = confusion_matrix(true, true, ORDER2)
        assert cm.counts == ((2, 0), (0, 3))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            confusion_matrix([A], [A, B], ORDER2)

    def test_unknown_label(self):
        with pytest.raises(InputError):
            confusion_matrix([EC.MERS], [A], ORDER2)

    def test_empty_input(self):
        with pytest.raises(InputError):
            confusion_matrix([], [], ORDER2)


class TestClassPrf:
    def test_hand_computation(self):
        cm = confusion_matrix([A, A, B], [A, B, B], ORDER2)
        metrics = {m.epidemic_class: m for m in class_prf(cm)}
        assert metrics[A].precision == 1.0
        assert metrics[A].recall == 0.5
        assert metrics[A].f1 == pytest.approx(2 / 3)
        assert metrics[A].support == 2

    def test_zero_division_convention(self):
        cm = confusion_matrix([A, A], [B, B], ORDER2)
        metrics = {m.epidemic_class: m for m in class_prf(cm)}
        assert metrics[A].precision == 0.0
        assert metrics[A].f1 == 0.0
        assert metrics[B].recall == 0.0

    @pytest.mark.parametrize("p,r,expected", [
        (0.9914, 0.972, 0.9816),
        (0.8852, 0.9879, 0.9337),
        (0.9997, 0.6995, 0.8231),
    ])
    def test_f1_formula_reproduces_reported_scores(self, p, r, expected):
        assert f1_score(p, r) == pytest.approx(expected, abs=5e-4)


class TestAggregates:
    def test_weighted_f1_hand_value(self):
        cm = confusion_matrix([A, A, A, B], [A, A, B, B], ORDER2)
        per_class = class_prf(cm)
        by = {m.epidemic_class: m for m in per_class}
        override = (
            by[A].__class__(A, by[A].precision, by[A].recall, 0.5, 3),
            by[B].__class__(B, by[B].precision, by[B].recall, 1.0, 1),
        )
        assert weighted_f1(override) == 0.625

    def test_weighted_f1_constant(self):
        cm = confusion_matrix([A, B], [A, B], ORDER2)
        assert weighted_f1(class_prf(cm)) == 1.0

    def test_weighted_f1_single_class_present(self):
        cm = confusion_matrix([A, A], [A, B], ORDER2)
        per_class = class_prf(cm)
        only = [m for m in per_class if m.support > 0]
        assert weighted_f1(per_class) == only[0].f1

    def test_weighted_f1_zero_support(self):
        per_class = class_prf(confusion_matrix([A], [A], ORDER2))
        stripped = tuple(m.__class__(m.epidemic_class, 0, 0, 0, 0) for m in per_class)
        with pytest.raises(InputError):
            weighted_f1(stripped)

    def test_accuracy_hand_value(self):
        cm = confusion_matrix([A, A, B], [A, B, B], ORDER2)
        assert accuracy(cm) == pytest.approx(2 / 3)

    def test_accuracy_diagonal_and_zero(self):
        perfect = confusion_matrix([A, B], [A, B], ORDER2)
        assert accuracy(perfect) == 1.0
        wrong = confusion_matrix([A, B], [B, A], ORDER2)
        assert accuracy(wrong) == 0.0


class TestNormalizeConfusion:
    def test_rows(self):
        cm = confusion_matrix([A, A, B], [A, B, B], ORDER2)
        assert np.allclose(normalize_confusion(cm), [[0.5, 0.5], [0.0, 1.0]])

    def test_diagonal_becomes_identity(self):
        cm = confusion_matrix([A, A, B], [A, A, B], ORDER2)
        assert np.allclose(normalize_confusion(cm), np.eye(2))

    def test_zero_row_stays_zero(self):
        cm = confusion_matrix([A, A], [A, A], ORDER2)
        normalized = normalize_confusion(cm)
        assert np.allclose(normalized[1], [0.0, 0.0])


class TestRenderReport:
    def _report(self):
        return build_report("demo", [A, A, B], [A, B, B], ORDER2)

    def test_tsv_layout(self):
        lines = render_report(self._report(), "tsv").decode().splitlines()
        data_rows = [l for l in lines if l and not l.startswith("#")]
        assert data_rows[0] == "class\tprecision\trecall\tf1\tsupport"
        assert len(data_rows) == 1 + 2 + 1  # header, two classes, weighted
        assert data_rows[-1].startswith("weighted\t")
        assert all(len(row.split("\t")) == 5 for row in data_rows)

    def test_tsv_four_decimal_rounding(self):
        lines = render_report(self._report(), "tsv").decode().splitlines()
        cholera_row = next(l for l in lines if l.startswith("cholera\t"))
        assert cholera_row.split("\t")[3] == "0.6667"

    def test_json_round_trip(self):
        report = self._report()
        assert report_from_json(render_report(report, "json")) == report

    def test_unknown_format(self):
        with pytest.raises(InputError):
            render_report(self._report(), "xml")

    def test_confusion_csv(self):
        lines = render_confusion_csv(self._report()).decode().splitlines()
        assert lines[0] == "true\\pred,cholera,ebola"
        first = [float(x) for x in lines[1].split(",")[1:]]
        assert first == [0.5, 0.5]


LABEL_POOL = [EC.CHOLERA, EC.EBOLA, EC.MERS, EC.SWINE_FLU, EC.NON_EPIDEMIC]


class TestMetricProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(LABEL_POOL), st.sampled_from(LABEL_POOL)),
        min_size=1, max_size=120,
    ))
    def test_randomized_invariants(self, pairs):
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        cm = confusion_matrix(true, pred, LABEL_POOL)
        per_class = class_prf(cm)
        acc = accuracy(cm)
        direct = sum(1 for t, p in pairs if t == p) / len(pairs)
        assert acc == pytest.approx(direct, abs=1e-12)
        assert sum(m.support for m in per_class) == len(pairs)
        normalized = normalize_confusion(cm)
        row_sums = normalized.sum(axis=1)
        counts = cm.as_array()
        for i in range(len(LABEL_POOL)):
            if counts[i].sum() > 0:
                assert abs(row_sums[i] - 1.0) <= 1e-9
            else:
                assert row_sums[i] == 0.0
        f1s = [m.f1 for m in per_class]
        w = weighted_f1(per_class)
        assert min(f1s) - 1e-12 <= w <= max(f1s) + 1e-12
        report = build_report("m", true, pred, LABEL_POOL)
        assert report_from_json(render_report(report, "json")) == report
        assert report.zero_division == tuple(
            cls for i, cls in enumerate(LABEL_POOL) if counts[i][i] == 0)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        pairs = [(rng.choice(LABEL_POOL), rng.choice(LABEL_POOL)) for _ in range(60)]
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        base = build_report("m", true, pred, LABEL_POOL)
        order = list(range(60))
        rng.shuffle(order)
        shuffled = build_report("m", [true[i] for i in order],
                                [pred[i] for i in order], LABEL_POOL)
        assert base == shuffled
