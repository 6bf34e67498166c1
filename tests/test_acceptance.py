"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they print.

Criterion 1 audits the F1 formula against all 25 rows of the
published-score fixture. The decision-tree precision/recall columns are
recorded in the fixture as inconsistent: the tree's published accuracy
lies below its lowest recall, and its published weighted F1 lies below
the lowest harmonic mean of its P/R rows, although accuracy and weighted
F1 are support-weighted means of exactly those per-class values. So the
test asserts that every row of every other model is the harmonic mean of
its P/R, that the rows which disagree are exactly the five tree rows,
and that the two bounds are broken for the tree and hold for the others.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from episilver.errors import BalanceError
from episilver.evaluation import (
    accuracy,
    class_prf,
    confusion_matrix,
    f1_score,
    normalize_confusion,
    weighted_f1,
)
from episilver.features import fit_tfidf, transform
from episilver.labeling import EpidemicClass as EC
from episilver.labeling import SilverDataset, default_ruleset, match_classes
from episilver.models import (
    LinearHyperparams,
    logistic_loss_grad,
    softmax,
    squared_hinge_loss_grad,
    train_linear_svm,
    train_logistic,
)
from episilver.pipeline import PipelineConfig, run_pipeline
from episilver.synth import SynthSpec, write_corpus
from helpers import adversarial_strings, brute_match_classes, csr_rows
from reference_scores import (
    CLASSES,
    INCONSISTENT_PR_MODELS,
    INCONSISTENT_SUPPORT_MODELS,
    MODELS,
    REFERENCE_ACCURACY,
    REFERENCE_SCORES,
    REFERENCE_WEIGHTED_F1,
    SPOT_ANCHORS,
)


def record(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: F1 identity against the published score tables
# --------------------------------------------------------------------------

def test_criterion_1_f1_identity_spot_anchors():
    start = time.perf_counter()
    for model, cls, p, r, expected in SPOT_ANCHORS:
        got = f1_score(p, r)
        assert abs(got - expected) <= 5e-4, (model, cls, got, expected)
    elapsed = time.perf_counter() - start
    record("1 (spot anchors)", elapsed < 1.0, f"3 anchors, {elapsed:.3f}s")


def test_criterion_1_f1_identity_all_25_rows():
    start = time.perf_counter()
    bad = {}
    bound_faults = []
    for model in MODELS:
        harmonic = []
        for cls in CLASSES:
            p, r, published_f1 = REFERENCE_SCORES[model][cls]
            got = f1_score(p, r)
            harmonic.append(got)
            if abs(got - published_f1) > 5e-4:
                bad[model, cls] = f"{model}/{cls}: P/R give {got:.4f}, published {published_f1:.4f}"
        # Accuracy averages the per-class recalls and weighted F1 the
        # per-class F1s, so both lie within the range of what they average
        # unless the P/R columns belong to another classifier.
        recalls = [REFERENCE_SCORES[model][cls][1] for cls in CLASSES]
        inside = (min(recalls) <= REFERENCE_ACCURACY[model] <= max(recalls),
                  min(harmonic) <= REFERENCE_WEIGHTED_F1[model] <= max(harmonic))
        expected_inside = model not in INCONSISTENT_PR_MODELS
        if inside != (expected_inside, expected_inside):
            bound_faults.append(f"{model}: accuracy/weighted F1 within bounds {inside}")
    recorded = {(model, cls) for model in INCONSISTENT_PR_MODELS for cls in CLASSES}
    elapsed = time.perf_counter() - start
    detail = f"{25 - len(bad)}/25 rows consistent, {elapsed:.3f}s"
    if bad:
        detail += "; inconsistent: " + "; ".join(bad.values())
    if bound_faults:
        detail += "; bound check wrong: " + "; ".join(bound_faults)
    record("1 (all 25 rows)",
           bad.keys() == recorded and not bound_faults and elapsed < 1.0, detail)


SHARE_SLACK = 2e-4  # per identity; rounding moves each by at most about 1.4e-4


def share_lp(models, slack, objective=None, non_epidemic=None):
    """`scipy.optimize.linprog` over class shares s >= 0 with sum s = 1, in
    CLASSES order, under the identities of every model in models: accuracy
    = sum s_c R_c, weighted F1 = sum s_c F1_c and sum s_c R_c / P_c = 1,
    each within slack. non_epidemic, if given, fixes that class's share."""
    from scipy.optimize import linprog

    rows, bounds = [], []
    for model in models:
        p, r, f1 = (np.array([REFERENCE_SCORES[model][cls][k] for cls in CLASSES])
                    for k in range(3))
        for row, target in ((r, REFERENCE_ACCURACY[model]),
                            (f1, REFERENCE_WEIGHTED_F1[model]), (r / p, 1.0)):
            rows += [row, -row]
            bounds += [target + slack, slack - target]
    shares = [(0.0, None)] * len(CLASSES)
    if non_epidemic is not None:
        shares[CLASSES.index("non_epidemic")] = (non_epidemic, non_epidemic)
    return linprog(np.zeros(len(CLASSES)) if objective is None else objective,
                   A_ub=np.array(rows), b_ub=np.array(bounds),
                   A_eq=np.ones((1, len(CLASSES))), b_eq=[1.0], bounds=shares,
                   method="highs")


def test_criterion_1_class_shares_of_all_models():
    """Scored on one validation split, every model's published accuracy,
    weighted F1 and per-class columns fit one vector of class shares. The
    models that fit none are exactly the recorded ones; the rest share one,
    with the non_epidemic half that the balanced dataset gives."""
    def feasible(models, slack=SHARE_SLACK, **kwargs):
        return share_lp(models, slack, **kwargs).success

    recorded = set(INCONSISTENT_PR_MODELS) | set(INCONSISTENT_SUPPORT_MODELS)
    faults = [f"{model}: fits class shares {model in recorded}, recorded {model in recorded}"
              for model in MODELS if feasible([model]) == (model in recorded)]
    consistent = [model for model in MODELS if model not in recorded]
    if not feasible(consistent, non_epidemic=0.5):
        faults.append(f"{consistent} share no class shares with non_epidemic 0.5")
    if feasible(INCONSISTENT_SUPPORT_MODELS, 2e-3) or not feasible(
            INCONSISTENT_SUPPORT_MODELS, 3e-3):
        faults.append(f"{INCONSISTENT_SUPPORT_MODELS} fit at another slack than 3e-3")
    if feasible(INCONSISTENT_PR_MODELS, 0.1):
        faults.append(f"{INCONSISTENT_PR_MODELS} fit class shares at slack 0.1")
    record("1 (class shares)", not faults, "; ".join(faults))


# --------------------------------------------------------------------------
# criterion 2: dataset-balance identity at published scale
# --------------------------------------------------------------------------

def test_criterion_2_dataset_balance_identity():
    start = time.perf_counter()
    counts = {EC.CHOLERA: 18_375, EC.EBOLA: 441_035, EC.MERS: 8_993,
              EC.SWINE_FLU: 76_784}
    dataset = SilverDataset.from_counts(
        {**counts, EC.NON_EPIDEMIC: 545_187})
    ok = dataset.total == 1_090_374
    rejected = False
    try:
        SilverDataset.from_counts({**counts, EC.NON_EPIDEMIC: 545_186})
    except BalanceError:
        rejected = True
    elapsed = time.perf_counter() - start
    record("2", ok and rejected and elapsed < 1.0,
           f"total={dataset.total}, off-by-one rejected={rejected}, {elapsed:.3f}s")


# --------------------------------------------------------------------------
# criterion 3: labeling oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_3_labeling_oracle():
    ruleset = default_ruleset()
    disagreements = 0
    for text in adversarial_strings(seed=20_240_101, count=1000):
        if match_classes(ruleset, text) != brute_match_classes(text):
            disagreements += 1
    record("3", disagreements == 0,
           f"{disagreements} disagreements over 1000 strings")


# --------------------------------------------------------------------------
# criterion 4: numerical suite
# --------------------------------------------------------------------------

def _random_unit_sparse(rng: random.Random, n: int, dim: int):
    rows = []
    for _ in range(n):
        k = rng.randint(1, dim)
        idxs = sorted(rng.sample(range(dim), k))
        raw = [(i, rng.gauss(0.0, 1.0) or 0.3) for i in idxs]
        norm = math.sqrt(sum(v * v for _, v in raw))
        rows.append([(i, v / norm) for i, v in raw])
    return csr_rows(rows, dim)


def _fd(fun, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        e = np.zeros_like(theta)
        e[k] = h
        grad[k] = (fun(theta + e) - fun(theta - e)) / (2 * h)
    return grad


def _check_softmax(rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(50):
        scale = rng.uniform(0.1, 300.0)
        scores = rng.normal(scale=scale, size=(12, 5)).clip(-300, 300)
        p = softmax(scores)
        assert (p > 0).all()
        worst = max(worst, float(np.abs(p.sum(axis=1) - 1.0).max()))
    return worst


def _check_logistic_gradients(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(100):
        n, dim, n_classes = rng.randint(3, 10), rng.randint(2, 8), rng.randint(2, 4)
        mat = _random_unit_sparse(rng, n, dim)
        y = np.array([rng.randrange(n_classes) for _ in range(n)])
        W = np.array([[rng.gauss(0, 0.6) for _ in range(n_classes)]
                      for _ in range(dim)])
        b = np.array([rng.gauss(0, 0.6) for _ in range(n_classes)])
        _, gw, gb = logistic_loss_grad(W, b, mat, y, 1.0)[:3]
        analytic = np.concatenate([gw.ravel(), gb])
        theta = np.concatenate([W.ravel(), b])

        def f(t, mat=mat, y=y, dim=dim, n_classes=n_classes):
            return logistic_loss_grad(
                t[:dim * n_classes].reshape(dim, n_classes),
                t[dim * n_classes:], mat, y, 1.0)[0]

        fd = _fd(f, theta)
        worst = max(worst, float(
            np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)))
    return worst


def _check_hinge_gradients(rng: random.Random) -> float:
    worst = 0.0
    done = 0
    while done < 100:
        n, dim = rng.randint(3, 10), rng.randint(2, 8)
        mat = _random_unit_sparse(rng, n, dim)
        y_pm = np.array([rng.choice((-1.0, 1.0)) for _ in range(n)])
        w = np.array([rng.gauss(0, 0.8) for _ in range(dim)])
        b = rng.gauss(0, 0.8)
        if np.abs(1.0 - y_pm * (mat @ w + b)).min() < 1e-3:
            continue  # resample away from the hinge kink
        _, gw, gb = squared_hinge_loss_grad(w, b, mat, y_pm, 1.0)[:3]
        theta = np.append(w, b)

        def f(t, mat=mat, y_pm=y_pm, dim=dim):
            return squared_hinge_loss_grad(t[:dim], t[dim], mat, y_pm, 1.0)[0]

        fd = _fd(f, theta)
        analytic = np.append(gw, gb)
        worst = max(worst, float(
            np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)))
        done += 1
    return worst


def _check_monotone_losses(rng: random.Random) -> bool:
    X = _random_unit_sparse(rng, 30, 6)
    y = [EC(rng.randrange(3)) for _ in range(30)]
    logistic = train_logistic(X, y, LinearHyperparams(max_iter=80))
    svm = train_linear_svm(X, y, LinearHyperparams(max_iter=80))
    runs = logistic.loss_histories + svm.loss_histories
    return all(
        all(b <= a for a, b in zip(hist, hist[1:])) for hist in runs
    )


def _check_tfidf_norms(rng: random.Random) -> float:
    words = ["flu", "cold", "cough", "fever", "rest", "tea", "soup"]
    worst = 0.0
    for _ in range(100):
        docs = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
            for _ in range(rng.randint(1, 8))
        ]
        model = fit_tfidf(docs)
        query = " ".join(rng.choice(words + ["oov"]) for _ in range(rng.randint(1, 12)))
        vec = transform(model, [query])
        if len(vec.data):
            worst = max(worst, abs(math.sqrt(sum(v * v for v in vec.data)) - 1.0))
    return worst


def _check_tfidf_fixture() -> float:
    model = fit_tfidf(["flu flu cold", "cold"])
    idf_flu = math.log(3 / 2) + 1  # 1.405465 to six decimals
    worst = abs(model.idf[model.vocabulary["flu"]] - idf_flu)
    worst = max(worst, abs(model.idf[model.vocabulary["cold"]] - 1.0))
    row = transform(model, ["flu flu cold"])
    vec = dict(zip(row.indices.tolist(), row.data.tolist()))
    norm = math.sqrt((2 * idf_flu) ** 2 + 1.0)
    worst = max(worst, abs(vec[model.vocabulary["flu"]] - 2 * idf_flu / norm))
    worst = max(worst, abs(vec[model.vocabulary["cold"]] - 1.0 / norm))
    return worst


def test_criterion_4_numerical_suite():
    softmax_err = _check_softmax(np.random.default_rng(404))
    logistic_err = _check_logistic_gradients(random.Random(41))
    hinge_err = _check_hinge_gradients(random.Random(42))
    monotone = _check_monotone_losses(random.Random(43))
    norm_err = _check_tfidf_norms(random.Random(44))
    fixture_err = _check_tfidf_fixture()
    ok = (softmax_err <= 1e-9 and logistic_err <= 1e-5 and hinge_err <= 1e-5
          and monotone and norm_err <= 1e-9 and fixture_err < 5e-7)
    record("4", ok,
           f"softmax {softmax_err:.1e}, grads {logistic_err:.1e}/{hinge_err:.1e}, "
           f"monotone {monotone}, tfidf norm {norm_err:.1e}, fixture {fixture_err:.1e}")


# --------------------------------------------------------------------------
# criteria 5 and 6: end-to-end synthetic run, twice, with byte comparison
# --------------------------------------------------------------------------

SYNTH_SPEC = SynthSpec(
    class_counts={EC.CHOLERA: 900, EC.EBOLA: 1000, EC.MERS: 800,
                  EC.SWINE_FLU: 800, EC.NON_EPIDEMIC: 6500},
    noise_token_rate=0.20,
    retweet_rate=0.10,
    duplicate_rate=0.05,
    seed=1315,
)


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    corpus = base / "corpus.jsonl"
    start = time.perf_counter()
    n_records = write_corpus(SYNTH_SPEC, str(corpus))
    results = []
    elapsed = None
    for name in ("run-a", "run-b"):
        config = PipelineConfig(
            inputs=(str(corpus),), out_dir=str(base / name),
            master_seed=42, threads=1,
        )
        results.append(run_pipeline(config))
        if elapsed is None:
            elapsed = time.perf_counter() - start  # synth + first full run
    return {"n_records": n_records, "results": results, "elapsed": elapsed}


def test_criterion_5_end_to_end_synthetic_run(pipeline_runs):
    result = pipeline_runs["results"][0]
    elapsed = pipeline_runs["elapsed"]
    scores = {kind: rep.weighted_f1 for kind, rep in result.reports.items()}
    ok = (pipeline_runs["n_records"] == 10_000
          and scores["logistic"] >= 0.95
          and scores["svm"] >= 0.95
          and scores["tree"] >= 0.70
          and elapsed < 60.0)
    record("5", ok,
           f"weighted F1 logistic={scores['logistic']:.4f} svm={scores['svm']:.4f} "
           f"tree={scores['tree']:.4f}, {elapsed:.1f}s for 10000 docs")


def _manifest_less_timings(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_bytes())
    del manifest["timings"]
    return manifest


def test_criterion_6_byte_identical_artifacts(pipeline_runs):
    run_a, run_b = pipeline_runs["results"]
    names = ["dataset.tsv", "tfidf.json"]
    for kind in ("logistic", "svm", "tree"):
        names += [f"report-{kind}.tsv", f"report-{kind}.json",
                  f"confusion-{kind}.csv", f"model-{kind}.json"]
    differing = [
        name for name in names
        if (run_a.out_dir / name).read_bytes() != (run_b.out_dir / name).read_bytes()
    ]
    # the manifest, less its wall-clock timings
    names.append("manifest.json")
    if _manifest_less_timings(run_a.out_dir) != _manifest_less_timings(run_b.out_dir):
        differing.append("manifest.json")
    record("6", not differing,
           f"{len(names) - len(differing)}/{len(names)} files byte-identical"
           + (f"; differing: {differing}" if differing else ""))


# --------------------------------------------------------------------------
# criterion 7: metric property suite
# --------------------------------------------------------------------------

def test_criterion_7_metric_properties():
    rng = random.Random(777)
    pool = [EC.CHOLERA, EC.EBOLA, EC.MERS, EC.SWINE_FLU, EC.NON_EPIDEMIC]
    failures = []
    for trial in range(200):
        n = rng.randint(1, 150)
        true = [rng.choice(pool) for _ in range(n)]
        pred = [rng.choice(pool) for _ in range(n)]
        cm = confusion_matrix(true, pred, pool)
        per_class = class_prf(cm)
        direct = sum(1 for t, p in zip(true, pred) if t == p) / n
        if abs(accuracy(cm) - direct) > 1e-12:
            failures.append(f"trial {trial}: accuracy != mean correctness")
        if sum(m.support for m in per_class) != n:
            failures.append(f"trial {trial}: supports do not sum to n")
        normalized = normalize_confusion(cm)
        counts = cm.as_array()
        for i in range(len(pool)):
            if counts[i].sum() > 0 and abs(normalized[i].sum() - 1.0) > 1e-9:
                failures.append(f"trial {trial}: row {i} sum off")
        f1s = [m.f1 for m in per_class]
        w = weighted_f1(per_class)
        if not (min(f1s) - 1e-12 <= w <= max(f1s) + 1e-12):
            failures.append(f"trial {trial}: weighted F1 outside [min, max]")
    record("7", not failures,
           f"200 random multisets; {len(failures)} violations"
           + (f": {failures[:3]}" if failures else ""))
