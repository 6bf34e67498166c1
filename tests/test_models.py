import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import sparse

import episilver
from episilver.errors import (
    ConfigError,
    DataError,
    DegenerateLabelsError,
    ShapeError,
    StratificationError,
)
from episilver.features import CsrArrays
from episilver.labeling import EpidemicClass as EC
from episilver.labeling import LabeledExample
from episilver.models import (
    LinearHyperparams,
    LinearModel,
    TreeHyperparams,
    _linear_scores,
    entropy_bits,
    load_model,
    logistic_loss_grad,
    predict,
    save_model,
    softmax,
    squared_hinge_loss_grad,
    train_decision_tree,
    train_linear_svm,
    train_logistic,
)
from episilver.pipeline import split_dataset
from helpers import csr_rows


def unit(i):
    return [(i, 1.0)]


def random_sparse(rng, n, dim):
    rows = []
    for _ in range(n):
        k = rng.randint(1, dim)
        idxs = sorted(rng.sample(range(dim), k))
        raw = [(i, rng.gauss(0.0, 1.0) or 0.3) for i in idxs]
        norm = math.sqrt(sum(v * v for _, v in raw))
        rows.append([(i, v / norm) for i, v in raw])
    return csr_rows(rows, dim)


def split_indices(labels, ratio, seed):
    """The dataset indices of split_dataset's train and validation sides."""
    examples = [LabeledExample(str(i), f"text {i}", label) for i, label in enumerate(labels)]
    train, validation = split_dataset(examples, ratio, seed)
    return [int(ex.id) for ex in train], [int(ex.id) for ex in validation]


class TestStratifiedSplit:
    """`pipeline.split_dataset`, the split that the models train and are
    scored on."""

    def test_per_class_fractions(self):
        labels = [EC.CHOLERA] * 100 + [EC.EBOLA] * 20
        train, validation = split_indices(labels, 0.75, seed=1)
        train_labels = [labels[i] for i in train]
        assert train_labels.count(EC.CHOLERA) == 75
        assert train_labels.count(EC.EBOLA) == 15
        assert sorted(train + validation) == list(range(120))

    def test_deterministic(self):
        labels = [EC.MERS] * 9 + [EC.NON_EPIDEMIC] * 11
        assert split_indices(labels, 0.6, 7) == split_indices(labels, 0.6, 7)

    def test_single_member_class_rejected(self):
        with pytest.raises(StratificationError):
            split_indices([EC.MERS, EC.EBOLA, EC.EBOLA], 0.75, 0)

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            split_indices([EC.MERS] * 4, 1.0, 0)

    def test_errors_in_order(self):
        """Empty dataset, then the ratio, then a class too small to split,
        then an empty validation side."""
        with pytest.raises(DataError, match="empty dataset"):
            split_indices([], 2.0, 0)
        with pytest.raises(ConfigError):
            split_indices([EC.MERS], 0.0, 0)
        with pytest.raises(StratificationError, match="class mers has 1 member"):
            split_indices([EC.MERS, EC.EBOLA, EC.EBOLA], 0.75, 0)
        with pytest.raises(StratificationError, match="leaves no validation"):
            split_indices([EC.MERS, EC.MERS, EC.EBOLA, EC.EBOLA], 0.75, 0)

    @given(
        st.lists(st.sampled_from([EC.CHOLERA, EC.EBOLA, EC.NON_EPIDEMIC]),
                 min_size=6, max_size=60),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_invariants(self, labels, ratio, seed):
        counts = {c: labels.count(c) for c in set(labels)}
        assume(all(n >= 2 for n in counts.values()))
        # split_dataset refuses a split that leaves no validation example
        assume(any(math.ceil(ratio * n) < n for n in counts.values()))
        train, validation = split_indices(labels, ratio, seed)
        assert train == sorted(train) and validation == sorted(validation)
        assert set(train) & set(validation) == set()
        assert sorted(train + validation) == list(range(len(labels)))
        for cls, n in counts.items():
            got = sum(1 for i in train if labels[i] is cls)
            assert abs(got - ratio * n) < 1.0


class TestSoftmax:
    def test_uniform_at_zero(self):
        p = softmax(np.zeros((3, 5)))
        assert np.allclose(p, 0.2)

    @given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 10_000))
    def test_rows_are_distributions(self, n_classes, n_rows, seed):
        rng = np.random.default_rng(seed)
        # gaps capped below ~745 so exp() stays representable: beyond that
        # float64 positivity is unattainable for any softmax implementation
        scores = rng.normal(scale=200.0, size=(n_rows, n_classes)).clip(-300, 300)
        p = softmax(scores)
        assert (p > 0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9

    @given(st.integers(0, 10_000))
    def test_sum_stable_even_at_extreme_scores(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=5000.0, size=(4, 5))
        p = softmax(scores)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
        assert (p >= 0).all()


def finite_difference(fun, theta, h=1e-5):
    """Central differences of fun along each coordinate, one row per
    coordinate: the gradient of a scalar fun, or the derivatives of a
    vector fun (row k approximates H e_k when fun is a gradient)."""
    return np.array([(fun(theta + e) - fun(theta - e)) / (2 * h)
                     for e in h * np.eye(len(theta))])


class TestGradients:
    def test_logistic_matches_finite_differences(self):
        rng = random.Random(6)
        n, dim, n_classes = 6, 4, 3
        mat = random_sparse(rng, n, dim)
        y = np.array([rng.randrange(n_classes) for _ in range(n)])
        W = np.array([[rng.gauss(0, 0.5) for _ in range(n_classes)]
                      for _ in range(dim)])
        b = np.array([rng.gauss(0, 0.5) for _ in range(n_classes)])
        loss, gw, gb = logistic_loss_grad(W, b, mat, y, 1.0)[:3]
        analytic = np.concatenate([gw.ravel(), gb])
        theta = np.concatenate([W.ravel(), b])

        def f(t):
            return logistic_loss_grad(
                t[:dim * n_classes].reshape(dim, n_classes),
                t[dim * n_classes:], mat, y, 1.0)[0]

        fd = finite_difference(f, theta)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5

    def test_squared_hinge_matches_finite_differences_off_kink(self):
        rng = random.Random(11)
        for _ in range(20):
            n, dim = rng.randint(3, 8), rng.randint(2, 6)
            mat = random_sparse(rng, n, dim)
            y_pm = np.array([rng.choice((-1.0, 1.0)) for _ in range(n)])
            w = np.array([rng.gauss(0, 0.8) for _ in range(dim)])
            b = rng.gauss(0, 0.8)
            margins = mat @ w + b
            if np.abs(1.0 - y_pm * margins).min() < 1e-3:
                continue  # too close to the hinge kink for finite differences
            loss, gw, gb = squared_hinge_loss_grad(w, b, mat, y_pm, 1.0)[:3]
            theta = np.append(w, b)

            def f(t):
                return squared_hinge_loss_grad(t[:dim], t[dim], mat, y_pm, 1.0)[0]

            fd = finite_difference(f, theta)
            analytic = np.append(gw, gb)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5


class TestHessianProducts:
    """Each Hessian-vector product against central differences of the
    analytic gradient, at random points."""

    def test_logistic_matches_gradient_differences(self):
        rng = random.Random(7)
        for _ in range(10):
            n, dim, n_classes = rng.randint(3, 8), rng.randint(2, 5), rng.randint(2, 4)
            mat = random_sparse(rng, n, dim)
            y = np.array([rng.randrange(n_classes) for _ in range(n)])
            theta = np.array([rng.gauss(0, 0.8)
                              for _ in range((dim + 1) * n_classes)])
            split = dim * n_classes

            def grad(t):
                _, gw, gb = logistic_loss_grad(
                    t[:split].reshape(dim, n_classes), t[split:], mat, y, 0.7)[:3]
                return np.concatenate([gw.ravel(), gb])

            hv = logistic_loss_grad(
                theta[:split].reshape(dim, n_classes), theta[split:], mat, y, 0.7)[3]

            def product(v):
                hw, hb = hv(v[:split].reshape(dim, n_classes), v[split:])
                return np.concatenate([hw.ravel(), hb])

            fd = finite_difference(grad, theta)
            analytic = np.array([product(e) for e in np.eye(len(theta))])
            assert np.linalg.norm(fd - analytic) <= 1e-6 * np.linalg.norm(fd)

    def test_squared_hinge_matches_gradient_differences_off_kink(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(40):
            n, dim = rng.randint(3, 8), rng.randint(2, 6)
            mat = random_sparse(rng, n, dim)
            y_pm = np.array([rng.choice((-1.0, 1.0)) for _ in range(n)])
            w = np.array([rng.gauss(0, 0.8) for _ in range(dim)])
            b = rng.gauss(0, 0.8)
            if np.abs(1.0 - y_pm * (mat @ w + b)).min() < 1e-3:
                continue  # too close to the hinge kink for finite differences
            theta = np.append(w, b)

            def grad(t):
                _, gw, gb = squared_hinge_loss_grad(t[:dim], t[dim], mat, y_pm, 0.7)[:3]
                return np.append(gw, gb)

            hv = squared_hinge_loss_grad(w, b, mat, y_pm, 0.7)[3]
            fd = finite_difference(grad, theta)
            analytic = np.array([np.append(*hv(e[:dim], e[dim]))
                                 for e in np.eye(dim + 1)])
            assert np.linalg.norm(fd - analytic) <= 1e-6 * np.linalg.norm(fd)
            checked += 1
        assert checked >= 20


TOY_X = csr_rows([unit(0), unit(1)], 2)
TOY_Y = [EC.CHOLERA, EC.EBOLA]


class TestLogistic:
    def test_separable_toy(self):
        model = train_logistic(TOY_X, TOY_Y)
        assert predict(model, TOY_X) == TOY_Y

    def test_zero_iterations_gives_uniform_probabilities(self):
        X = csr_rows([unit(i % 3) for i in range(10)], 3)
        y = [EC(i % 5) for i in range(10)]
        model = train_logistic(X, y, LinearHyperparams(max_iter=0))
        probs = softmax(X @ model.weights + model.bias)
        assert np.allclose(probs, 0.2)

    def test_loss_history_non_increasing(self):
        rng = random.Random(3)
        X = random_sparse(rng, 12, 5)
        y = [EC(rng.randrange(3)) for _ in range(12)]
        model = train_logistic(X, y, LinearHyperparams(max_iter=60))
        (hist,) = model.loss_histories
        assert len(hist) >= 2
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            train_logistic(TOY_X, [EC.MERS, EC.MERS])


@pytest.mark.parametrize("train", [train_logistic, train_linear_svm, train_decision_tree],
                         ids=["logistic", "svm", "tree"])
@pytest.mark.parametrize("X, y", [(csr_rows([], 1), []),
                                  (csr_rows([unit(0), unit(0), []], 1), [EC.MERS, EC.FLU])],
                         ids=["empty", "more-rows-than-labels"])
def test_bad_training_input_rejected(train, X, y):
    with pytest.raises(DataError):
        train(X, y)


@pytest.mark.parametrize("train", [train_logistic, train_linear_svm, train_decision_tree],
                         ids=["logistic", "svm", "tree"])
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_feature_value_rejected(train, value):
    """One non-finite value gives the linear trainers a non-finite loss,
    and the tree a split at the midpoint of 1 and inf, which sends the
    inf row left and which no model file can hold."""
    X = CsrArrays(np.array([1.0, value, 0.5]), np.array([0, 0, 1], dtype=np.int32),
                  np.array([0, 1, 2, 3], dtype=np.int32), (3, 2))
    with pytest.raises(DataError, match="not finite"):
        train(X, [EC.MERS, EC.FLU, EC.MERS])


class TestLinearSvm:
    def test_separable_toy(self):
        model = train_linear_svm(TOY_X, TOY_Y)
        assert predict(model, TOY_X) == TOY_Y

    def test_identical_features_collapse_to_majority(self):
        X = csr_rows([unit(0)] * 5, 1)
        y = [EC.FLU, EC.FLU, EC.FLU, EC.NON_EPIDEMIC, EC.NON_EPIDEMIC]
        model = train_linear_svm(X, y)
        assert predict(model, X) == [EC.FLU] * 5

    def test_per_class_loss_histories_non_increasing(self):
        rng = random.Random(4)
        X = random_sparse(rng, 10, 4)
        y = [EC(rng.randrange(2)) for _ in range(10)]
        model = train_linear_svm(X, y, LinearHyperparams(max_iter=40))
        assert len(model.loss_histories) == 2  # one run per class
        for hist in model.loss_histories:
            assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestConvergence:
    """A seeded problem that plain gradient descent leaves short of tol
    within max_iter; the gradient norm is recomputed at the returned
    weights rather than taken from the solver."""

    HP = LinearHyperparams(max_iter=200)

    @staticmethod
    def problem():
        rng = random.Random(5)
        X = random_sparse(rng, 500, 80)
        y = [EC(rng.randrange(5)) for _ in range(500)]
        return X, y

    def test_logistic_reaches_tol(self):
        X, y = self.problem()
        model = train_logistic(X, y, self.HP)
        index = {cls: i for i, cls in enumerate(model.class_order)}
        y_idx = np.array([index[label] for label in y])
        _, gw, gb = logistic_loss_grad(
            model.weights, model.bias, X, y_idx, self.HP.strength)[:3]
        gnorm = math.hypot(np.linalg.norm(gw), np.linalg.norm(gb))
        assert gnorm <= self.HP.tol
        assert model.converged
        assert model.final_grad_norm == pytest.approx(gnorm)
        assert model.n_iter <= self.HP.max_iter // 2

    def test_svm_reaches_tol_in_every_class(self):
        X, y = self.problem()
        model = train_linear_svm(X, y, self.HP)
        gnorms = []
        for c, cls in enumerate(model.class_order):
            y_pm = np.array([1.0 if label is cls else -1.0 for label in y])
            _, gw, gb = squared_hinge_loss_grad(
                model.weights[:, c], model.bias[c], X, y_pm, self.HP.strength)[:3]
            gnorms.append(math.hypot(np.linalg.norm(gw), gb))
        assert max(gnorms) <= self.HP.tol
        assert model.converged
        assert model.final_grad_norm == pytest.approx(max(gnorms))
        assert all(len(h) - 1 <= self.HP.max_iter // 2
                   for h in model.loss_histories)

    @pytest.mark.parametrize("train", [train_logistic, train_linear_svm])
    def test_zero_iterations_not_converged(self, train):
        X, y = self.problem()
        model = train(X, y, LinearHyperparams(max_iter=0))
        assert model.n_iter == 0
        assert not model.converged
        assert model.final_grad_norm > model.hyperparams.tol

    def test_convergence_survives_save_and_load(self, tmp_path):
        X, y = self.problem()
        model = train_linear_svm(X, y, LinearHyperparams(max_iter=3))
        save_model(model, tmp_path / "svm.json", "ab" * 32)
        loaded, _ = load_model(tmp_path / "svm.json")
        assert (loaded.n_iter, loaded.converged, loaded.final_grad_norm) == (
            model.n_iter, model.converged, model.final_grad_norm)
        assert not loaded.converged
        assert loaded.cg_products == model.cg_products > 0
        assert loaded.loss_histories == model.loss_histories
        assert all(2 <= len(h) <= 4 for h in loaded.loss_histories)


# Trains both linear models on a problem whose solver vectors have more
# than 10,000 entries (where OpenBLAS starts to thread dot products) and
# prints the SHA-256 of each saved model.
TRAIN_AND_HASH = """
import hashlib, random, sys, tempfile
from pathlib import Path
from episilver.labeling import EpidemicClass as EC
from episilver.models import save_model, train_linear_svm, train_logistic
from helpers import csr_rows
rng = random.Random(5)
dim = 12_000
rows, y = [], []
for _ in range(400):
    cls = rng.randrange(3)
    cols = sorted(rng.sample(range(dim), 30))
    rows.append([(c, rng.random() + (c % 3 == cls)) for c in cols])
    y.append(EC(cls))
X = csr_rows(rows, dim)
with tempfile.TemporaryDirectory() as d:
    for train in (train_logistic, train_linear_svm):
        save_model(train(X, y), Path(d) / "m.json", "0" * 64)
        print(hashlib.sha256((Path(d) / "m.json").read_bytes()).hexdigest())
"""


def train_and_hash(threads: str) -> list[str]:
    """The digests TRAIN_AND_HASH prints, run with `threads` BLAS threads."""
    tests = Path(__file__).resolve().parent
    src = Path(episilver.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)]),
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", TRAIN_AND_HASH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_linear_models_do_not_depend_on_blas_threads():
    outputs = [train_and_hash(threads) for threads in ("1", "2")]
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def test_saved_linear_bytes_pinned():
    """The SHA-256 of each file TRAIN_AND_HASH saves, pinned while each
    Hessian product still computed X W + b apart from the loss."""
    assert train_and_hash("1") == [
        "e6e2f5cb23c08f84c7f4c2d80f49087264ab6990921b84296b8b163e363fb767",
        "93bc46d638775880dff9dcc2c0efde95b933d0faf302d226e022002427170ee7",
    ]


class TestDecisionTree:
    def test_entropy_of_even_binary_node(self):
        assert entropy_bits(np.array([50, 50])) == 1.0

    def test_single_feature_perfect_split(self):
        X = csr_rows([unit(0)] * 4 + [[]] * 4, 1)
        y = [EC.FLU] * 4 + [EC.NON_EPIDEMIC] * 4
        model = train_decision_tree(X, y)
        assert predict(model, X) == y
        assert len(model.nodes) == 3  # root plus two leaves

    def test_pure_node_yields_single_leaf(self):
        X = csr_rows([unit(0), unit(1)], 2)
        y = [EC.MERS, EC.MERS]
        with pytest.raises(DegenerateLabelsError):
            train_decision_tree(X, y)
        # pure subsets inside a real problem still stop immediately
        X = csr_rows([unit(0)] * 3 + [unit(1)] * 3, 2)
        y = [EC.MERS] * 3 + [EC.SARS] * 3
        model = train_decision_tree(X, y)
        leaves = [n for n in model.nodes if n.is_leaf]
        assert len(leaves) == 2

    def test_majority_tie_breaks_to_lowest_class_index(self):
        X = csr_rows([[]] * 4, 1)
        y = [EC.SARS, EC.SARS, EC.EBOLA, EC.EBOLA]
        model = train_decision_tree(X, y)
        assert predict(model, csr_rows([[]], 1)) == [EC.EBOLA]

    def test_deterministic_given_seed(self):
        rng = random.Random(9)
        X = random_sparse(rng, 30, 10)
        y = [EC(rng.randrange(3)) for _ in range(30)]
        a = train_decision_tree(X, y, TreeHyperparams(seed=5))
        b = train_decision_tree(X, y, TreeHyperparams(seed=5))
        assert a.nodes == b.nodes

    def test_depth_limit_and_path_consistency(self):
        rng = random.Random(13)
        X = random_sparse(rng, 60, 6)
        y = [EC(rng.randrange(4)) for _ in range(60)]
        model = train_decision_tree(X, y, TreeHyperparams(max_depth=150))

        def walk(node_id, depth):
            node = model.nodes[node_id]
            if node.is_leaf:
                assert depth <= 150
                return
            walk(node_id + 1, depth + 1)
            walk(node.right, depth + 1)

        walk(0, 0)
        # every training sample routes to a leaf that agrees with each test,
        # and that leaf's class is the one predict gives the row
        predicted = predict(model, X)
        for r in range(X.shape[0]):
            row = X.getrow(r)
            values = dict(zip(row.indices.tolist(), row.data.tolist()))
            i, node = 0, model.nodes[0]
            while not node.is_leaf:
                x = values.get(node.feature, 0.0)
                i = i + 1 if x <= node.threshold else node.right
                node = model.nodes[i]
            assert model.class_order[node.leaf_class] == predicted[r]

    def test_shallow_depth_cap(self):
        rng = random.Random(21)
        X = random_sparse(rng, 40, 5)
        y = [EC(rng.randrange(4)) for _ in range(40)]
        model = train_decision_tree(X, y, TreeHyperparams(max_depth=1))

        def depth(node_id):
            node = model.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(depth(node_id + 1), depth(node.right))

        assert depth(0) <= 1


class TestPredict:
    def test_zero_weights_tie_break_to_first_class(self):
        X = csr_rows([unit(i % 3) for i in range(6)], 3)
        y = [EC(i % 5) for i in range(6)]
        model = train_logistic(X, y, LinearHyperparams(max_iter=0))
        assert predict(model, X) == [model.class_order[0]] * 6

    def test_shape_error(self):
        model = train_logistic(TOY_X, TOY_Y)
        with pytest.raises(ShapeError):
            predict(model, csr_rows([unit(0)], 5))

    @given(st.integers(0, 1000), st.sampled_from([0.5, 2.0, 8.0, 64.0]))
    def test_score_scaling_leaves_argmax_unchanged(self, seed, scale):
        rng = random.Random(seed)
        X = random_sparse(rng, 8, 4)
        y = [EC(rng.randrange(3)) for _ in range(8)]
        model = train_logistic(X, y, LinearHyperparams(max_iter=10))
        scaled = train_logistic(X, y, LinearHyperparams(max_iter=10))
        scaled.weights = model.weights * scale  # powers of two: exact scaling
        scaled.bias = model.bias * scale
        # an empty row ties every score
        X_query = sparse.vstack([X, csr_rows([[]], 4)], format="csr")
        assert predict(model, X_query) == predict(scaled, X_query)

    @given(st.data())
    def test_scores_are_the_scipy_product_bit_for_bit(self, data):
        """The numpy scores over the CSR arrays are the bytes of scipy's
        X @ W + b, on rows that are empty, hold only stored zeros, or list
        their columns out of order or twice."""
        dim = data.draw(st.integers(1, 8))
        n_classes = data.draw(st.integers(2, 5))
        value = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))
        rows = data.draw(st.lists(
            st.one_of(st.just([]),
                      st.lists(st.tuples(st.integers(0, dim - 1), st.just(0.0)),
                               min_size=1, max_size=3),
                      st.lists(st.tuples(st.integers(0, dim - 1), value),
                               max_size=2 * dim)),
            max_size=12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        model = LinearModel(
            kind="logistic",
            weights=rng.standard_normal((dim, n_classes))
            * 10.0 ** rng.integers(-3, 4, (dim, n_classes)),
            bias=rng.standard_normal(n_classes),
            class_order=tuple(EC)[:n_classes], hyperparams=LinearHyperparams(),
            dim=dim)
        X = csr_rows(rows, dim)
        expected = np.asarray(X @ model.weights + model.bias)
        arrays = CsrArrays(X.data, X.indices, X.indptr, X.shape)
        for given_X in (arrays, X):
            got = _linear_scores(model, given_X)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert predict(model, given_X) == [
                model.class_order[c] for c in expected.argmax(axis=1)]


class TestPersistence:
    def test_linear_round_trip(self, tmp_path):
        rng = random.Random(17)
        X = random_sparse(rng, 15, 6)
        y = [EC(rng.randrange(3)) for _ in range(15)]
        model = train_linear_svm(X, y, LinearHyperparams(max_iter=30))
        path = tmp_path / "model.json"
        save_model(model, path, "cafe" * 16)
        loaded, checksum = load_model(path)
        assert checksum == "cafe" * 16
        assert loaded.kind == "svm"
        assert loaded.class_order == model.class_order
        assert predict(loaded, X) == predict(model, X)

    @pytest.mark.parametrize("edit", [
        lambda doc: "{not json",
        lambda doc: {k: v for k, v in doc.items() if k != "classes"},
        lambda doc: [doc],
        lambda doc: {**doc, "dim": "many"},
        lambda doc: {**doc, "tfidf_sha256": 7},
        lambda doc: {**doc, "bias": doc["bias"][:-1]},
        lambda doc: {**doc, "weights": [row[:-1] for row in doc["weights"]]},
        lambda doc: {**doc, "classes": ["plague", "mers", "ebola"]},
        lambda doc: {**doc, "dim": float(doc["dim"])},
        lambda doc: {**doc, "dim": str(doc["dim"])},
        lambda doc: "[" * 100_000,
    ], ids=["invalid-json", "no-classes", "not-an-object", "dim-not-int",
            "checksum-not-str", "short-bias", "short-weights", "unknown-class",
            "float-dim", "string-dim", "nested-too-deep"])
    def test_malformed_linear_file_is_data_error(self, tmp_path, edit):
        rng = random.Random(19)
        X = random_sparse(rng, 9, 4)
        y = [EC(i % 3) for i in range(9)]
        path = tmp_path / "model.json"
        save_model(train_logistic(X, y, LinearHyperparams(max_iter=2)), path, "0" * 64)
        doc = edit(json.loads(path.read_text()))
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)

    def test_tree_with_backward_link_is_data_error(self, tmp_path):
        X = csr_rows([unit(0)] * 4 + [[]] * 4, 1)
        y = [EC.FLU] * 4 + [EC.NON_EPIDEMIC] * 4
        path = tmp_path / "tree.json"
        save_model(train_decision_tree(X, y), path, "0" * 64)
        doc = json.loads(path.read_text())
        doc["nodes"][0]["right"] = 0  # routing would never reach a leaf
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)

    def test_tree_round_trip(self, tmp_path):
        rng = random.Random(18)
        X = random_sparse(rng, 20, 5)
        y = [EC(rng.randrange(3)) for _ in range(20)]
        model = train_decision_tree(X, y, TreeHyperparams(seed=2))
        path = tmp_path / "tree.json"
        save_model(model, path, "beef" * 16)
        loaded, _ = load_model(path)
        assert loaded.nodes == model.nodes
        assert predict(loaded, X) == predict(model, X)
