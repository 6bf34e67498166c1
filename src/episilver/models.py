"""Classifiers over the CSR arrays that `features.transform` returns,
taken as they are.

All three trainers are deterministic. The linear models start from zero
and take truncated Newton steps (`_newton`) on one objective callable,
`logistic_loss_grad` or `squared_hinge_loss_grad`, which gives the loss,
the gradient and the Hessian-vector product of a point from one X W + b.
Conjugate gradient on those products solves H d = -g until the residual
is at most 0.1 |g| min(1, |g|), and Armijo backtracking from t = 1
accepts each step, so the loss history never increases. For the squared
hinge this is L2-SVM-MFN (Keerthi & DeCoste 2005), for the multinomial
loss the Newton method of LIBLINEAR (Lin, Weng & Keerthi 2008) with a
line search in place of the trust region. They report whether the
gradient norm reached the tolerance. The tree isolates its randomness in
per-node feature sampling driven by one seed. The solvers' dot products
do not depend on the BLAS thread count. That makes every reported number
exactly reproducible.

The tree reads the rows as the columns that `_columns` builds, in
training and routing alike. The split search reads only the stored
entries of the sampled columns: one sort per node covers all its sampled
features, with each feature's implicit zeros counted as one block, and
`predict` routes all rows through the tree together, one column per node.

Only the linear trainers load scipy: each wraps its input in one
`scipy.sparse.csr_matrix`, without a copy. The tree and `predict` read
the CSR arrays with numpy, so neither loads scipy.

Objectives (summed over samples, weights penalized, bias free):
  logistic:      sum_i -log softmax(x_i W + b)[y_i]  +  ||W||^2 / (2 s)
  squared hinge: sum_i max(0, 1 - y_i (x_i w + b))^2 +  ||w||^2 / (2 s)
where s is the regularization strength (higher s = weaker penalty).
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    DataError,
    DegenerateLabelsError,
    DivergenceError,
    ShapeError,
    read_document,
)
from .features import CsrArrays
from .labeling import EpidemicClass

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 80
MAX_CG_STEPS = 100  # Hessian-vector products per Newton step, at most
GAIN_EPSILON = 1e-12


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large scores."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def logistic_loss_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    X,
    y_idx: np.ndarray,
    strength: float,
) -> tuple[float, np.ndarray, np.ndarray, Callable]:
    """Summed multinomial cross-entropy + L2 at (weights, bias); returns
    (loss, gW, gb, hv), hv: (V_W, v_b) -> H (V_W, v_b) the Hessian product
    at the same point. With P = softmax(XW + b) and Z = X V_W + v_b,
    M = P*Z - P*rowsum(P*Z); the product is (X'M + V_W / s, colsum(M))."""
    n = X.shape[0]
    scores = X @ weights + bias
    row_max = scores.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(scores - row_max).sum(axis=1))
    loss = float((lse - scores[np.arange(n), y_idx]).sum())
    loss += 0.5 / strength * float((weights * weights).sum())
    probs = np.exp(scores - lse[:, None])
    probs[np.arange(n), y_idx] -= 1.0
    grad_w = np.asarray(X.T @ probs) + weights / strength
    grad_b = probs.sum(axis=0)
    p = softmax(scores)

    def hv(vw: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pz = p * (X @ vw + vb)
        m = pz - p * pz.sum(axis=1, keepdims=True)
        return np.asarray(X.T @ m) + vw / strength, m.sum(axis=0)
    return loss, grad_w, grad_b, hv


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-D arrays. einsum sums in one thread, so the
    result does not depend on the BLAS thread count as `a @ b` does."""
    return float(np.einsum("i,i->", a, b))


def squared_hinge_loss_grad(
    w: np.ndarray,
    b: float,
    X,
    y_pm: np.ndarray,
    strength: float,
) -> tuple[float, np.ndarray, float, Callable]:
    """Summed squared hinge + L2 for one binary problem (labels +-1) at
    (w, b); returns (loss, gw, gb, hv), hv: (v_w, v_b) -> H (v_w, v_b) the
    generalized Hessian product at the same point (Keerthi & DeCoste
    2005). With A the rows of positive slack and z = 2 (X_A v_w + v_b),
    the product is (X_A'z + v_w / s, sum(z))."""
    margins = X @ w + b
    slack = np.maximum(0.0, 1.0 - y_pm * margins)
    loss = _dot(slack, slack) + 0.5 / strength * _dot(w, w)
    coeff = -2.0 * slack * y_pm
    grad_w = np.asarray(X.T @ coeff) + w / strength
    grad_b = float(coeff.sum())
    active = X[slack > 0.0]

    def hv(vw: np.ndarray, vb: float) -> tuple[np.ndarray, float]:
        z = 2.0 * (active @ vw + vb)
        return np.asarray(active.T @ z) + vw / strength, float(z.sum())
    return loss, grad_w, grad_b, hv


def _newton(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray, Callable]],
    theta: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, list[float], float, int]:
    """Truncated Newton steps with Armijo backtracking line search.

    `objective(theta)` evaluates the problem once at theta and returns
    the loss, the gradient g and v -> Hv, H the Hessian there
    (generalized, for the squared hinge). Each step solves H d = -g by
    conjugate gradient from d = 0 with the product of the current point,
    the one its accepted evaluation returned. CG stops once the residual
    is <= 0.1 |g| min(1, |g|), on p'Hp <= 0, or after MAX_CG_STEPS
    products; d falls back to -g when it is not a descent direction.
    Backtracking from t = 1 accepts the first step with
    f(theta + t d) <= f(theta) + c t g'd, so the recorded loss history is
    non-increasing by construction. Stops at max_iter Newton steps, at
    gradient norm <= tol, or when no acceptable step exists: none in
    MAX_BACKTRACKS trials, or a trial that rounds to theta. Returns
    (theta, loss history, final gradient norm, Hessian-vector products);
    the history holds one loss more than the Newton steps.
    """
    loss, grad, hess = objective(theta)
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite initial loss {loss}")
    history = [loss]
    gnorm = math.sqrt(_dot(grad, grad))
    products = 0
    for _ in range(max_iter):
        if gnorm <= tol:
            break
        direction, used = _conjugate_gradient(hess, grad, gnorm)
        del hess  # free it during the line search: a trial brings its own
        products += used
        slope = _dot(grad, direction)
        if not slope < 0.0:
            direction, slope = -grad, -gnorm * gnorm
        step, accepted = 1.0, False
        for _ in range(MAX_BACKTRACKS):
            trial = theta + step * direction
            if np.array_equal(trial, theta):  # the step no longer moves theta
                break
            trial_loss, trial_grad, trial_hess = objective(trial)
            if accepted := (math.isfinite(trial_loss)
                            and trial_loss <= loss + ARMIJO_C * step * slope):
                break
            step *= 0.5
        if not accepted:  # no acceptable step
            break
        theta, loss, grad, hess = trial, trial_loss, trial_grad, trial_hess
        gnorm = math.sqrt(_dot(grad, grad))
        history.append(loss)
    return theta, history, gnorm, products


def _conjugate_gradient(
    hess: Callable[[np.ndarray], np.ndarray], grad: np.ndarray, gnorm: float
) -> tuple[np.ndarray, int]:
    """Approximate solution d of H d = -g from d = 0, and the number of
    Hessian-vector products taken (see `_newton` for the stops)."""
    d = np.zeros_like(grad)
    r = -grad
    p = r.copy()
    rr = gnorm * gnorm
    stop = 0.1 * gnorm * min(1.0, gnorm)
    for k in range(1, MAX_CG_STEPS + 1):
        hp = hess(p)
        curvature = _dot(p, hp)
        if not curvature > 0.0:
            return d, k
        alpha = rr / curvature
        d += alpha * p
        r -= alpha * hp
        rr_next = _dot(r, r)
        if math.sqrt(rr_next) <= stop:
            return d, k
        p = r + (rr_next / rr) * p
        rr = rr_next
    return d, MAX_CG_STEPS


@dataclass(frozen=True, slots=True)
class LinearHyperparams:
    strength: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-4


@dataclass
class LinearModel:
    """A trained linear model and its convergence record. `n_iter` and
    `converged` are derived from the record, not stored beside it."""

    kind: str  # "logistic" or "svm"
    weights: np.ndarray  # (dim, n_classes)
    bias: np.ndarray  # (n_classes,)
    class_order: tuple[EpidemicClass, ...]
    hyperparams: LinearHyperparams
    dim: int
    cg_products: int = 0  # Hessian-vector products; for one-vs-rest, summed
    # final gradient norm; for one-vs-rest, the largest over the classes
    final_grad_norm: float = math.inf
    # one history per optimization run: a single run for the multinomial
    # objective, one per class for one-vs-rest
    loss_histories: tuple[tuple[float, ...], ...] = field(
        default=(), repr=False, compare=False)

    @property
    def n_iter(self) -> int:
        """Newton steps; for one-vs-rest, summed over the classes."""
        return sum(len(h) - 1 for h in self.loss_histories)

    @property
    def converged(self) -> bool:
        """Gradient norm reached tol; for one-vs-rest, in every class's run."""
        return self.final_grad_norm <= self.hyperparams.tol


def _class_setup(
    X: CsrArrays, y: Sequence[EpidemicClass]
) -> tuple[tuple[EpidemicClass, ...], np.ndarray]:
    """Sorted classes and each label's index in them; DataError unless X
    has one row per label and at least one, and only finite values."""
    if X.shape[0] == 0 or X.shape[0] != len(y):
        raise DataError(f"bad training input: {X.shape[0]} rows, {len(y)} labels")
    if not np.isfinite(X.data).all():
        raise DataError("bad training input: a feature value is not finite")
    order = tuple(sorted(set(y)))
    if len(order) < 2:
        raise DegenerateLabelsError(
            f"need at least 2 distinct classes, got {len(order)}"
        )
    index = {cls: i for i, cls in enumerate(order)}
    return order, np.array([index[label] for label in y], dtype=np.intp)


def _training_matrix(X: CsrArrays):
    """X as a scipy CSR matrix over its own arrays, not copied."""
    from scipy import sparse

    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def _unpack(theta: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) of a point packed as (W.ravel(), b), W of shape (dim, k)."""
    k = len(theta) // (dim + 1)
    return theta[: dim * k].reshape(dim, k), theta[dim * k:]


def _linear_model(kind: str, runs: list, class_order: tuple[EpidemicClass, ...],
                  hp: LinearHyperparams, dim: int) -> LinearModel:
    """The model of `_newton` runs, each over a point packed as `_unpack`
    reads it for the next block of classes: one run for all the classes,
    or one per class for one-vs-rest."""
    thetas, histories, gnorms, products = zip(*runs)
    weights, bias = zip(*(_unpack(theta, dim) for theta in thetas))
    return LinearModel(
        kind=kind,
        weights=np.hstack(weights),
        bias=np.concatenate(bias),
        class_order=class_order,
        hyperparams=hp,
        dim=dim,
        cg_products=sum(products),
        final_grad_norm=max(gnorms),
        loss_histories=tuple(map(tuple, histories)),
    )


def train_logistic(
    X: CsrArrays,
    y: Sequence[EpidemicClass],
    hyperparams: LinearHyperparams | None = None,
) -> LinearModel:
    """Multinomial (softmax) logistic regression, zero-initialized."""
    hp = hyperparams or LinearHyperparams()
    class_order, y_idx = _class_setup(X, y)
    X = _training_matrix(X)
    dim = X.shape[1]

    def objective(theta: np.ndarray):
        loss, gw, gb, hv = logistic_loss_grad(
            *_unpack(theta, dim), X, y_idx, hp.strength)
        return loss, np.append(gw, gb), lambda v: np.append(*hv(*_unpack(v, dim)))

    theta0 = np.zeros((dim + 1) * len(class_order))
    run = _newton(objective, theta0, hp.max_iter, hp.tol)
    return _linear_model("logistic", [run], class_order, hp, dim)


def train_linear_svm(
    X: CsrArrays,
    y: Sequence[EpidemicClass],
    hyperparams: LinearHyperparams | None = None,
) -> LinearModel:
    """One-vs-rest squared-hinge linear SVM; prediction is argmax margin."""
    hp = hyperparams or LinearHyperparams()
    class_order, y_idx = _class_setup(X, y)
    X = _training_matrix(X)
    dim = X.shape[1]
    runs = []
    for c in range(len(class_order)):
        y_pm = np.where(y_idx == c, 1.0, -1.0)

        def objective(theta: np.ndarray):
            loss, gw, gb, hv = squared_hinge_loss_grad(
                theta[:dim], theta[dim], X, y_pm, hp.strength)
            return loss, np.append(gw, gb), lambda v: np.append(*hv(v[:dim], v[dim]))

        runs.append(_newton(objective, np.zeros(dim + 1), hp.max_iter, hp.tol))
    return _linear_model("svm", runs, class_order, hp, dim)


@dataclass(frozen=True, slots=True)
class TreeHyperparams:
    max_depth: int = 150
    seed: int = 0


@dataclass(frozen=True, slots=True)
class TreeNode:
    """Internal node when leaf_class < 0, else a leaf. Nodes are numbered
    in preorder, so an internal node's left child is the next node (id + 1)
    and only its right child is stored."""

    feature: int = -1
    threshold: float = 0.0
    right: int = -1
    leaf_class: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.leaf_class >= 0


@dataclass
class TreeModel:
    kind: ClassVar[str] = "tree"
    nodes: tuple[TreeNode, ...]
    class_order: tuple[EpidemicClass, ...]
    hyperparams: TreeHyperparams
    dim: int


def entropy_bits(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _row_entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    p = counts / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def _feature_splits(
    mat,
    features: np.ndarray,
    rows: np.ndarray,
    y_idx: np.ndarray,
    counts: np.ndarray,
    parent_entropy: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Best (gain, threshold) of each of `features` at the node that holds
    the sorted sample `rows`, for all features in one pass. The gain is
    -inf where the node has a single value of the feature.

    `mat` holds the columns as `_columns` builds them, so `mat.shape[1]`
    is the row count; `counts` are the node's class counts. Only stored
    entries are sorted. A feature's rows with no entry form one zero
    block, which enters the sort as one entry of value 0 that carries the
    block's class counts: the node's minus those of the feature's entries
    (Breiman et al. 1984). Candidate thresholds are midpoints between
    consecutive distinct values; ties keep the lowest threshold. The
    class counts on each side of a cut are the integers that sorting the
    feature's dense values over the node gives, and the gain expression
    is the same, so the floats match that search bit for bit.
    """
    n, n_classes, k = len(rows), len(counts), len(features)
    starts = mat.indptr[features]
    lengths = mat.indptr[features + 1] - starts
    feat = np.repeat(np.arange(k), lengths)
    # positions of the features' entries in mat.indices, feature by feature
    pos = np.arange(lengths.sum()) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)
    in_node = np.zeros(mat.shape[1], dtype=bool)
    in_node[rows] = True
    keep = in_node[mat.indices[pos]]
    feat, pos = feat[keep], pos[keep]
    classes = y_idx[mat.indices[pos]]
    stored = np.bincount(feat * n_classes + classes, minlength=k * n_classes)
    zero_counts = counts - stored.reshape(k, n_classes)
    blocks = np.flatnonzero(zero_counts.sum(axis=1))
    feat = np.concatenate([feat, blocks])
    values = np.concatenate([mat.data[pos], np.zeros(len(blocks))])
    weights = np.zeros((len(feat), n_classes), dtype=np.int64)
    weights[np.arange(len(classes)), classes] = 1
    weights[len(classes):] = zero_counts[blocks]
    order = np.lexsort((values, feat))
    feat, values = feat[order], values[order]
    # each feature's entries, zero block included, sum to the node's
    # counts, so feature j's running counts start from j * counts
    cum = weights[order].cumsum(axis=0)
    cut = np.flatnonzero((feat[1:] == feat[:-1]) & (values[1:] != values[:-1]))
    cut_feat = feat[cut]
    left_counts = cum[cut] - np.outer(cut_feat, counts)
    left = left_counts.astype(np.float64)
    right = (counts - left_counts).astype(np.float64)
    n_left = left_counts.sum(axis=1).astype(np.float64)
    n_right = n - n_left
    child = (n_left * _row_entropy(left, n_left)
             + n_right * _row_entropy(right, n_right)) / n
    gains = parent_entropy - child
    # cuts are in ascending value order within a feature, so a stable
    # sort by descending gain puts each feature's first argmax first
    by_gain = np.lexsort((-gains, cut_feat))
    first = by_gain[np.diff(cut_feat[by_gain], prepend=-1) != 0]
    best_gain = np.full(k, -np.inf)
    best_gain[cut_feat[first]] = gains[first]
    threshold = np.zeros(k)
    threshold[cut_feat[first]] = (values[cut[first]] + values[cut[first] + 1]) / 2.0
    return best_gain, threshold


def _split_rows(
    mat, feature: int, threshold: float, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`rows` whose value of `feature` is <= threshold (absent counts as
    0), and the rest. `mat` holds the columns as `_columns` builds them,
    so `mat.shape[1]` is the row count."""
    entries = slice(mat.indptr[feature], mat.indptr[feature + 1])
    column = np.zeros(mat.shape[1])
    column[mat.indices[entries]] = mat.data[entries]
    mask = column[rows] <= threshold
    return rows[mask], rows[~mask]


def _columns(X: CsrArrays) -> CsrArrays:
    """The CSR arrays of X transposed, in X's index dtype: a stable sort of
    the column indices keeps each column's entries in row order, and the
    repeats of a (row, column) entry are added to its first in stored
    order. Training and routing both read the rows through these columns."""
    n, dim = X.shape
    order = np.argsort(X.indices, kind="stable")
    rows = np.repeat(np.arange(n, dtype=X.indices.dtype), np.diff(X.indptr))[order]
    columns, data = X.indices[order], X.data[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (columns[1:] != columns[:-1])
    if not new.all():  # add.at adds in index order, from each run's first
        data, repeats = data[new], data[~new]
        np.add.at(data, np.cumsum(new)[~new] - 1, repeats)
        rows, columns = rows[new], columns[new]
    counts = np.bincount(columns, minlength=dim)
    return CsrArrays(data, rows, np.concatenate(([0], np.cumsum(counts))), (dim, n))


def train_decision_tree(
    X: CsrArrays,
    y: Sequence[EpidemicClass],
    hyperparams: TreeHyperparams | None = None,
) -> TreeModel:
    """Greedy entropy tree sampling floor(sqrt(dim)) features per node.

    Nodes stop at purity, at max_depth, or when no sampled split has
    positive information gain. Each node searches all its sampled
    features in one sparse pass (`_feature_splits`) and takes the first,
    in increasing feature order, whose gain beats the best so far by more
    than GAIN_EPSILON. Rows whose value is <= the threshold go left. Leaves
    take the majority class, ties to the lowest class index. Node ids are
    assigned in preorder (parent, left subtree, right subtree), which also
    fixes the feature-sampling sequence for a given seed.
    """
    hp = hyperparams or TreeHyperparams()
    class_order, y_idx = _class_setup(X, y)
    mat = _columns(X)
    dim = X.shape[1]
    n_classes = len(class_order)
    n_features = max(1, math.isqrt(dim))
    rng = random.Random(hp.seed)
    nodes: list[TreeNode] = []

    def build(rows: np.ndarray, depth: int) -> int:
        node_id = len(nodes)
        nodes.append(TreeNode())  # placeholder, replaced below
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        majority = int(np.argmax(counts))
        parent_entropy = entropy_bits(counts)
        if depth >= hp.max_depth or parent_entropy == 0.0 or len(rows) < 2:
            nodes[node_id] = TreeNode(leaf_class=majority)
            return node_id
        candidates = np.array(sorted(rng.sample(range(dim), n_features)))
        gains, thresholds = _feature_splits(
            mat, candidates, rows, y_idx, counts, parent_entropy)
        best_gain = 0.0
        best = -1
        for j, gain in enumerate(gains.tolist()):
            if gain > best_gain + GAIN_EPSILON:
                best_gain = gain
                best = j
        if best < 0:
            nodes[node_id] = TreeNode(leaf_class=majority)
            return node_id
        feature, threshold = int(candidates[best]), float(thresholds[best])
        left_rows, right_rows = _split_rows(mat, feature, threshold, rows)
        build(left_rows, depth + 1)
        nodes[node_id] = TreeNode(feature=feature, threshold=threshold,
                                  right=build(right_rows, depth + 1))
        return node_id

    build(np.arange(X.shape[0]), 0)
    return TreeModel(
        nodes=tuple(nodes), class_order=class_order, hyperparams=hp, dim=dim
    )


def predict(model: LinearModel | TreeModel, X: CsrArrays) -> list[EpidemicClass]:
    """Argmax of class scores (linear) or routed leaf class (tree)."""
    if X.shape[1] != model.dim:
        raise ShapeError(f"feature dimension {X.shape[1]} != model {model.dim}")
    if isinstance(model, TreeModel):
        return _predict_tree(model, X)
    return [model.class_order[i] for i in _linear_scores(model, X).argmax(axis=1)]


def _linear_scores(model: LinearModel, X: CsrArrays) -> np.ndarray:
    """X W + b, one row per row of X. Each score sums its row's products in
    stored order from zero, as scipy's CSR product does, so the scores are
    bit for bit those of `X @ W + b`; np.argmax then breaks ties to the
    lowest class index."""
    n = X.shape[0]
    rows = np.repeat(np.arange(n), np.diff(X.indptr))
    scores = np.empty((n, len(model.class_order)))
    for c in range(scores.shape[1]):
        scores[:, c] = np.bincount(
            rows, weights=X.data * model.weights[X.indices, c], minlength=n)
    return scores + model.bias


def _predict_tree(model: TreeModel, X: CsrArrays) -> list[EpidemicClass]:
    """Route all rows at once from a stack of (node, rows) pairs, without
    recursion, so a loaded tree of any depth routes: each internal node
    splits its rows on one column of `_columns(X)`, the columns the
    trainer reads, and pushes both parts."""
    mat = _columns(X)
    leaf = np.empty(X.shape[0], dtype=np.intp)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        i, rows = stack.pop()
        node = model.nodes[i]
        if node.is_leaf:
            leaf[rows] = node.leaf_class
        elif len(rows):
            left, right = _split_rows(mat, node.feature, node.threshold, rows)
            stack += [(node.right, right), (i + 1, left)]
    return [model.class_order[c] for c in leaf.tolist()]


MODEL_FORMAT_VERSION = 3


def _model_json(model: LinearModel | TreeModel, tfidf_checksum: str) -> dict:
    doc: dict = {
        "format_version": MODEL_FORMAT_VERSION,
        "classes": [c.label for c in model.class_order],
        "dim": model.dim,
        "hyperparams": asdict(model.hyperparams),
        "kind": model.kind,
        "tfidf_sha256": tfidf_checksum,
    }
    if isinstance(model, TreeModel):
        doc["nodes"] = [
            {"leaf": n.leaf_class} if n.is_leaf else {
                "feature": n.feature, "threshold": n.threshold, "right": n.right}
            for n in model.nodes
        ]
    else:
        doc["n_iter"] = model.n_iter
        doc["cg_products"] = model.cg_products
        doc["loss_histories"] = [list(h) for h in model.loss_histories]
        doc["converged"] = model.converged
        doc["final_grad_norm"] = model.final_grad_norm
        doc["bias"] = model.bias.tolist()
        doc["weights"] = model.weights.T.tolist()  # one row of dim per class
    return doc


def save_model(
    model: LinearModel | TreeModel, path: str | Path, tfidf_checksum: str
) -> None:
    """Persist a trained model with the feature-model checksum it expects."""
    Path(path).write_text(json.dumps(_model_json(model, tfidf_checksum),
                                     sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> tuple[LinearModel | TreeModel, str]:
    """Load a persisted model; returns (model, expected tfidf checksum), or
    DataError naming the file unless saving it again gives the file back
    (`errors.read_document`)."""
    return read_document(Path(path).read_bytes(), str(path), "model file",
                         MODEL_FORMAT_VERSION, _model_from_doc,
                         lambda loaded: _model_json(*loaded))


def _model_from_doc(doc: dict) -> tuple[LinearModel | TreeModel, str]:
    class_order = tuple(EpidemicClass.from_label(t) for t in doc["classes"])
    dim = int(doc["dim"])
    checksum = str(doc["tfidf_sha256"])
    params = doc["hyperparams"]
    if doc["kind"] == "tree":
        nodes = tuple(
            TreeNode(leaf_class=int(n["leaf"])) if "leaf" in n else TreeNode(
                feature=int(n["feature"]), threshold=float(n["threshold"]),
                right=int(n["right"]))
            for n in doc["nodes"]
        )
        if not nodes:
            raise ValueError("tree has no nodes")
        # preorder ids: children follow their parent, so routing ends
        for i, n in enumerate(nodes):
            ok = (n.leaf_class < len(class_order) if n.is_leaf
                  else 0 <= n.feature < dim and i + 1 < n.right < len(nodes))
            if not ok:
                raise ValueError(f"node {i} links outside the tree or the features")
        hp = TreeHyperparams(max_depth=int(params["max_depth"]), seed=int(params["seed"]))
        return TreeModel(
            nodes=nodes, class_order=class_order, hyperparams=hp, dim=dim
        ), checksum
    if doc["kind"] not in ("logistic", "svm"):
        raise ValueError(f"unknown model kind {doc['kind']!r}")
    hp = LinearHyperparams(strength=float(params["strength"]),
                           max_iter=int(params["max_iter"]), tol=float(params["tol"]))
    bias = np.array(doc["bias"], dtype=np.float64)
    if bias.shape != (len(class_order),):
        raise ValueError("bias needs one entry per class")
    weights = np.array(doc["weights"], dtype=np.float64).T
    if weights.shape != (dim, len(class_order)):
        raise ValueError(f"weights need one row of {dim} per class")
    return LinearModel(
        kind=doc["kind"], weights=weights, bias=bias,
        class_order=class_order, hyperparams=hp, dim=dim,
        cg_products=int(doc["cg_products"]),
        final_grad_norm=float(doc["final_grad_norm"]),
        loss_histories=tuple(tuple(map(float, h)) for h in doc["loss_histories"]),
    ), checksum
