"""The entropy tree's sparse split search and batched routing, checked
against the dense search, the per-row router and the `tocsc()` column
layout they replaced.

`_column_values`, `_best_threshold` and `reference_tree` are test-only
copies of the dense implementation: for every node they build the
feature's values over all the node's rows, sort them and scan every
boundary. The sparse search must give the same gains and thresholds bit
for bit, and so the same trees.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse

from episilver.features import CsrArrays
from episilver.labeling import EpidemicClass as EC
from episilver.models import (
    GAIN_EPSILON,
    TreeHyperparams,
    TreeModel,
    TreeNode,
    _columns,
    _feature_splits,
    _row_entropy,
    _split_rows,
    entropy_bits,
    load_model,
    predict,
    save_model,
    train_decision_tree,
)
from helpers import csr_rows


def _column_values(X_csc, feature, rows):
    """Values of one feature for the given (sorted) sample rows; absent = 0."""
    start, end = X_csc.indptr[feature], X_csc.indptr[feature + 1]
    col_rows = X_csc.indices[start:end]
    col_vals = X_csc.data[start:end]
    values = np.zeros(len(rows))
    if len(col_rows):
        pos = np.searchsorted(rows, col_rows)
        ok = pos < len(rows)
        ok[ok] &= rows[pos[ok]] == col_rows[ok]
        values[pos[ok]] = col_vals[ok]
    return values


def _best_threshold(values, y_node, n_classes, parent_entropy):
    """Best (gain, threshold) for one feature, or None if unsplittable."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = y_node[order]
    cut = np.nonzero(sv[1:] != sv[:-1])[0]
    if cut.size == 0:
        return None
    n = len(values)
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), sy] = 1.0
    cum = one_hot.cumsum(axis=0)
    left = cum[cut]
    right = cum[-1] - left
    n_left = (cut + 1).astype(np.float64)
    n_right = n - n_left
    child = (n_left * _row_entropy(left, n_left)
             + n_right * _row_entropy(right, n_right)) / n
    gains = parent_entropy - child
    best = int(np.argmax(gains))
    threshold = (sv[cut[best]] + sv[cut[best] + 1]) / 2.0
    return float(gains[best]), threshold


def reference_tree(X, y_idx, n_classes, hp):
    """The dense tree builder: same sampling, stopping and leaf rules."""
    mat = X.tocsc()
    dim = mat.shape[1]
    n_features = max(1, math.isqrt(dim))
    rng = random.Random(hp.seed)
    nodes = []

    def build(rows, depth):
        node_id = len(nodes)
        nodes.append(TreeNode())
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        majority = int(np.argmax(counts))
        parent_entropy = entropy_bits(counts)
        if depth >= hp.max_depth or parent_entropy == 0.0 or len(rows) < 2:
            nodes[node_id] = TreeNode(leaf_class=majority)
            return node_id
        best_gain, best_feature, best_threshold, best_values = 0.0, -1, 0.0, None
        for feature in sorted(rng.sample(range(dim), n_features)):
            values = _column_values(mat, feature, rows)
            found = _best_threshold(values, y_idx[rows], n_classes, parent_entropy)
            if found is not None and found[0] > best_gain + GAIN_EPSILON:
                best_gain, best_threshold = found
                best_feature, best_values = feature, values
        if best_feature < 0:
            nodes[node_id] = TreeNode(leaf_class=majority)
            return node_id
        mask = best_values <= best_threshold
        build(rows[mask], depth + 1)
        right_id = build(rows[~mask], depth + 1)
        nodes[node_id] = TreeNode(feature=best_feature, threshold=best_threshold,
                                  right=right_id)
        return node_id

    build(np.arange(X.shape[0]), 0)
    return tuple(nodes)


# the midpoint of 0.5 and the next double rounds to 0.5, so rows can sit
# exactly on a threshold
VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 1.0, -0.5]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def matrices(draw, max_rows=24, max_dim=9):
    """(CSC matrix, class indices, class count): columns that are sparse,
    all zero, with no zero, or a copy of the previous column (ties between
    features); optionally with explicitly stored zeros."""
    n = draw(st.integers(2, max_rows))
    dim = draw(st.integers(1, max_dim))
    columns = []
    for _ in range(dim):
        kind = draw(st.sampled_from(["sparse", "empty", "full", "copy"]))
        if kind == "copy" and columns:
            columns.append(list(columns[-1]))
        elif kind == "empty":
            columns.append([0.0] * n)
        else:
            col = draw(st.lists(VALUES, min_size=n, max_size=n))
            if kind == "full":
                col = [v or 0.75 for v in col]
            columns.append(col)
    dense = np.array(columns).T
    stored = dense != 0.0
    if draw(st.booleans()):
        stored |= (np.add.outer(np.arange(n), np.arange(dim)) % 3) == 0
    cols = [np.flatnonzero(stored[:, j]) for j in range(dim)]
    mat = sparse.csc_matrix(
        (np.concatenate([dense[c, j] for j, c in enumerate(cols)]),
         np.concatenate(cols).astype(np.int32),
         np.r_[0, np.cumsum([len(c) for c in cols])].astype(np.int32)),
        shape=(n, dim))
    n_classes = draw(st.integers(2, 5))
    y_idx = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                   min_size=n, max_size=n)), dtype=np.intp)
    return mat, y_idx, n_classes


@settings(deadline=None, max_examples=200)
@given(matrices(), st.data())
def test_feature_splits_match_dense_search(problem, data):
    mat, y_idx, n_classes = problem
    n, dim = mat.shape
    rows = np.array(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=2), label="rows")), dtype=np.intp)
    features = np.array(sorted(data.draw(
        st.sets(st.integers(0, dim - 1), min_size=1), label="features")))
    counts = np.bincount(y_idx[rows], minlength=n_classes)
    parent = entropy_bits(counts)
    columns = CsrArrays(mat.data, mat.indices, mat.indptr, mat.shape[::-1])
    gains, thresholds = _feature_splits(columns, features, rows, y_idx, counts, parent)
    for j, feature in enumerate(features):
        found = _best_threshold(_column_values(mat, feature, rows),
                                y_idx[rows], n_classes, parent)
        if found is None:
            assert gains[j] == -np.inf
        else:
            assert float(gains[j]).hex() == found[0].hex()
            assert float(thresholds[j]).hex() == float(found[1]).hex()


@settings(deadline=None, max_examples=100)
@given(matrices(max_rows=40, max_dim=16), st.integers(0, 2**32), st.integers(1, 6))
def test_tree_matches_dense_builder(problem, seed, max_depth):
    """Same chosen feature, threshold and row partition at every node."""
    mat, y_idx, n_classes = problem
    classes = list(EC)[:n_classes]
    y = [classes[i] for i in y_idx]
    present = sorted(set(y_idx.tolist()))
    assume(len(present) >= 2)
    # the trainer renumbers classes to the sorted labels present
    dense_idx = np.searchsorted(present, y_idx)
    hp = TreeHyperparams(max_depth=max_depth, seed=seed)
    model = train_decision_tree(mat.tocsr(), y, hp)
    assert model.nodes == reference_tree(mat.tocsr(), dense_idx, len(present), hp)


def pinned_problem():
    rng = random.Random(20221)
    levels = [0.125, 0.25, 0.5, 0.75]
    rows, y = [], []
    for _ in range(600):
        cols = sorted(rng.sample(range(150), rng.randint(0, 8)))
        rows.append([(c, rng.choice(levels) if c % 3
                      else round(rng.uniform(-1.0, 1.0), 3)) for c in cols])
        y.append(EC((cols[0] % 4) if cols and rng.random() < 0.7 else rng.randrange(4)))
    return csr_rows(rows, 150), y


def test_saved_tree_bytes_pinned(tmp_path):
    """The nodes were pinned from the dense split search (485 nodes); the
    SHA-256 is of model format 3, whose hyperparams hold no criterion and
    whose nodes store no `left`, the next node in preorder."""
    X, y = pinned_problem()
    model = train_decision_tree(X, y, TreeHyperparams(seed=11))
    path = tmp_path / "tree.json"
    save_model(model, path, "0" * 64)
    assert len(model.nodes) == 485
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8350ead380bac687f0e508605291f879638acd2acdfa5947da990c4e85fdaf33")


def route_one_row(model, row):
    values = dict(zip(row.indices.tolist(), row.data.tolist()))
    i, node = 0, model.nodes[0]
    while not node.is_leaf:
        x = values.get(node.feature, 0.0)
        i = i + 1 if x <= node.threshold else node.right
        node = model.nodes[i]
    return model.class_order[node.leaf_class]


def random_tree(rng, dim, n_classes, levels):
    """A preorder tree; some splits send both sides to one child."""
    nodes = []

    def grow(depth):
        node_id = len(nodes)
        nodes.append(None)
        if depth == 0 or rng.random() < 0.25:
            nodes[node_id] = TreeNode(leaf_class=rng.randrange(n_classes))
            return node_id
        feature, threshold = rng.randrange(dim), rng.choice(levels + [0.0])
        left = grow(depth - 1)
        right = left if rng.random() < 0.1 else grow(depth - 1)
        nodes[node_id] = TreeNode(feature=feature, threshold=threshold,
                                  right=right)
        return node_id

    grow(rng.randint(0, 7))
    return TreeModel(nodes=tuple(nodes), class_order=tuple(EC)[:n_classes],
                     hyperparams=TreeHyperparams(), dim=dim)


def test_batched_routing_matches_per_row_router():
    for seed in range(40):
        rng = random.Random(seed)
        dim = rng.randint(1, 12)
        levels = [-0.5, 0.25, 0.5, 1.0, round(rng.uniform(-1.0, 1.0), 2)]
        model = random_tree(rng, dim, rng.randint(1, 5), levels)
        rows = [[(c, rng.choice(levels))
                 for c in sorted(rng.sample(range(dim), rng.randint(0, dim)))]
                for _ in range(rng.randint(0, 30))]
        X = csr_rows(rows, dim)
        assert predict(model, X) == [route_one_row(model, X.getrow(r))
                                     for r in range(X.shape[0])]


def test_loaded_chain_of_splits_routes_every_row(tmp_path):
    """A model file is outside input, and the loader takes a tree of any
    depth: here 1,500 splits of one chain (3,001 nodes), each with a leaf
    on its left, deeper than Python's recursion limit."""
    splits = 1500
    nodes = []
    for k in range(splits):
        nodes += [TreeNode(feature=0, threshold=k + 0.5, right=2 * k + 2),
                  TreeNode(leaf_class=k % len(EC))]
    nodes.append(TreeNode(leaf_class=0))
    path = tmp_path / "chain.json"
    save_model(TreeModel(nodes=tuple(nodes), class_order=tuple(EC),
                         hyperparams=TreeHyperparams(), dim=2), path, "0" * 64)
    model, _ = load_model(path)
    assert len(model.nodes) == 2 * splits + 1
    values = [0.0, 1.0, 7.0, 7.5, 1499.0, 1500.0, 2999.5]
    X = csr_rows([[(0, v)] for v in values] + [[], [(1, 3.0)]], 2)
    expected = [model.class_order[int(v) % len(EC) if v < splits else 0]
                for v in values + [0.0, 0.0]]
    assert predict(model, X) == expected
    assert expected == [route_one_row(model, X.getrow(r)) for r in range(X.shape[0])]


def tocsc_leaves(model, X):
    """The leaf node each row of scipy matrix X reaches, routed on the
    columns of `X.tocsc()` with repeated entries summed, as the trainer
    reads them."""
    m = X.tocsc()
    m.sum_duplicates()
    mat = CsrArrays(m.data, m.indices, m.indptr, m.shape[::-1])
    leaf = np.empty(X.shape[0], dtype=np.intp)
    arrivals = [[] for _ in model.nodes]
    arrivals[0].append(np.arange(X.shape[0]))
    for i, node in enumerate(model.nodes):
        rows = np.concatenate(arrivals[i]) if arrivals[i] else np.empty(0, np.intp)
        if node.is_leaf:
            leaf[rows] = i
        elif len(rows):
            left, right = _split_rows(mat, node.feature, node.threshold, rows)
            arrivals[i + 1].append(left)
            arrivals[node.right].append(right)
    return leaf.tolist()


@st.composite
def routed(draw):
    """(tree, scipy CSR matrix): a preorder tree whose leaves have one class
    each, so a row's class names its leaf, and rows that are empty, hold
    only stored zeros, sit on a threshold, or list columns out of order or
    twice."""
    dim = draw(st.integers(1, 8))
    internal = draw(st.integers(0, len(EC) - 1))  # so at most len(EC) leaves
    nodes, leaves = [], []

    def grow():
        nonlocal internal
        node_id = len(nodes)
        nodes.append(None)
        if not internal or draw(st.booleans()):
            nodes[node_id] = TreeNode(leaf_class=len(leaves))
            leaves.append(node_id)
            return node_id
        internal -= 1
        feature, threshold = draw(st.integers(0, dim - 1)), draw(VALUES)
        grow()
        nodes[node_id] = TreeNode(feature=feature, threshold=threshold,
                                  right=grow())
        return node_id

    grow()
    model = TreeModel(nodes=tuple(nodes), class_order=tuple(EC)[:len(leaves)],
                      hyperparams=TreeHyperparams(), dim=dim)
    rows = draw(st.lists(
        st.one_of(st.just([]),
                  st.lists(st.tuples(st.integers(0, dim - 1), st.just(0.0)),
                           min_size=1, max_size=3),
                  st.lists(st.tuples(st.integers(0, dim - 1), VALUES),
                           max_size=2 * dim)),
        max_size=20))
    return model, csr_rows(rows, dim)


# a lone -0.0 beside a repeat: summing from 0.0 would store +0.0
@example((TreeModel(nodes=(TreeNode(leaf_class=0),), class_order=(EC(0),),
                    hyperparams=TreeHyperparams(), dim=2),
          csr_rows([[(0, -0.0)], [(1, 0.5), (1, 0.25)]], 2)))
@settings(deadline=None, max_examples=200)
@given(routed())
def test_routing_reaches_the_leaf_of_the_tocsc_layout(problem):
    """`_columns` is scipy's column layout with repeats summed, bit for
    bit, and the router reaches the leaf that layout gives."""
    model, X = problem
    canonical = X.tocsc()
    canonical.sum_duplicates()
    columns = _columns(X)
    assert np.array_equal(columns.indptr, canonical.indptr)
    assert np.array_equal(columns.indices, canonical.indices)
    assert columns.data.tobytes() == canonical.data.tobytes()
    expected = [model.class_order[model.nodes[i].leaf_class]
                for i in tocsc_leaves(model, X)]
    assert predict(model, CsrArrays(X.data, X.indices, X.indptr, X.shape)) == expected
    assert predict(model, X) == expected


def test_predict_sums_a_repeated_entry_as_training_does():
    """Row 0 stores column 0 twice, 0.3 and 0.4: the trainer reads 0.7 and
    splits at 0.55, so the tree must route the row by 0.7, not by 0.4."""
    X = sparse.csr_matrix((np.array([0.3, 0.4, 0.4]), np.array([0, 0, 0]),
                           np.array([0, 2, 3])), shape=(2, 1))
    y = [EC.CHOLERA, EC.EBOLA]
    model = train_decision_tree(X, y)
    assert model.nodes[0].threshold == 0.55
    assert predict(model, X) == y
    assert predict(model, CsrArrays(X.data, X.indices, X.indptr, X.shape)) == y
