"""Externally reported benchmark results used as a formula-audit fixture.

Per-class precision, recall and F1 as published for five classifiers
(three classical, two transformer baselines) on a five-class epidemic
task, plus the published weighted-F1 and accuracy rows. The values
themselves are fixtures, not targets this package reproduces.

The audit in the acceptance suite checks that the published F1 column
is the harmonic mean of the published precision/recall columns for
every model except those in ``INCONSISTENT_PR_MODELS``, and that the
rows which disagree are exactly the rows of those models. A model is
recorded there when its published precision/recall columns cannot
belong to the classifier whose F1 column, weighted F1 and accuracy are
published: accuracy is the support-weighted mean of per-class recall,
and weighted F1 the support-weighted mean of per-class F1, so each must
lie within the range of the per-class values it averages, whatever the
class supports are.
"""

CLASSES = ("cholera", "ebola", "mers", "swine_flu", "non_epidemic")
MODELS = ("decision_tree", "logistic", "svm", "bert", "bertweet")

# (precision, recall, f1) per (model, class), as published.
REFERENCE_SCORES = {
    "decision_tree": {
        "cholera": (0.5372, 0.6678, 0.1826),
        "ebola": (0.6249, 0.8737, 0.474),
        "mers": (0.3924, 0.9699, 0.2673),
        "swine_flu": (0.7171, 0.6553, 0.1843),
        "non_epidemic": (0.5974, 0.8237, 0.7244),
    },
    "logistic": {
        "cholera": (0.9914, 0.972, 0.9816),
        "ebola": (0.9617, 0.9859, 0.9736),
        "mers": (0.9016, 0.9701, 0.9346),
        "swine_flu": (0.9977, 0.7314, 0.8441),
        "non_epidemic": (0.9464, 0.9996, 0.9723),
    },
    "svm": {
        "cholera": (0.989, 0.9781, 0.9836),
        "ebola": (0.9727, 0.9868, 0.9797),
        "mers": (0.8852, 0.9879, 0.9337),
        "swine_flu": (0.9977, 0.7553, 0.8598),
        "non_epidemic": (0.9469, 0.9998, 0.9726),
    },
    "bert": {
        "cholera": (0.9959, 0.9713, 0.9834),
        "ebola": (0.994, 0.991, 0.9925),
        "mers": (0.8118, 0.9965, 0.8947),
        "swine_flu": (0.9997, 0.6995, 0.8231),
        "non_epidemic": (0.9224, 0.999, 0.9592),
    },
    "bertweet": {
        "cholera": (0.981, 0.9835, 0.9822),
        "ebola": (0.9974, 0.9874, 0.9924),
        "mers": (0.7786, 0.9959, 0.874),
        "swine_flu": (0.9962, 0.6915, 0.8163),
        "non_epidemic": (0.9193, 0.9993, 0.9576),
    },
}

REFERENCE_WEIGHTED_F1 = {
    "decision_tree": 0.5503,
    "logistic": 0.9555,
    "svm": 0.9599,
    "bert": 0.9455,
    "bertweet": 0.9504,
}

REFERENCE_ACCURACY = {
    "decision_tree": 0.6045,
    "logistic": 0.9578,
    "svm": 0.9617,
    "bert": 0.9549,
    "bertweet": 0.9532,
}

# Models whose published P/R columns are inconsistent with their own
# published F1 column, weighted F1 and accuracy. decision_tree: accuracy
# 0.6045 lies below its lowest recall (recalls span 0.6553-0.9699), and
# weighted F1 0.5503 lies below the lowest harmonic mean of its P/R rows
# (2PR/(P+R) spans 0.5587-0.7286). Its published F1 column (0.1826-0.7244)
# does contain 0.5503. The other four models meet both bounds (e.g.
# logistic 0.7314 <= 0.9578 <= 0.9996).
INCONSISTENT_PR_MODELS = ("decision_tree",)

# Models whose published accuracy, weighted F1 and per-class columns fit
# no class supports. Scored on one split, a model's rows must meet, for
# one vector of class shares s (s >= 0, sum s = 1): accuracy = sum s_c R_c,
# weighted F1 = sum s_c F1_c, and sum s_c R_c / P_c = 1 (each row gets one
# predicted class). Rounding to 4 decimals moves each identity by at most
# about 1.4e-4. bert: any two of its identities hold within 2e-4, all
# three only within 3e-3 (not 2e-3). logistic, svm and bertweet meet all
# three within 2e-4 with one shared s; decision_tree meets them within no
# slack up to 0.1.
INCONSISTENT_SUPPORT_MODELS = ("bert",)

# Spot anchors: (model, class, precision, recall, expected f1).
SPOT_ANCHORS = (
    ("logistic", "cholera", 0.9914, 0.972, 0.9816),
    ("svm", "mers", 0.8852, 0.9879, 0.9337),
    ("bert", "swine_flu", 0.9997, 0.6995, 0.8231),
)
