import contextlib
import io
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from episilver import cli, labeling, pipeline
from episilver.errors import DataError, FitError
from episilver.features import (
    TfIdfModel,
    fit_tfidf,
    idf_checksum,
    load_tfidf,
    save_tfidf,
    tokenize,
    transform,
)
from episilver.labeling import EpidemicClass as EC
from episilver.synth import SynthSpec, write_corpus

WORDS = ["flu", "cold", "cough", "fever", "rest", "tea"]


class TestTokenize:
    def test_basic(self):
        assert tokenize("Flu shots, flu shots!") == ["flu", "shots", "flu", "shots"]

    def test_min_length(self):
        assert tokenize("a I x") == []

    def test_punctuation_split(self):
        assert tokenize("H1N1 #mers") == ["h1n1", "mers"]


class TestFit:
    def test_two_doc_fixture(self):
        model = fit_tfidf(["flu flu cold", "cold"])
        assert model.dim == 2 and model.doc_count == 2
        assert model.vocabulary == {"cold": 0, "flu": 1}
        assert model.idf[model.vocabulary["flu"]] == pytest.approx(
            math.log(3 / 2) + 1, abs=1e-12)
        assert model.idf[model.vocabulary["cold"]] == 1.0

    def test_df_equals_n_gives_idf_one(self):
        model = fit_tfidf(["flu"])
        assert model.idf[0] == 1.0

    def test_no_tokens_is_fit_error(self):
        with pytest.raises(FitError):
            fit_tfidf(["", ""])

    def test_lexicographic_vocabulary_and_order_free_fit(self):
        docs = ["flu cold", "cough flu", "tea"]
        a = fit_tfidf(docs)
        b = fit_tfidf(list(reversed(docs)))
        assert a.vocabulary == b.vocabulary
        assert np.array_equal(a.idf, b.idf)
        assert list(a.vocabulary) == sorted(a.vocabulary)

    def test_idf_monotone_in_rarity(self):
        model = fit_tfidf(["flu cold", "flu cough", "flu tea"])
        v = model.vocabulary
        assert model.idf[v["cold"]] > model.idf[v["flu"]]

    def test_every_idf_at_least_one(self):
        model = fit_tfidf(["flu cold", "flu", "cold flu tea"])
        assert (model.idf >= 1.0).all()

    def test_exclude_predicate_masks_tokens(self):
        model = fit_tfidf(["flu cold", "cold tea"], masked={"flu"})
        assert "flu" not in model.vocabulary
        assert len(transform(model, ["flu"]).data) == 0


class TestTransform:
    def test_fixture_values(self):
        model = fit_tfidf(["flu flu cold", "cold"])
        vec = transform(model, ["flu flu cold"])
        values = dict(zip(vec.indices.tolist(), vec.data.tolist()))
        idf_flu = math.log(3 / 2) + 1
        norm = math.sqrt((2 * idf_flu) ** 2 + 1.0)
        assert values[model.vocabulary["flu"]] == pytest.approx(2 * idf_flu / norm, abs=1e-12)
        assert values[model.vocabulary["cold"]] == pytest.approx(1.0 / norm, abs=1e-12)
        assert round(values[model.vocabulary["flu"]], 5) == 0.94216
        assert round(values[model.vocabulary["cold"]], 5) == 0.33518

    def test_single_term(self):
        model = fit_tfidf(["flu flu cold", "cold"])
        vec = transform(model, ["cold"])
        assert list(zip(vec.indices.tolist(), vec.data.tolist())) == [(0, 1.0)]

    def test_oov_gives_empty_vector(self):
        model = fit_tfidf(["flu"])
        vec = transform(model, ["zzz"])
        assert len(vec.data) == 0 and vec.shape == (1, 1)

    @given(st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
        min_size=1, max_size=6,
    ), st.lists(st.sampled_from(WORDS + ["oovword"]), max_size=10).map(" ".join))
    def test_unit_norm_property(self, docs, query):
        model = fit_tfidf(docs)
        vec = transform(model, [query])
        if len(vec.data):
            assert math.sqrt(sum(v * v for v in vec.data)) == pytest.approx(1.0, abs=1e-9)
        indices = vec.indices.tolist()
        assert indices == sorted(set(indices))
        assert all(0 <= i < vec.shape[1] for i in indices)

    def test_round_trip_nonzero_at_training_tokens(self):
        docs = ["flu cold cough", "tea rest", "flu tea"]
        model = fit_tfidf(docs)
        for doc in docs:
            vec = transform(model, [doc])
            expected = {model.vocabulary[t] for t in set(tokenize(doc))}
            assert set(vec.indices.tolist()) == expected

    def test_rejects_bare_str(self):
        model = fit_tfidf(["flu cold"])
        with pytest.raises(TypeError):
            transform(model, "flu cold")


class TestTransformRows:
    """The CSR invariants of transform's output, checked row by row over
    a batch that mixes ordinary, repeated-token, out-of-vocabulary and
    empty texts."""

    DOCS = ["flu cold cough", "tea rest", "flu tea fever"]
    TEXTS = ["flu flu cold", "tea rest cough flu", "", "zzz qqq",
             "cough cough cough", "rest tea flu cold fever", "fever zzz"]

    def rows(self):
        model = fit_tfidf(self.DOCS)
        X = transform(model, self.TEXTS)
        assert X.shape == (len(self.TEXTS), model.dim)
        return [
            (X.indices[X.indptr[r]:X.indptr[r + 1]].tolist(),
             X.data[X.indptr[r]:X.indptr[r + 1]].tolist(), X.shape[1])
            for r in range(X.shape[0])
        ]

    def test_columns_strictly_increasing(self):
        for columns, _, _ in self.rows():
            assert all(a < b for a, b in zip(columns, columns[1:]))

    def test_no_stored_zeros(self):
        for _, values, _ in self.rows():
            assert all(v != 0.0 for v in values)

    def test_columns_below_dim(self):
        for columns, _, dim in self.rows():
            assert all(0 <= c < dim for c in columns)

    def test_unit_norm_every_nonempty_row(self):
        rows = self.rows()
        assert any(not values for _, values, _ in rows)  # empty rows occur
        for _, values, _ in rows:
            if values:
                assert math.sqrt(sum(v * v for v in values)) == pytest.approx(
                    1.0, abs=1e-9)

    def test_batch_rows_equal_single_text_rows(self):
        model = fit_tfidf(self.DOCS)
        batch = transform(model, self.TEXTS)
        for r, text in enumerate(self.TEXTS):
            one = transform(model, [text])
            entries = slice(batch.indptr[r], batch.indptr[r + 1])
            assert np.array_equal(batch.indices[entries], one.indices)
            assert np.array_equal(batch.data[entries], one.data)


def reference_transform(model: TfIdfModel, texts):
    """transform as one loop per row and per token: counts x idf in
    increasing column order, divided by `np.linalg.norm` of the row."""
    data, indices, indptr = [], [], [0]
    for text in texts:
        counts = Counter()
        for token in tokenize(text):
            idx = model.vocabulary.get(token)
            if idx is not None:
                counts[idx] += 1
        if counts:
            columns = sorted(counts)
            values = np.array([counts[i] * model.idf[i] for i in columns])
            values /= np.linalg.norm(values)
            indices.extend(columns)
            data.extend(values.tolist())
        indptr.append(len(indices))
    return (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
            np.array(indptr, dtype=np.int32), (len(indptr) - 1, model.dim))


def assert_same_arrays(got, want):
    """Equal shapes, and arrays of equal dtypes and equal bytes."""
    assert got.shape == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# Words over letters whose case, length or word-ness trips a tokenizer:
# 'İ' lowercases to two characters, '_' and digits are word characters,
# '-' and '.' split words.
_WORD = st.text(alphabet="abcAB_1éİ", min_size=1, max_size=4)
_SEPARATOR = st.sampled_from([" ", "  ", "-", ".", "\n"])


def _texts_of(words):
    return st.lists(st.tuples(words, _SEPARATOR), max_size=12).map(
        lambda pieces: "".join(w + sep for w, sep in pieces))


class TestBatchedRows:
    """transform builds a batch's rows with one count over the batch; it
    gives the bytes of the per-row loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(docs=st.lists(_texts_of(_WORD), min_size=1, max_size=6),
           texts=st.lists(st.one_of(
               _texts_of(_WORD),
               _texts_of(st.sampled_from(["zz", "QQ", "x"])),  # no vocabulary token
               _texts_of(_WORD).map(lambda t: t * 3),  # repeated tokens
               st.just("")), max_size=8),
           as_generator=st.booleans())
    def test_equals_the_per_row_loop(self, docs, texts, as_generator):
        assume(any(tokenize(doc) for doc in docs))
        model = fit_tfidf(docs)
        got = transform(model, iter(texts) if as_generator else texts)
        assert_same_arrays(got, reference_transform(model, texts))

    def test_empty_batch(self):
        model = fit_tfidf(["flu cold"])
        for texts in ([], iter([])):
            X = transform(model, texts)
            assert X.shape == (0, 2) and X.indptr.tolist() == [0]
            assert_same_arrays(X, reference_transform(model, []))


SPLIT = {"ratio": 0.75, "seed": 0, "train_sha256": "0" * 64}


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = fit_tfidf(["flu cold flu", "tea cold"])
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path, SPLIT)
        loaded, split = load_tfidf(path)
        assert split == SPLIT
        assert loaded.vocabulary == model.vocabulary
        assert np.allclose(loaded.idf, model.idf)
        assert loaded.doc_count == model.doc_count
        assert idf_checksum(loaded) == idf_checksum(model)
        for a, b in zip(transform(loaded, ["flu cold"]), transform(model, ["flu cold"])):
            assert np.array_equal(a, b)

    def test_tampered_file_fails_checksum(self, tmp_path):
        model = fit_tfidf(["flu cold", "tea"])
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path, SPLIT)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"doc_count": 2', '"doc_count": 9'),
                        encoding="utf-8")
        with pytest.raises(DataError, match="checksum"):
            load_tfidf(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset, tfidf.json and logistic model that `eval` accepts."""
    root = tmp_path_factory.mktemp("trained")
    counts = {EC.CHOLERA: 12, EC.EBOLA: 12, EC.NON_EPIDEMIC: 40}
    write_corpus(SynthSpec(class_counts=counts, seed=3), str(root / "corpus.jsonl"))
    steps = [
        ["ingest", "--input", str(root / "corpus.jsonl"),
         "--out", str(root / "docs.tsv"), "--threads", "1"],
        ["label", "--input", str(root / "docs.tsv"),
         "--out", str(root / "dataset.tsv"), "--classes", "cholera,ebola"],
        ["train", "--dataset", str(root / "dataset.tsv"), "--out", str(root),
         "--model", "logistic"],
        ["eval", "--dataset", str(root / "dataset.tsv"), "--tfidf",
         str(root / "tfidf.json"), "--model-file",
         str(root / "model-logistic.json"), "--out", str(root)],
    ]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in steps:
            assert cli.main(argv) == 0, argv
    return root


@pytest.mark.parametrize("config", [
    {"lowercase": False, "min_token_len": 2},
    {"lowercase": True, "min_token_len": 3},
    {"lowercase": 1, "min_token_len": 2},
], ids=["case-kept", "min-len-3", "int-lowercase"])
def test_eval_rejects_a_tfidf_file_tokenized_differently(
        trained, tmp_path, capsys, config):
    doc = json.loads((trained / "tfidf.json").read_text())
    doc["config"] = config
    path = tmp_path / "tfidf.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["eval", "--dataset", str(trained / "dataset.tsv"),
                     "--tfidf", str(path),
                     "--model-file", str(trained / "model-logistic.json"),
                     "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DataError"
    assert str(path) in record["message"] and "tokenizer config" in record["message"]


def _float_doc_freq(doc):
    token = min(doc["vocabulary"])
    doc["vocabulary"][token] = float(doc["vocabulary"][token])


@pytest.mark.parametrize("damage, key", [
    (lambda doc: doc.update(doc_count=float(doc["doc_count"])), "doc_count"),
    (_float_doc_freq, "vocabulary"),
    (lambda doc: doc.update(note=None), "note"),
], ids=["float-doc-count", "float-doc-freq", "extra-key"])
def test_eval_rejects_a_tfidf_file_that_saving_does_not_give_back(
        trained, tmp_path, capsys, damage, key):
    doc = json.loads((trained / "tfidf.json").read_text())
    damage(doc)
    path = tmp_path / "tfidf.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["eval", "--dataset", str(trained / "dataset.tsv"),
                     "--tfidf", str(path),
                     "--model-file", str(trained / "model-logistic.json"),
                     "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DataError"
    assert record["message"].startswith(f"{path}: malformed feature model file")
    assert f"{key} not as saving it again gives" in record["message"]


@pytest.mark.parametrize("mask", [False, True], ids=["unmasked", "masked"])
def test_fit_features_rows_are_transform_rows(trained, tmp_path, mask):
    """The rows fit_features builds from its one tokenization are the bytes
    transform gives for the same texts."""
    texts = [ex.text for ex in labeling.read_dataset_tsv(trained / "dataset.tsv")]
    tfidf, X = pipeline.fit_features(
        texts, labeling.default_ruleset() if mask else None, 0.75, 0, tmp_path)
    assert ("cholera" in tfidf.vocabulary) is not mask
    assert_same_arrays(X, transform(tfidf, texts))


_WORD_BEFORE, _WORD_AFTER = re.compile(r"\w*\Z"), re.compile(r"\w*")


def two_search_words(texts, ruleset):
    """The mask pass as match_rules, then finditer from the start of the
    text for each rule it reports."""
    words = set()
    patterns = dict(zip(ruleset.rules, ruleset.compiled))
    for text in texts:
        for rule in labeling.match_rules(ruleset, text):
            for m in patterns[rule].finditer(text):
                start = _WORD_BEFORE.search(
                    text, text.rfind(" ", 0, m.start()) + 1, m.start()).start()
                end = _WORD_AFTER.match(text, m.end()).end()
                words.add(text[start:end])
    return words


# Anchors, a lookbehind, a lookahead, a bare `\b`, rules that match the
# empty string and the case-sensitive AIDS form, in rule-file lines; a
# ruleset is any nonempty subset of them, so that no rule that matches
# everywhere hides what the others mask.
_CUSTOM_RULE_LINES = [
    "cholera\t0\t0\t^cholera",
    "ebola\t0\t1\t(?<=#)ebola\\w*",
    "flu\t0\t2\t(?m)^flu|flu(?=\\s*$)",
    "mers\t0\t3\t\\b",
    "sars\t0\t4\t(?:sars)*",
    "hiv_aids\t1\t5\t\\bAIDS\\b|#AIDS\\b",
    "swine_flu\t0\t6\t\\bswine\\s+flu\\b",
    "influenza\t0\t7\t(?<![a-z])flu(?=[a-z])",
]
_RULESETS = st.one_of(
    st.just(labeling.default_ruleset()),
    st.sets(st.sampled_from(_CUSTOM_RULE_LINES), min_size=1, max_size=3).map(
        lambda lines: labeling.parse_ruleset_text("\n".join(sorted(lines)))),
)
_MASK_TEXTS = st.lists(st.sampled_from(
    ["cholera", "Cholera", "ebola", "#ebola", "ebolavirus", "flu", "FLU", "swine",
     "AIDS", "aids", "Aids", "#AIDS", "sars", "sarssars", "mers", "yellow", "fever",
     "ab", "x", "é", "İ", " ", "  ", "\n", "#", "-", "_"]),
    max_size=14).map("".join)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_MASK_TEXTS, max_size=6), ruleset=_RULESETS)
@example(texts=["a #ebola", "x\nflu #ebolavirus"],
         ruleset=labeling.parse_ruleset_text("\n".join(_CUSTOM_RULE_LINES[1:3])))
@example(texts=["Aids AIDS", "xfluab fluab"],
         ruleset=labeling.parse_ruleset_text("\n".join(_CUSTOM_RULE_LINES[5::2])))
def test_mask_pass_masks_what_two_searches_mask(texts, ruleset):
    """The mask pass searches each rule on from its first match; the words
    it finds, and so the tokens it masks, are those of a second search from
    the start of the text."""
    assert labeling.matched_words(ruleset, texts) == two_search_words(texts, ruleset)
