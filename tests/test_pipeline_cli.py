import dataclasses
import gzip
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import episilver
from episilver import cli, features, labeling, models, pipeline
from episilver.cli import main
from episilver.config import MODEL_KINDS
from episilver.corpus import ingest_files
from episilver.errors import ConfigError, DataError
from episilver.labeling import EpidemicClass as EC
from episilver.pipeline import PipelineConfig, config_hash, derive_seed, run_pipeline
from episilver.synth import SynthSpec, write_corpus

SMALL_COUNTS = {EC.CHOLERA: 40, EC.EBOLA: 40, EC.MERS: 30, EC.SWINE_FLU: 30,
                EC.NON_EPIDEMIC: 320}


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.jsonl"
    spec = SynthSpec(
        class_counts=SMALL_COUNTS, noise_token_rate=0.2, retweet_rate=0.1,
        duplicate_rate=0.05, seed=23,
    )
    write_corpus(spec, str(path))
    return str(path)


@pytest.fixture(scope="module")
def large_corpus(small_corpus, tmp_path_factory):
    """The small corpus plus a file of background documents: two files, so
    that threads > 1 runs ingest in worker processes."""
    path = tmp_path_factory.mktemp("corpus") / "background.jsonl"
    spec = SynthSpec(
        class_counts={EC.CHOLERA: 20, EC.NON_EPIDEMIC: 4596},
        seed=24,
    )
    write_corpus(spec, str(path))
    return (small_corpus, str(path))


def small_config(corpus, out_dir, **overrides):
    defaults = dict(
        inputs=(corpus,), out_dir=str(out_dir), master_seed=99,
        threads=1,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunPipeline:
    def test_artifacts_and_accounting(self, small_corpus, tmp_path):
        result = run_pipeline(small_config(small_corpus, tmp_path / "out"))
        out = result.out_dir
        for name in ["dataset.tsv", "tfidf.json", "manifest.json",
                     "model-logistic.json", "model-svm.json", "model-tree.json",
                     "report-logistic.tsv", "report-svm.json", "confusion-tree.csv"]:
            assert (out / name).exists(), name

        manifest = json.loads((out / "manifest.json").read_text())
        ingest = manifest["stages"]["ingest"]
        assert ingest["lines"] == ingest["parsed"] + ingest["parse_errors"] + ingest["schema_errors"]
        assert ingest["parsed"] == ingest["originals"] + ingest["retweets"]
        label = manifest["stages"]["label"]
        matched_total = sum(label["matched"].values())
        assert matched_total + label["ambiguous_excluded"] + label["unmatched"] \
            == ingest["documents"]
        dataset = manifest["stages"]["dataset"]
        positives = sum(n for name, n in dataset["class_counts"].items()
                        if name != "non_epidemic")
        assert dataset["class_counts"]["non_epidemic"] == positives
        assert dataset["total"] == 2 * positives
        assert dataset["total"] <= ingest["documents"]
        assert manifest["config_sha256"] == config_hash(
            small_config(small_corpus, tmp_path / "out"))
        assert set(result.reports) == {"logistic", "svm", "tree"}

    def test_deterministic_artifacts(self, small_corpus, tmp_path):
        config_a = small_config(small_corpus, tmp_path / "a")
        config_b = small_config(small_corpus, tmp_path / "b")
        run_pipeline(config_a)
        run_pipeline(config_b)
        for name in ["dataset.tsv", "tfidf.json", "model-logistic.json",
                     "model-svm.json", "model-tree.json",
                     "report-logistic.json", "report-svm.tsv",
                     "confusion-logistic.csv"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        # the manifest's config and hash leave out the output path, so only
        # its wall-clock timings differ
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text())
                for d in "ab")
        assert a.pop("timings").keys() == b.pop("timings").keys()
        assert a == b

    def test_manifest_times_each_stage(self, default_run):
        timings = json.loads((default_run / "manifest.json").read_text())["timings"]
        kinds = ("logistic", "svm", "tree")
        assert set(timings) == {"ingest", "label", "balance", "features",
                                *(f"train-{k}" for k in kinds),
                                *(f"eval-{k}" for k in kinds)}
        assert all(isinstance(t, float) and t >= 0 for t in timings.values())

    def test_unreadable_input_fails_in_ingest(self, tmp_path):
        config = PipelineConfig(
            inputs=(str(tmp_path / "missing.jsonl"),),
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(DataError) as exc:
            run_pipeline(config)
        assert exc.value.stage == "ingest"

    def test_mask_keywords_removes_rule_tokens(self, small_corpus, tmp_path):
        result = run_pipeline(small_config(
            small_corpus, tmp_path / "masked", mask_keywords=True))
        tfidf = json.loads((result.out_dir / "tfidf.json").read_text())
        vocab = tfidf["vocabulary"]
        for token in ["cholera", "ebola", "mers", "swineflu", "flu"]:
            assert token not in vocab

    def test_threads_do_not_change_results(self, large_corpus, tmp_path):
        a, b = (
            run_pipeline(small_config(
                large_corpus[0], tmp_path / f"t{threads}", inputs=large_corpus,
                threads=threads))
            for threads in (1, 4)
        )
        assert (a.out_dir / "dataset.tsv").read_bytes() == \
            (b.out_dir / "dataset.tsv").read_bytes()
        for name in ("ingest", "label"):
            assert a.manifest["stages"][name] == b.manifest["stages"][name], name
        # the worker count is recorded beside the timings, not in the config
        assert (a.manifest["threads"], b.manifest["threads"]) == (1, 4)
        assert {k: v for k, v in a.manifest["config"].items() if k != "out_dir"} \
            == {k: v for k, v in b.manifest["config"].items() if k != "out_dir"}
        assert "threads" not in a.manifest["config"]
        assert config_hash(small_config(large_corpus[0], "out", threads=1)) \
            == config_hash(small_config(large_corpus[0], "out", threads=4))


@pytest.fixture(scope="module")
def keyword_corpus(tmp_path_factory):
    """The classes whose keywords are not one lowercase token: ``AIDS``,
    ``yellow fever`` and ``swine flu``, each in some cased variant."""
    root = tmp_path_factory.mktemp("keywords")
    corpus, docs = root / "corpus.jsonl", root / "docs.tsv"
    write_corpus(SynthSpec(class_counts={EC.HIV_AIDS: 30, EC.YELLOW_FEVER: 30,
                                         EC.SWINE_FLU: 30, EC.NON_EPIDEMIC: 200},
                           seed=5), str(corpus))
    assert main(["ingest", "--input", str(corpus), "--out", str(docs),
                 "--threads", "1", "--stats", str(root / "ingest.json")]) == 0
    return corpus, docs


def _vocabulary(out_dir):
    return set(json.loads((out_dir / "tfidf.json").read_text())["vocabulary"])


def _overlapping_tokens(text, span):
    """The tokens of text that share a character with the span."""
    start, end = span
    return {m.group() for m in re.finditer(r"\w{2,}", text.lower())
            if m.start() < end and start < m.end()}


class TestMaskKeywords:
    """`--mask-keywords` keeps out of the vocabulary every token that a
    rule match in a training text overlaps."""

    @pytest.mark.parametrize("classes, keyword, tokens", [
        ("hiv_aids", r"\bAIDS\b", {"aids"}),
        ("yellow_fever", r"(?i)\byellow\s+fever\b", {"yellow", "fever"}),
    ], ids=["case-sensitive", "multi-word"])
    def test_train_masks_every_token_of_a_keyword(
            self, keyword_corpus, tmp_path, classes, keyword, tokens):
        dataset, out = tmp_path / "dataset.tsv", tmp_path / "out"
        assert main(["label", "--input", str(keyword_corpus[1]), "--out", str(dataset),
                     "--classes", classes, "--stats", str(tmp_path / "l.json")]) == 0
        assert re.search(keyword, dataset.read_text(encoding="utf-8"))
        assert main(["train", "--dataset", str(dataset), "--out", str(out),
                     "--model", "logistic", "--mask-keywords"]) == 0
        assert not tokens & _vocabulary(out)
        unmasked = tmp_path / "unmasked"
        assert main(["train", "--dataset", str(dataset), "--out", str(unmasked),
                     "--model", "logistic"]) == 0
        assert tokens <= _vocabulary(unmasked)

    def test_priority_policy_masks_both_words_of_swine_flu(
            self, keyword_corpus, tmp_path):
        """Under `priority` a text holding `swine flu` is labelled swine_flu,
        though `flu` matches on its own too."""
        out = tmp_path / "out"
        assert main(["run", "--input", str(keyword_corpus[0]), "--out", str(out),
                     "--classes", "swine_flu", "--policy", "priority",
                     "--model", "logistic", "--threads", "1",
                     "--mask-keywords"]) == 0
        assert re.search(r"(?i)\bswine\s+flu\b",
                         (out / "dataset.tsv").read_text(encoding="utf-8"))
        assert not {"swine", "flu"} & _vocabulary(out)

    def test_unbounded_rule_masks_the_whole_word(self, tmp_path):
        ruleset = labeling.parse_ruleset_text("ebola\t0\t0\tebola\n")
        texts = ["the ebolavirus spreads", "ebola outbreak news", "plain words"]
        pipeline.fit_features(texts, ruleset, 0.8, 0, tmp_path)
        vocabulary = _vocabulary(tmp_path)
        assert not {"ebola", "ebolavirus"} & vocabulary
        assert {"spreads", "outbreak", "plain"} <= vocabulary

    @settings(max_examples=25, deadline=None)
    @given(counts=st.lists(st.integers(0, 4), min_size=10, max_size=10).filter(any),
           policy=st.sampled_from(labeling.MULTI_MATCH_POLICIES),
           seed=st.integers(0, 2**16))
    def test_no_token_overlaps_a_match(self, counts, policy, seed):
        """Over small synth corpora with the default rules, no vocabulary
        token overlaps a rule match in any training text."""
        class_counts = dict(zip(EC.epidemic_members(), counts))
        class_counts[EC.NON_EPIDEMIC] = sum(counts) + 8
        ruleset = labeling.default_ruleset()
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.jsonl"
            write_corpus(SynthSpec(class_counts=class_counts, seed=seed), str(corpus))
            docs, _ = ingest_files((str(corpus),), None, 1)
            dataset, _ = labeling.label_documents(
                docs, ruleset, EC.epidemic_members(), policy, seed)
            assume(dataset.examples)
            texts = [ex.text for ex in dataset.examples]
            pipeline.fit_features(texts, ruleset, 0.8, seed, Path(tmp))
            vocabulary = _vocabulary(Path(tmp))
        for text in texts:
            for rx in ruleset.compiled:
                for m in rx.finditer(text):
                    assert not _overlapping_tokens(text, m.span()) & vocabulary, text


@pytest.fixture(scope="module")
def default_run(small_corpus, tmp_path_factory):
    """A `run` at the default hyperparameters, all three model kinds."""
    out = tmp_path_factory.mktemp("default-run")
    run_pipeline(PipelineConfig(inputs=(small_corpus,), out_dir=str(out),
                                master_seed=99, threads=1))
    return out


def test_run_artifacts_pinned(default_run):
    """The SHA-256 of each output of `default_run` but the manifest, pinned
    before the tree router kept a stack in place of a table per node."""
    digests = {name: hashlib.sha256((default_run / name).read_bytes()).hexdigest()
               for name in RUN_DIGESTS}
    assert digests == RUN_DIGESTS


RUN_DIGESTS = {
    "dataset.tsv": "f594ebf9aab2676d8872ce1df455141f41a7a3b8f2a8c736fa57027f30cfcbb2",
    "tfidf.json": "19c24a54880ca2e74b7ea2ad94fa36c9935e674c888c7af135399daf13dde604",
    "model-logistic.json":
        "1e6a9c12b882a5fb0565e04bc348d117f48f3006e8835aeb1f84686a1bd7b206",
    "model-svm.json": "4888878be0a22bba10d5764ee93f89770822a01395ef789dde9c18b0a491fe7c",
    "model-tree.json": "7e89ab8a6678e87056eb81fd8e921a592646726922f10deb0d5ffa1400a24a0b",
    "report-logistic.json":
        "a65dd84c8a7abb06156fe848649ea780ae19240c946a136e44bbc7ce55f68619",
    "report-svm.json": "7dbf5004fb91dd1861b4a9acaa9dfe49a1978af272aacaf8c680ad3bce27947d",
    "report-tree.json": "45293d13687805e666d1252eeb5c5dd4e8a9fc442638f7bcf3cb9112ffbf2194",
    "confusion-logistic.csv":
        "253691d89c88c2d3a3ad38751ce060b37e0b0afa2a9b9cbf1f0f647dfc7abc42",
    "confusion-svm.csv": "7dc64736ad47183ffe95f7ff72970fbe74599911c3eaec57de842f5362d6bb4a",
    "confusion-tree.csv": "a2ccb031afc5c090f95249947163f005562e4389eea11f845844706ab810f41c",
}


class TestOneTrainingPath:
    def test_train_subcommand_reproduces_run_artifacts(self, default_run, tmp_path):
        staged = tmp_path / "staged"
        assert main(["train", "--dataset", str(default_run / "dataset.tsv"),
                     "--out", str(staged), "--seed", "99"]) == 0
        for name in ["tfidf.json", "model-logistic.json", "model-svm.json",
                     "model-tree.json"]:
            assert (staged / name).read_bytes() == \
                (default_run / name).read_bytes(), name

    def test_eval_subcommand_reproduces_run_reports(self, default_run, tmp_path):
        for kind in ("logistic", "svm", "tree"):
            assert main(["eval", "--dataset", str(default_run / "dataset.tsv"),
                         "--tfidf", str(default_run / "tfidf.json"),
                         "--model-file", str(default_run / f"model-{kind}.json"),
                         "--out", str(tmp_path)]) == 0
            for name in [f"report-{kind}.tsv", f"report-{kind}.json",
                         f"confusion-{kind}.csv"]:
                assert (tmp_path / name).read_bytes() == \
                    (default_run / name).read_bytes(), name

    def test_staged_commands_share_one_directory(self, default_run, tmp_path):
        """`train` and `eval` read the dataset, the feature model and the
        model files from the directory they write into."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.tsv").write_bytes((default_run / "dataset.tsv").read_bytes())
        dataset = str(out / "dataset.tsv")
        assert main(["train", "--dataset", dataset, "--out", str(out),
                     "--seed", "99"]) == 0
        for kind in ("logistic", "svm", "tree"):
            assert main(["eval", "--dataset", dataset,
                         "--tfidf", str(out / "tfidf.json"),
                         "--model-file", str(out / f"model-{kind}.json"),
                         "--out", str(out)]) == 0
        for name in RUN_DIGESTS:
            assert (out / name).read_bytes() == (default_run / name).read_bytes(), name

    def test_eval_splits_as_tfidf_json_records(self, small_corpus, tmp_path):
        """`eval` takes no split flags: after `train --seed 7 --ratio 0.6`
        it scores the rows that `run` with those flags holds out."""
        ran, staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", "--input", small_corpus, "--out", str(ran),
                     "--seed", "7", "--ratio", "0.6", "--threads", "1"]) == 0
        dataset = str(ran / "dataset.tsv")
        assert main(["train", "--dataset", dataset, "--out", str(staged),
                     "--seed", "7", "--ratio", "0.6"]) == 0
        for kind in ("logistic", "svm", "tree"):
            assert main(["eval", "--dataset", dataset,
                         "--tfidf", str(staged / "tfidf.json"),
                         "--model-file", str(staged / f"model-{kind}.json"),
                         "--out", str(staged)]) == 0
            for name in ["tfidf.json", f"model-{kind}.json", f"report-{kind}.tsv",
                         f"report-{kind}.json", f"confusion-{kind}.csv"]:
                assert (staged / name).read_bytes() == (ran / name).read_bytes(), name

    def test_eval_refuses_a_dataset_that_train_did_not_split(
            self, default_run, small_docs, tmp_path, capsys):
        """A dataset labelled with another seed has the size of the one
        `train` split, but not its training rows."""
        dataset = tmp_path / "dataset.tsv"
        assert main(["label", "--input", str(small_docs), "--out", str(dataset),
                     "--seed", "5", "--stats", str(tmp_path / "label.json")]) == 0
        ours = (default_run / "dataset.tsv").read_text(encoding="utf-8")
        theirs = dataset.read_text(encoding="utf-8")
        assert len(theirs.splitlines()) == len(ours.splitlines())
        assert theirs != ours
        capsys.readouterr()
        tfidf = default_run / "tfidf.json"
        assert main(["eval", "--dataset", str(dataset), "--tfidf", str(tfidf),
                     "--model-file", str(default_run / "model-tree.json"),
                     "--out", str(tmp_path / "out")]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "DataError"
        assert str(dataset) in record["message"] and str(tfidf) in record["message"]
        assert not (tmp_path / "out").exists()

    def test_manifest_records_convergence(self, default_run):
        manifest = json.loads((default_run / "manifest.json").read_text())
        records = manifest["stages"]["models"]
        for kind in ("logistic", "svm"):
            hyperparams = json.loads(
                (default_run / f"model-{kind}.json").read_text())["hyperparams"]
            assert records[kind]["converged"] is True, kind
            assert records[kind]["final_grad_norm"] <= hyperparams["tol"], kind
            assert 0 < records[kind]["iterations"] < 5 * hyperparams["max_iter"]
        tree = records["tree"]
        assert tree["converged"] is tree["final_grad_norm"] is tree["iterations"] \
            is tree["cg_products"] is None

    def test_model_files_hold_monotone_loss_histories(self, default_run):
        records = json.loads(
            (default_run / "manifest.json").read_text())["stages"]["models"]
        for kind, runs in (("logistic", 1), ("svm", 5)):
            doc = json.loads((default_run / f"model-{kind}.json").read_text())
            histories = doc["loss_histories"]
            assert len(histories) == runs, kind
            for hist in histories:
                assert 2 <= len(hist) <= doc["hyperparams"]["max_iter"] + 1, kind
                assert all(b <= a for a, b in zip(hist, hist[1:])), kind
            assert doc["n_iter"] == sum(len(h) - 1 for h in histories), kind
            assert records[kind]["cg_products"] == doc["cg_products"] \
                >= doc["n_iter"], kind


@pytest.fixture(scope="module")
def small_docs(small_corpus, tmp_path_factory):
    """The small corpus through `ingest`: the docs TSV that `label` reads."""
    path = tmp_path_factory.mktemp("docs") / "docs.tsv"
    assert main(["ingest", "--input", small_corpus, "--out", str(path),
                 "--threads", "1", "--stats", str(path.with_suffix(".json"))]) == 0
    return path


class TestWorkerProcesses:
    """`--threads N` runs ingest in N worker processes; the outputs must be
    the bytes that one process writes."""

    def test_ingest_does_not_depend_on_threads(self, large_corpus, tmp_path):
        outputs = {}
        for threads in ("1", "2"):
            docs, stats = tmp_path / f"docs-{threads}.tsv", tmp_path / f"{threads}.json"
            assert main(["ingest", "--input", *large_corpus, "--out", str(docs),
                         "--threads", threads, "--stats", str(stats)]) == 0
            outputs[threads] = (docs.read_bytes(), stats.read_bytes())
        assert outputs["1"] == outputs["2"]


class TestOneLabelingPath:
    @pytest.mark.parametrize("policy", ["exclude", "priority"])
    def test_label_subcommand_reproduces_run_dataset(
            self, small_corpus, small_docs, policy, tmp_path):
        result = run_pipeline(small_config(
            small_corpus, tmp_path / "run", policy=policy,
            model_kinds=("logistic",)))
        dataset = tmp_path / "dataset.tsv"
        stats = tmp_path / "label.json"
        assert main(["label", "--input", str(small_docs), "--out", str(dataset),
                     "--policy", policy, "--seed", "99",
                     "--stats", str(stats)]) == 0
        assert dataset.read_bytes() == result.dataset_path.read_bytes()
        manifest = result.manifest["stages"]
        # the corpus has multi-class documents, so the policies differ
        assert (manifest["label"]["ambiguous_excluded"] > 0) == (policy == "exclude")
        label_stats = json.loads(stats.read_text())
        assert {k: label_stats[k] for k in manifest["label"]} == manifest["label"]
        assert label_stats["class_counts"] == manifest["dataset"]["class_counts"]
        assert label_stats["total"] == manifest["dataset"]["total"]

    # A case-insensitive rule, a case-sensitive one with a case-insensitive
    # group, and a mers rule: without a required literal, which gives it
    # the key "" that runs it on every text, or with one.
    @pytest.mark.parametrize("mers_rule, mers_key", [
        ("1\t1\t[#\\s][mM][eE][rR][sS]\\b", (1, "", False)),
        ("0\t1\t[#\\s]mers\\b", (1, "mers", True)),
    ], ids=["ungated", "gated"])
    def test_custom_ruleset_label_reproduces_run(
            self, large_corpus, tmp_path, mers_rule, mers_key):
        rules = tmp_path / "rules.tsv"
        rules.write_text("cholera\t0\t0\t\\bcholera\\b\n"
                         f"mers\t{mers_rule}\n"
                         "swine_flu\t1\t2\t\\bSwine(?i:\\s*flu)\\b\n", encoding="utf-8")
        ruleset = labeling.load_ruleset(rules)
        assert ruleset.keys == ((0, "cholera", True), mers_key, (2, "Swine", False))
        result = run_pipeline(small_config(
            large_corpus[0], tmp_path / "run", inputs=large_corpus,
            ruleset_path=str(rules), model_kinds=("tree",)))
        docs, dataset, stats = (tmp_path / name for name in
                                ("docs.tsv", "dataset.tsv", "label.json"))
        assert main(["ingest", "--input", *large_corpus, "--out", str(docs),
                     "--threads", "1"]) == 0
        assert main(["label", "--input", str(docs), "--out", str(dataset),
                     "--ruleset", str(rules), "--seed", "99",
                     "--stats", str(stats)]) == 0
        assert dataset.read_bytes() == result.dataset_path.read_bytes()
        label_stats = json.loads(stats.read_text())
        manifest = result.manifest["stages"]["label"]
        assert {k: label_stats[k] for k in manifest} == manifest
        assert set(label_stats["matched"]) == {"cholera", "mers", "swine_flu"}

    @pytest.mark.parametrize("command", ["label", "run"])
    def test_each_document_is_matched_once(
            self, small_corpus, small_docs, command, tmp_path, monkeypatch):
        real = labeling.match_rules
        matched_texts = []

        def counting(ruleset, text):
            matched_texts.append(text)
            return real(ruleset, text)

        for module in (labeling, pipeline, cli):
            monkeypatch.setattr(module, "match_rules", counting, raising=False)
        argv = {
            "label": ["label", "--input", str(small_docs),
                      "--out", str(tmp_path / "ds.tsv"),
                      "--stats", str(tmp_path / "label.json")],
            "run": ["run", "--input", small_corpus, "--out", str(tmp_path / "o"),
                    "--model", "tree", "--threads", "1"],
        }[command]
        assert main(argv) == 0
        texts = [line.split("\t", 1)[1]
                 for line in small_docs.read_text(encoding="utf-8").splitlines()[1:]]
        assert matched_texts == texts

    def test_label_refuses_the_non_epidemic_class_before_reading(
            self, small_docs, tmp_path, monkeypatch, capsys):
        """`label` fails as `run` does, and matches no document first."""
        real, calls = labeling.match_rules, []

        def counting(ruleset, text):
            calls.append(text)
            return real(ruleset, text)

        monkeypatch.setattr(labeling, "match_rules", counting)
        assert main(["label", "--input", str(small_docs),
                     "--out", str(tmp_path / "ds.tsv"),
                     "--classes", "cholera,non_epidemic"]) == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["message"] == ("the non-epidemic class is always implied; "
                                     "include only epidemic classes")
        assert calls == []
        assert not (tmp_path / "ds.tsv").exists()


class TestPipelineConfig:
    def test_bad_ratio(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs=("x",), out_dir=str(tmp_path), ratio=1.5)

    def test_empty_classes(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs=("x",), out_dir=str(tmp_path),
                           included_classes=())

    def test_non_epidemic_not_includable(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs=("x",), out_dir=str(tmp_path),
                           included_classes=(EC.NON_EPIDEMIC,))

    def test_no_inputs(self, tmp_path):
        with pytest.raises(ConfigError, match="no input paths"):
            PipelineConfig(inputs=(), out_dir=str(tmp_path))

    def test_colliding_paths(self):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs=("same",), out_dir="same")

    def test_unknown_policy(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown multi-match policy 'bogus'"):
            PipelineConfig(inputs=("x",), out_dir=str(tmp_path), policy="bogus")

    def test_unknown_model_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs=("x",), out_dir=str(tmp_path),
                           model_kinds=("forest",))

    def test_seed_derivation_is_stable_and_distinct(self):
        assert derive_seed(42, "split") == derive_seed(42, "split")
        assert derive_seed(42, "split") != derive_seed(42, "tree")
        assert derive_seed(42, "split") != derive_seed(43, "split")


class TestCli:
    def test_stage_chain(self, small_corpus, tmp_path, capsys):
        docs = tmp_path / "docs.tsv"
        dataset = tmp_path / "dataset.tsv"
        out = tmp_path / "cli-out"
        assert main(["ingest", "--input", small_corpus, "--out", str(docs),
                     "--stats", str(tmp_path / "stats.json"),
                     "--threads", "1"]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["documents"] > 0
        assert main(["label", "--input", str(docs), "--out", str(dataset),
                     "--seed", "99", "--stats", str(tmp_path / "label.json")]) == 0
        assert main(["train", "--dataset", str(dataset), "--out", str(out),
                     "--model", "logistic", "--seed", "99"]) == 0
        assert main(["eval", "--dataset", str(dataset),
                     "--tfidf", str(out / "tfidf.json"),
                     "--model-file", str(out / "model-logistic.json"),
                     "--out", str(out)]) == 0
        assert (out / "report-logistic.json").exists()
        assert main(["report", "--report", str(out / "report-logistic.json"),
                     "--format", "tsv"]) == 0
        captured = capsys.readouterr()
        assert "class\tprecision\trecall\tf1\tsupport" in captured.out

    def test_run_subcommand(self, small_corpus, tmp_path, capsys):
        code = main(["run", "--input", small_corpus,
                     "--out", str(tmp_path / "run-out"),
                     "--model", "logistic", "--seed", "1", "--threads", "1"])
        assert code == 0
        assert "weighted_f1=" in capsys.readouterr().out
        assert (tmp_path / "run-out" / "manifest.json").exists()

    def test_missing_input_exits_3_with_error_record(self, tmp_path, capsys):
        code = main(["run", "--input", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["stage"] == "ingest"
        assert record["error"] == "DataError"

    @pytest.mark.parametrize("argv, stage", [
        pytest.param(["train", "--dataset", "x", "--out", "y", "--ratio", "abc"],
                     "train", id="invalid-float"),
        pytest.param(["train", "--out", "y"], "train", id="missing-flag"),
        pytest.param(["label", "--input", "x", "--out", "y", "--policy", "first"],
                     "label", id="unknown-choice"),
        pytest.param(["train", "--dataset", "x", "--out", "y", "--bogus"],
                     "train", id="unknown-flag"),
        pytest.param(["fly"], "cli", id="unknown-subcommand"),
        pytest.param([], "cli", id="no-subcommand"),
        pytest.param(["synth", "--out", "x", "--counts", "cholera"],
                     "synth", id="count-without-value"),
        pytest.param(["synth", "--out", "x", "--counts", ","],
                     "synth", id="no-counts"),
        pytest.param(["synth", "--out", "x", "--counts", "cholera=5,cholera=7"],
                     "synth", id="count-twice"),
        # refused before the missing input is opened, which would exit 3
        pytest.param(["ingest", "--input", "missing.jsonl", "--out", "y",
                      "--threads", "0"], "ingest", id="ingest-no-threads"),
        pytest.param(["run", "--input", "x", "--out", "y", "--threads", "0"],
                     "run", id="run-no-threads"),
        pytest.param(["run", "--input", "missing.jsonl", "--out", "y",
                      "--classes", "cholera,cholera"], "run", id="run-class-twice"),
        pytest.param(["label", "--input", "missing.tsv", "--out", "y",
                      "--classes", "cholera,cholera"], "label", id="label-class-twice"),
    ])
    def test_usage_error_exits_2_with_one_error_record(self, capsys, argv, stage):
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert (record["stage"], record["error"]) == (stage, "ConfigError")

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["train", "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: episilver train")

    @pytest.mark.parametrize("classes", ["plague", ""])
    @pytest.mark.parametrize("command", ["run", "label"])
    def test_bad_class_list_exits_2(self, small_corpus, small_docs, tmp_path,
                                    capsys, command, classes):
        source = small_corpus if command == "run" else str(small_docs)
        out = tmp_path / "o"
        threads = ["--threads", "1"] if command == "run" else []
        code = main([command, "--input", source, "--out", str(out),
                     "--classes", classes, *threads])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("flag, spelling", [
        pytest.param(flag, spelling,
                     id=flag if spelling == "absolute" else f"{flag}-{spelling}")
        for spelling in ("absolute", "relative", "symlink")
        for flag in ("--out", "--stats")])
    @pytest.mark.parametrize("command", ["ingest", "label"])
    def test_output_over_input_exits_2(self, small_corpus, small_docs, tmp_path,
                                       capsys, monkeypatch, command, flag, spelling):
        """The output names the input's file: by the same absolute path, by
        a path relative to the working directory, or through a symlink."""
        original = Path(
            small_corpus if command == "ingest" else small_docs).read_bytes()
        source = tmp_path / "input"
        source.write_bytes(original)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(source)
        same_file = {"absolute": str(source), "relative": "input",
                     "symlink": str(tmp_path / "link")}[spelling]
        outputs = {"--out": str(tmp_path / "out.tsv"),
                   "--stats": str(tmp_path / "stats.json"), flag: same_file}
        threads = ["--threads", "1"] if command == "ingest" else []
        code = main([command, "--input", str(source), *threads,
                     *(arg for item in outputs.items() for arg in item)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert f"{source} and {same_file} name the same file" in record["message"]
        assert source.read_bytes() == original

    @pytest.mark.parametrize("flag", ["--out", "--stats"])
    def test_label_output_over_its_ruleset_exits_2(
            self, small_docs, tmp_path, capsys, flag):
        rules, rule = tmp_path / "rules.tsv", b"cholera\t0\t0\t\\bcholera\\b\n"
        rules.write_bytes(rule)
        outputs = {"--out": str(tmp_path / "ds.tsv"),
                   "--stats": str(tmp_path / "stats.json"), flag: str(rules)}
        code = main(["label", "--input", str(small_docs), "--ruleset", str(rules),
                     "--classes", "cholera",
                     *(arg for item in outputs.items() for arg in item)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert (record["stage"], record["error"]) == ("label", "ConfigError")
        assert f"{rules} and {rules} name the same file" in record["message"]
        assert rules.read_bytes() == rule

    @pytest.mark.parametrize("command, flag, name", [
        ("run", "--input", "manifest.json"),
        ("run", "--input", "dataset.tsv"),
        ("run", "--ruleset", "model-tree.json"),
        ("train", "--dataset", "tfidf.json"),
        ("train", "--ruleset", "tfidf.json"),
        ("train", "--ruleset", "model-svm.json"),
        ("eval", "--dataset", "confusion-logistic.csv"),
        ("eval", "--tfidf", "report-logistic.tsv"),
        ("eval", "--model-file", "report-logistic.json"),
    ])
    def test_input_named_like_an_output_exits_2(
            self, small_corpus, default_run, tmp_path, capsys, command, flag, name):
        """An input that lies in --out under the name of a file that the
        command writes there is refused before anything is written."""
        out = tmp_path / "out"
        out.mkdir()
        rules = Path(labeling.__file__).with_name(labeling.DEFAULT_RULES_RESOURCE)
        flags = {
            "run": {"--input": small_corpus, "--ruleset": str(rules),
                    "--threads": "1"},
            "train": {"--dataset": str(default_run / "dataset.tsv"),
                      "--ruleset": str(rules), "--mask-keywords": None},
            "eval": {"--dataset": str(default_run / "dataset.tsv"),
                     "--tfidf": str(default_run / "tfidf.json"),
                     "--model-file": str(default_run / "model-logistic.json")},
        }[command]
        original = Path(flags[flag]).read_bytes()
        (out / name).write_bytes(original)
        flags[flag] = str(out / name)
        argv = [command, "--out", str(out)]
        for key, value in flags.items():
            argv += [key] if value is None else [key, value]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert (record["stage"], record["error"]) == (command, "ConfigError")
        assert f"{out / name} and {out / name} name the same file" in record["message"]
        assert sorted(p.name for p in out.iterdir()) == [name]
        assert (out / name).read_bytes() == original

    def test_same_input_twice_exits_2(self, small_corpus, tmp_path, capsys):
        """Two inputs that name one file: the message names both paths and
        no output, since none is involved."""
        out = tmp_path / "out.tsv"
        code = main(["ingest", "--input", small_corpus, small_corpus,
                     "--out", str(out), "--threads", "1"])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert f"{small_corpus} and {small_corpus} name the same file" in record["message"]
        assert "output" not in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_threads_below_one_exit_2(
            self, small_corpus, tmp_path, capsys, command, threads):
        out = tmp_path / "out"
        code = main([command, "--input", small_corpus, "--out", str(out),
                     "--threads", threads])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert (record["stage"], record["error"]) == (command, "ConfigError")
        assert f"got {threads}" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("damage, code, names", [
        (b"cholera\t0\t0\t\\bcholera\\b\nebola\t0\t1\t\\beb\xffola\n", 3,
         "{path}: not valid UTF-8 at byte 38"),
        (b"# rules\ncholera\t0\t0\t([\n", 2, "{path}:2: rule cholera"),
    ], ids=["undecodable", "bad-pattern"])
    @pytest.mark.parametrize("command", ["label", "run"])
    def test_ruleset_error_names_the_file(self, small_corpus, small_docs, tmp_path,
                                          capsys, command, damage, code, names):
        rules = tmp_path / "rules.tsv"
        rules.write_bytes(damage)
        source = small_corpus if command == "run" else str(small_docs)
        assert main([command, "--input", source, "--out", str(tmp_path / "o"),
                     "--ruleset", str(rules)]) == code
        (line,) = capsys.readouterr().err.splitlines()
        assert names.format(path=rules) in json.loads(line)["message"]

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_bad_ratio_exits_2(self, small_corpus, default_run, tmp_path,
                               capsys, command):
        argv = {
            "run": ["run", "--input", small_corpus],
            "train": ["train", "--dataset", str(default_run / "dataset.tsv")],
        }[command]
        code = main([*argv, "--out", str(tmp_path / "o"), "--ratio", "2.0"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"

    def test_every_config_field_is_reachable(self, monkeypatch, tmp_path):
        """`run` sets every PipelineConfig field from an option: a field no
        option reaches is a knob that nothing can turn."""
        captured = []

        def fake_run(config):
            captured.append(config)
            return pipeline.RunResult(manifest={}, out_dir=tmp_path)

        monkeypatch.setattr(pipeline, "run_pipeline", fake_run)
        assert main(["run", "--input", "a.jsonl", "--out", "o",
                     "--ruleset", "rules.json", "--classes", "cholera",
                     "--policy", "priority", "--ratio", "0.5", "--seed", "7",
                     "--model", "svm", "--lang", "none", "--mask-keywords",
                     "--threads", "2"]) == 0
        (config,) = captured
        for f in dataclasses.fields(PipelineConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(config, f.name) != f.default, f.name

    def test_single_class_dataset_exits_4(self, tmp_path, capsys):
        dataset = tmp_path / "ds.tsv"
        rows = ["id\tlabel\ttext"] + [
            f"{i}\tnon_epidemic\tplain doc {i}" for i in range(8)
        ]
        dataset.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "out"), "--model", "logistic"])
        assert code == 4
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DegenerateLabelsError"

    def test_empty_validation_split_exits_3_before_training(self, tmp_path, capsys):
        """Two examples of each class at the default ratio, 0.75, leave none
        for validation: `run` and `train` refuse the split instead of
        writing models that no `eval` can score."""
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
        assert main(["synth", "--out", str(corpus), "--seed", "1",
                     "--counts", "cholera=2,non_epidemic=4"]) == 0
        assert main(["run", "--input", str(corpus), "--out", str(out),
                     "--classes", "cholera", "--threads", "1"]) == 3
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--out", str(tmp_path / "staged")]) == 3
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(r["stage"], r["error"]) for r in records] == [
            ("split", "StratificationError"), ("train", "StratificationError")]
        for record in records:
            assert "ratio 0.75" in record["message"] and " 4" in record["message"]
        assert sorted(p.name for p in out.iterdir()) == ["dataset.tsv"]
        assert not (tmp_path / "staged").exists()

    def test_eval_rejects_foreign_feature_model(self, small_corpus, tmp_path, capsys):
        docs = tmp_path / "docs.tsv"
        dataset = tmp_path / "ds.tsv"
        out = tmp_path / "out"
        main(["ingest", "--input", small_corpus, "--out", str(docs),
              "--threads", "1", "--stats", str(tmp_path / "s.json")])
        main(["label", "--input", str(docs), "--out", str(dataset),
              "--stats", str(tmp_path / "l.json")])
        main(["train", "--dataset", str(dataset), "--out", str(out),
              "--model", "logistic"])
        # tamper: retrain features on a subset so checksums disagree
        sub = tmp_path / "sub"
        main(["train", "--dataset", str(dataset), "--out", str(sub),
              "--model", "logistic", "--ratio", "0.5"])
        code = main(["eval", "--dataset", str(dataset),
                     "--tfidf", str(sub / "tfidf.json"),
                     "--model-file", str(out / "model-logistic.json"),
                     "--out", str(out)])
        assert code == 3


@pytest.fixture(scope="module")
def bad_inputs(small_corpus, default_run, tmp_path_factory):
    """Damaged gzip streams, undecodable text, an unknown class label, and
    model, feature and report files that are malformed."""
    root = tmp_path_factory.mktemp("bad-inputs")
    (root / "good.jsonl").write_bytes(Path(small_corpus).read_bytes())
    compressed = gzip.compress(Path(small_corpus).read_bytes(), mtime=0)
    (root / "truncated.jsonl.gz").write_bytes(compressed[: len(compressed) // 2])
    corrupt = bytearray(compressed)
    corrupt[100] ^= 0xFF  # inside the deflate stream: zlib.error on read
    (root / "corrupt.jsonl.gz").write_bytes(bytes(corrupt))
    (root / "not-gzip.jsonl.gz").write_bytes(Path(small_corpus).read_bytes())
    lines = (default_run / "dataset.tsv").read_text(encoding="utf-8").splitlines()
    lines[2] = "\t".join([lines[2].split("\t")[0], "plague", "a b c"])
    (root / "bad-label.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = json.loads((default_run / "model-logistic.json").read_text())
    del model["classes"]
    (root / "no-classes.json").write_text(json.dumps(model))
    (root / "undecodable.tsv").write_bytes(b"id\ttext\n1\tplain\n2\t\xff\xfe text\n")
    (root / "no-vocabulary.json").write_text(json.dumps({"format_version": 1}))
    (root / "bad-report.json").write_text("{bad")
    return {"dir": str(root), "run": str(default_run)}


@pytest.mark.parametrize("argv, stage, names", [
    (["run", "--input", "{dir}/truncated.jsonl.gz", "--out", "{dir}/o",
      "--threads", "1"], "ingest", "{dir}/truncated.jsonl.gz"),
    (["ingest", "--input", "{dir}/truncated.jsonl.gz", "--out", "{dir}/d.tsv",
      "--threads", "1"], "ingest", "{dir}/truncated.jsonl.gz"),
    (["ingest", "--input", "{dir}/corrupt.jsonl.gz", "--out", "{dir}/d.tsv",
      "--threads", "1"], "ingest", "{dir}/corrupt.jsonl.gz"),
    (["ingest", "--input", "{dir}/missing.jsonl", "--out", "{dir}/d.tsv"],
     "ingest", "{dir}/missing.jsonl"),
    (["train", "--dataset", "{dir}/missing.tsv", "--out", "{dir}/o"], "train",
     "{dir}/missing.tsv"),
    (["eval", "--dataset", "{run}/dataset.tsv", "--tfidf", "{run}/tfidf.json",
      "--model-file", "{dir}/no-classes.json", "--out", "{dir}/o"], "eval",
     "{dir}/no-classes.json"),
    (["label", "--input", "{dir}/undecodable.tsv", "--out", "{dir}/ds.tsv"],
     "label", "{dir}/undecodable.tsv:3"),
    (["eval", "--dataset", "{run}/dataset.tsv", "--tfidf", "{dir}/no-vocabulary.json",
      "--model-file", "{run}/model-logistic.json", "--out", "{dir}/o"], "eval",
     "{dir}/no-vocabulary.json"),
    (["report", "--report", "{dir}/bad-report.json"], "report",
     "{dir}/bad-report.json"),
    (["ingest", "--input", "{dir}/not-gzip.jsonl.gz", "--out", "{dir}/d.tsv",
      "--threads", "2"], "ingest", "{dir}/not-gzip.jsonl.gz"),
    (["train", "--dataset", "{dir}/bad-label.tsv", "--out", "{dir}/o"], "train",
     "{dir}/bad-label.tsv:3: unknown class label 'plague'"),
    (["eval", "--dataset", "{dir}/bad-label.tsv", "--tfidf", "{run}/tfidf.json",
      "--model-file", "{run}/model-tree.json", "--out", "{dir}/o"], "eval",
     "{dir}/bad-label.tsv:3: unknown class label 'plague'"),
    (["ingest", "--input", "{dir}/good.jsonl", "{dir}/truncated.jsonl.gz",
      "--out", "{dir}/d.tsv", "--threads", "2"], "ingest",
     "{dir}/truncated.jsonl.gz"),
    (["ingest", "--input", "{dir}/good.jsonl", "{dir}/missing.jsonl",
      "--out", "{dir}/d.tsv", "--threads", "2"], "ingest", "{dir}/missing.jsonl"),
], ids=["run-truncated-gz", "ingest-truncated-gz", "ingest-corrupt-gz",
        "ingest-missing-input", "train-missing-dataset",
        "eval-model-without-classes", "label-undecodable-docs",
        "eval-tfidf-without-vocabulary", "report-invalid-json",
        "ingest-not-gzip", "train-unknown-label", "eval-unknown-label",
        "ingest-workers-truncated-gz", "ingest-workers-missing-input"])
def test_bad_input_exits_3_with_one_json_line(bad_inputs, argv, stage, names):
    src = str(Path(episilver.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "episilver.cli",
         *(arg.format(**bad_inputs) for arg in argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    record = json.loads(lines[0])
    assert record["stage"] == stage
    assert record["error"] == "DataError"
    assert names.format(**bad_inputs) in record["message"]


LONG_VALUE = "x" * 100_000


def _model_with(run, edit):
    doc = json.loads((run / "model-logistic.json").read_text())
    edit(doc)
    return json.dumps(doc).encode()


def _long_first_class(doc):
    doc["classes"][0] = LONG_VALUE


def _first_class_of(char):
    """A first class label of 100,000 characters that JSON escapes to 6
    (é) or 12 (U+1F637, a surrogate pair) bytes each."""
    def edit(doc):
        doc["classes"][0] = char * 100_000
    return edit


def _overflowing_weight(run):
    """A weight written 1e400, which parses as inf; json.dumps cannot write
    it, so it goes in as text."""
    def edit(doc):
        doc["weights"][0][0] = "1e400"
    return _model_with(run, edit).replace(b'"1e400"', b"1e400")


def _dataset_with_long_label(run):
    header, first, *rest = (run / "dataset.tsv").read_text().splitlines(True)
    tweet_id, _, text = first.split("\t")
    return "".join([header, f"{tweet_id}\t{LONG_VALUE}\t{text}", *rest]).encode()


@pytest.mark.parametrize("loader, content", [
    pytest.param("report", None, id="report"),
    pytest.param("tfidf", None, id="tfidf"),
    pytest.param("model", None, id="model"),
    pytest.param("model", lambda run: _model_with(
        run, lambda doc: doc.update(final_grad_norm=LONG_VALUE)),
        id="model-long-grad-norm"),
    pytest.param("model", lambda run: _model_with(run, _long_first_class),
                 id="model-long-class"),
    pytest.param("model", lambda run: _model_with(run, _first_class_of("é")),
                 id="model-long-class-e-acute"),
    pytest.param("model", lambda run: _model_with(
        run, _first_class_of("\U0001F637")), id="model-long-class-astral"),
    pytest.param("model", _overflowing_weight, id="model-1e400-weight"),
    pytest.param("dataset", _dataset_with_long_label, id="dataset-long-label"),
])
def test_loader_error_is_short_and_names_the_file(
        default_run, tmp_path, capsys, loader, content):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(random.Random(7).randbytes(100_000) if content is None
                     else content(default_run))
    run = {"dataset": str(default_run / "dataset.tsv"),
           "tfidf": str(default_run / "tfidf.json"),
           "model": str(default_run / "model-logistic.json"), loader: str(junk)}
    argv = ["report", "--report", str(junk)] if loader == "report" else [
        "eval", "--dataset", run["dataset"], "--tfidf", run["tfidf"],
        "--model-file", run["model"], "--out", str(tmp_path)]
    assert main(argv) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert len(line.encode("utf-8")) < 1024
    assert str(junk) in json.loads(line)["message"]


def _damage_report(doc):
    doc["class_order"], doc["per_class"], doc["confusion"] = [], [], []


def _zero_support(doc):
    for m in doc["per_class"]:
        m["support"] = 0


def _edit_summary(doc):
    doc.update(accuracy=0.1, weighted_f1=0.2, zero_division=["cholera"])


def _bool_count(doc):
    doc["confusion"][0][0] = True


REPORT_DAMAGE = {
    "empty-class-order": _damage_report,
    "string-metric": lambda doc: doc["per_class"][0].update(precision="a"),
    "bool-metric": lambda doc: doc["per_class"][1].update(recall=True),
    "infinite-metric": lambda doc: doc.update(accuracy=float("inf")),
    "negative-support": lambda doc: doc["per_class"][0].update(support=-1),
    "float-support": lambda doc: doc["per_class"][0].update(support=2.5),
    "zero-total-support": _zero_support,
    "all-zero-confusion": lambda doc: doc.update(
        confusion=[[0] * len(row) for row in doc["confusion"]]),
    "rows-out-of-order": lambda doc: doc["per_class"].reverse(),
    "row-missing": lambda doc: doc["per_class"].pop(),
    "confusion-row-missing": lambda doc: doc["confusion"].pop(),
    "confusion-column-missing": lambda doc: doc["confusion"][0].pop(),
    "edited-summary": _edit_summary,
    "extra-key": lambda doc: doc.update(note=None),
    "bool-count": _bool_count,
    "nudged-f1": lambda doc: doc["per_class"][0].update(
        f1=doc["per_class"][0]["f1"] + 1e-12),
    "dict-model-id": lambda doc: doc.update(model_id={"x": [1]}),
    "huge-count": lambda doc: doc["confusion"][0].__setitem__(0, 2**64),
}


@pytest.mark.parametrize("fmt", ["tsv", "json", "confusion"])
@pytest.mark.parametrize("damage", REPORT_DAMAGE)
def test_report_with_a_bad_value_is_a_data_error(
        default_run, tmp_path, capsys, damage, fmt):
    doc = json.loads((default_run / "report-logistic.json").read_text())
    REPORT_DAMAGE[damage](doc)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--report", str(path), "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DataError" and str(path) in record["message"]


def test_report_names_the_values_its_matrix_does_not_give(
        default_run, tmp_path, capsys):
    doc = json.loads((default_run / "report-logistic.json").read_text())
    _edit_summary(doc)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--report", str(path)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert ("accuracy, weighted_f1, zero_division not as the confusion matrix "
            "gives") in json.loads(line)["message"]


@pytest.mark.parametrize("kind", ["logistic", "svm", "tree"])
def test_report_json_reproduces_the_file(default_run, capsysbinary, kind):
    """Each `--format` renders from the report JSON the bytes of the file
    that `run` wrote in that format."""
    path = default_run / f"report-{kind}.json"
    for fmt, written in [("json", path), ("tsv", f"report-{kind}.tsv"),
                         ("confusion", f"confusion-{kind}.csv")]:
        assert main(["report", "--report", str(path), "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == (
            default_run / written).read_bytes(), fmt


def test_train_model_refuses_an_unknown_kind(tmp_path):
    texts = ["cholera outbreak", "plain words", "cholera cases", "more words"]
    tfidf, X = pipeline.fit_features(texts, None, 0.5, 0, tmp_path)
    y = [EC.CHOLERA, EC.NON_EPIDEMIC] * 2
    with pytest.raises(ConfigError, match="unknown model kind 'bogus'"):
        pipeline.train_model("bogus", X, y, 0, tfidf, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tfidf.json"]


@pytest.mark.parametrize("name", ["model-logistic.json", "model-svm.json",
                                  "model-tree.json", "tfidf.json"])
def test_saving_a_loaded_file_gives_its_bytes(default_run, tmp_path, name):
    """Every file the program writes loads: re-saving gives it back."""
    path, copy = default_run / name, tmp_path / name
    if name == "tfidf.json":
        tfidf, split = features.load_tfidf(path)
        features.save_tfidf(tfidf, copy, split)
    else:
        model, checksum = models.load_model(path)
        models.save_model(model, copy, checksum)
    assert copy.read_bytes() == path.read_bytes()


def _as_tree(doc):
    """The document of a valid three-node tree over the linear model's
    classes (`eval` accepts it), so that a damaged tree field is the one
    fault of the file."""
    for key in ("n_iter", "cg_products", "converged", "final_grad_norm",
                "loss_histories", "bias", "weights"):
        del doc[key]
    doc.update(kind="tree", hyperparams={"max_depth": 150, "seed": 0}, nodes=[
        {"feature": 0, "threshold": 0.5, "right": 2},
        {"leaf": 0}, {"leaf": 1}])
    return doc


def _pad_first_class(doc):
    doc["classes"][0] = " " + doc["classes"][0].capitalize()


def _string_loss(doc):
    doc["loss_histories"][0][1] = str(doc["loss_histories"][0][1])


def _string_weight(doc):
    doc["weights"][0][0] = str(doc["weights"][0][0])


MODEL_DAMAGE = {
    **{f"no-{key}": (lambda doc, key=key: doc.pop(key)) for key in (
        "n_iter", "cg_products", "converged", "final_grad_norm",
        "loss_histories")},
    "string-converged": lambda doc: doc.update(converged="no"),
    "int-converged": lambda doc: doc.update(converged=1),
    "coerced-record": lambda doc: doc.update(
        n_iter="7", cg_products=12.9, final_grad_norm="nan"),
    "float-dim": lambda doc: doc.update(dim=float(doc["dim"])),
    "string-dim": lambda doc: doc.update(dim=str(doc["dim"])),
    "padded-class": _pad_first_class,
    "string-strength": lambda doc: doc["hyperparams"].update(strength="1.0"),
    "string-loss": _string_loss,
    "string-weight": _string_weight,
    "extra-key": lambda doc: doc.update(note=None),
    "tree-string-max-depth": lambda doc: _as_tree(doc)["hyperparams"].update(
        max_depth="150"),
    "tree-float-leaf": lambda doc: _as_tree(doc)["nodes"][2].update(leaf=1.0),
    "tree-string-threshold": lambda doc: _as_tree(doc)["nodes"][0].update(
        threshold="0.5"),
    "tree-feature-outside": lambda doc: _as_tree(doc)["nodes"][0].update(
        feature=doc["dim"]),
    "tree-no-nodes": lambda doc: _as_tree(doc).update(nodes=[]),
    # a record that contradicts itself: n_iter and converged are what the
    # histories and the final gradient norm give
    "n_iter-plus-one": lambda doc: doc.update(n_iter=doc["n_iter"] + 1),
    "converged-flipped": lambda doc: doc.update(converged=not doc["converged"]),
    "norm-above-tol": lambda doc: doc.update(final_grad_norm=1.0),
    # numbers that no float or int of the model holds
    "nan-weight": lambda doc: doc["weights"][0].__setitem__(0, math.nan),
    "huge-weight": lambda doc: doc["weights"][0].__setitem__(0, 10**400),
    "infinite-bias": lambda doc: doc["bias"].__setitem__(0, math.inf),
    "infinite-max-iter": lambda doc: doc["hyperparams"].update(max_iter=math.inf),
    "tree-infinite-feature": lambda doc: _as_tree(doc)["nodes"][0].update(
        feature=math.inf),
    "tree-infinite-right": lambda doc: _as_tree(doc)["nodes"][0].update(
        right=math.inf),
}


@pytest.mark.parametrize("damage", MODEL_DAMAGE)
def test_model_file_without_its_convergence_record_is_rejected(
        default_run, tmp_path, capsys, damage):
    doc = json.loads((default_run / "model-logistic.json").read_text())
    MODEL_DAMAGE[damage](doc)
    path = tmp_path / "model-logistic.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--dataset", str(default_run / "dataset.tsv"),
                 "--tfidf", str(default_run / "tfidf.json"),
                 "--model-file", str(path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DataError" and str(path) in record["message"]


@pytest.mark.parametrize("damage, key", [
    ("n_iter-plus-one", "n_iter"), ("converged-flipped", "converged"),
    ("norm-above-tol", "converged")])
def test_self_contradicting_model_file_names_the_key(default_run, tmp_path,
                                                     damage, key):
    doc = json.loads((default_run / "model-logistic.json").read_text())
    MODEL_DAMAGE[damage](doc)
    path = tmp_path / "model-logistic.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"ValueError: {key} not as saving it again"):
        models.load_model(path)


def test_model_file_of_the_previous_format_is_rejected(default_run, tmp_path, capsys):
    doc = json.loads((default_run / "model-logistic.json").read_text())
    doc["format_version"] = 1
    doc["hyperparams"]["seed"] = 0
    old = tmp_path / "model-logistic.json"
    old.write_text(json.dumps(doc))
    assert main(["eval", "--dataset", str(default_run / "dataset.tsv"),
                 "--tfidf", str(default_run / "tfidf.json"),
                 "--model-file", str(old), "--out", str(tmp_path)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert "unsupported format version" in json.loads(line)["message"]


def test_the_tree_of_the_damage_cases_scores(default_run, tmp_path):
    """`_as_tree` gives a file that `eval` accepts, so each `tree-*` case
    above holds one fault."""
    doc = _as_tree(json.loads((default_run / "model-logistic.json").read_text()))
    path = tmp_path / "model-tree.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--dataset", str(default_run / "dataset.tsv"),
                 "--tfidf", str(default_run / "tfidf.json"),
                 "--model-file", str(path), "--out", str(tmp_path / "out")]) == 0


def _format_2_model(doc):
    """The linear model file as format 2 wrote it: each weight row lists the
    indices of its nonzero values."""
    doc["format_version"] = 2
    doc["weights"] = [{"indices": [i for i, v in enumerate(row) if v],
                       "values": [v for v in row if v]} for row in doc["weights"]]


def _format_2_tfidf(doc):
    """The feature file as format 2 wrote it: each token's column beside its
    document frequency."""
    doc["format_version"] = 2
    doc["vocabulary"] = {token: [i, doc["vocabulary"][token]]
                         for i, token in enumerate(sorted(doc["vocabulary"]))}


@pytest.mark.parametrize("name, damage", [
    ("model-logistic.json", _format_2_model), ("tfidf.json", _format_2_tfidf)])
def test_files_of_the_previous_layout_are_rejected(
        default_run, tmp_path, capsys, name, damage):
    doc = json.loads((default_run / name).read_text())
    damage(doc)
    files = {"tfidf.json": default_run / "tfidf.json",
             "model-logistic.json": default_run / "model-logistic.json",
             name: tmp_path / name}
    files[name].write_text(json.dumps(doc))
    assert main(["eval", "--dataset", str(default_run / "dataset.tsv"),
                 "--tfidf", str(files["tfidf.json"]),
                 "--model-file", str(files["model-logistic.json"]),
                 "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    message = json.loads(line)["message"]
    assert str(files[name]) in message and "unsupported format version" in message


def _format_1(doc):
    """The feature file as format 1 wrote it: no split record."""
    doc["format_version"] = 1
    doc.pop("split", None)


def _first_doc_freq(value):
    def edit(doc):
        doc["vocabulary"][min(doc["vocabulary"])] = value
    return edit


@pytest.mark.parametrize("damage, names", [
    (_format_1, "unsupported format version"),
    (lambda doc: doc["split"].update(ratio="0.75"), "split not as saving it"),
    (lambda doc: doc["split"].update(ratio=1.5), "split ratio 1.5 outside (0, 1)"),
    (_first_doc_freq(math.inf), "ValueError: non-finite number Infinity"),
    (_first_doc_freq(10**400), "OverflowError: int too large to convert to float"),
], ids=["format-1", "string-ratio", "ratio-above-1", "infinite-doc-freq",
        "huge-doc-freq"])
def test_feature_file_without_a_valid_split_is_rejected(
        default_run, tmp_path, capsys, damage, names):
    doc = json.loads((default_run / "tfidf.json").read_text())
    damage(doc)
    path = tmp_path / "tfidf.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--dataset", str(default_run / "dataset.tsv"),
                 "--tfidf", str(path),
                 "--model-file", str(default_run / "model-logistic.json"),
                 "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DataError"
    assert str(path) in record["message"] and names in record["message"]


FRONT_HALF = """
import json, sys
from episilver.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:  # --help
        codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": [
    m for m in ("numpy", "scipy", "multiprocessing", "concurrent.futures.process")
    if m in sys.modules]}))
"""


def test_front_half_loads_no_numeric_package(tmp_path):
    """`--help`, `synth`, `ingest` and `label` import neither numpy nor
    scipy, nor does `import episilver`; every export still resolves. An
    `ingest` of one file starts no worker pool, so it loads neither
    `multiprocessing` nor the process pool either."""
    src = str(Path(episilver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    corpus, docs = str(tmp_path / "corpus.jsonl"), str(tmp_path / "docs.tsv")
    commands = [
        ["--help"],
        ["synth", "--out", corpus, "--counts", "cholera=20,non_epidemic=40"],
        ["ingest", "--input", corpus, "--out", docs],
        ["label", "--input", docs, "--out", str(tmp_path / "ds.tsv"),
         "--classes", "cholera"],
    ]
    proc = subprocess.run([sys.executable, "-c", FRONT_HALF, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}, proc.stderr

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, episilver; "
         "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.stdout.strip() == "[]", proc.stderr
    for name in episilver.__all__:
        assert getattr(episilver, name) is not None, name
    assert set(episilver.__all__) <= set(dir(episilver))


def test_scoring_loads_no_scipy(default_run, tmp_path):
    """`eval` and `report` score a `train` output with numpy alone, and
    `train --model tree` trains the same tree: only the linear trainers
    import scipy."""
    src = str(Path(episilver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out, dataset = tmp_path / "train", str(default_run / "dataset.tsv")
    tree_out = tmp_path / "tree"
    assert main(["train", "--dataset", dataset, "--out", str(out), "--seed", "99"]) == 0
    commands = [["train", "--dataset", dataset, "--out", str(tree_out),
                 "--seed", "99", "--model", "tree"]] + [
        ["eval", "--dataset", dataset, "--tfidf", str(out / "tfidf.json"),
         "--model-file", str(out / f"model-{kind}.json"), "--out", str(out)]
        for kind in MODEL_KINDS
    ] + [
        ["report", "--report", str(out / f"report-{kind}.json"), "--format", fmt]
        for kind in MODEL_KINDS for fmt in ("tsv", "json", "confusion")
    ]
    proc = subprocess.run([sys.executable, "-c", FRONT_HALF, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "loaded": ["numpy"]}, proc.stderr
    for kind in MODEL_KINDS:
        assert ((out / f"report-{kind}.json").read_bytes()
                == (default_run / f"report-{kind}.json").read_bytes())
    assert ((tree_out / "model-tree.json").read_bytes()
            == (out / "model-tree.json").read_bytes())
