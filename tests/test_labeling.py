import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from episilver.corpus import NormalizedDocument
from episilver.errors import (
    BalanceError,
    ConfigError,
    DataError,
    DuplicateTextError,
    InsufficientNegativesError,
    PatternError,
)
from episilver.labeling import (
    EpidemicClass,
    LabeledExample,
    LabelRule,
    SilverDataset,
    build_silver_dataset,
    compile_ruleset,
    default_ruleset,
    label_documents,
    load_ruleset,
    match_classes,
    match_rules,
    parse_ruleset_text,
    read_dataset_tsv,
    read_tsv,
    resolve_label,
    sample_negatives,
    write_dataset_tsv,
)
from helpers import adversarial_strings, brute_match_classes

EC = EpidemicClass


class TestRulesetCompilation:
    def test_default_ruleset_shape(self):
        rs = default_ruleset()
        assert len(rs.rules) == 11
        priorities = [r.priority for r in rs.rules]
        assert len(set(priorities)) == len(priorities)
        by_key = {(r.target, r.case_sensitive): r.priority for r in rs.rules}
        assert by_key[(EC.SWINE_FLU, False)] < by_key[(EC.FLU, False)]
        assert (EC.HIV_AIDS, True) in by_key  # the uppercase-only rule
        assert default_ruleset() is rs  # loaded once

    def test_non_compiling_pattern(self):
        with pytest.raises(PatternError, match="cholera"):
            compile_ruleset([LabelRule(EC.CHOLERA, "([", False, 0)])

    def test_duplicate_priorities(self):
        rules = [
            LabelRule(EC.CHOLERA, r"\bcholera\b", False, 1),
            LabelRule(EC.EBOLA, r"\bebola\b", False, 1),
        ]
        with pytest.raises(ConfigError):
            compile_ruleset(rules)

    def test_empty_ruleset(self):
        with pytest.raises(ConfigError):
            compile_ruleset([])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "# comment line\n"
            "mers\t0\t0\t\\bmers\\b\n"
            "hiv_aids\t1\t1\t\\bAIDS\\b\n",
            encoding="utf-8",
        )
        rs = load_ruleset(path)
        assert len(rs.rules) == 2
        assert match_classes(rs, "MERS update") == {EC.MERS}
        assert match_classes(rs, "aids") == set()

    @pytest.mark.parametrize("text", [
        "mers\t0\t0\n",                    # missing field
        "mers\tx\t0\t\\bmers\\b\n",        # bad case flag
        "mers\t0\tz\t\\bmers\\b\n",        # bad priority
        "plague\t0\t0\t\\bplague\\b\n",    # unknown class
    ])
    def test_file_format_errors(self, text):
        with pytest.raises(ConfigError):
            parse_ruleset_text(text)


class TestMatching:
    def test_direct_keyword(self):
        assert match_classes(default_ruleset(), "Cholera outbreak in Haiti") == {EC.CHOLERA}

    def test_aids_case_law(self):
        rs = default_ruleset()
        assert match_classes(rs, "she aids the team") == set()
        assert match_classes(rs, "AIDS awareness") == {EC.HIV_AIDS}

    def test_word_boundary_blocks_embedding(self):
        assert match_classes(default_ruleset(), "farmers market") == set()

    def test_flu_not_matched_inside_influenza(self):
        assert match_classes(default_ruleset(), "influenza") == {EC.INFLUENZA}

    def test_hashtag_forms(self):
        rs = default_ruleset()
        assert match_classes(rs, "watch #ebola now") == {EC.EBOLA}
        assert match_classes(rs, "#SwineFlu") == {EC.SWINE_FLU}

    @given(st.sampled_from(["cholera", "ebola", "h1n1", "mers", "sars",
                            "influenza", "flu", "hiv", "swineflu",
                            "yellowfever"]),
           st.lists(st.booleans(), min_size=12, max_size=12))
    def test_case_insensitive_rules_fire_on_any_casing(self, keyword, mask):
        cased = "".join(
            c.upper() if flag else c for c, flag in zip(keyword, mask)
        )
        matches = match_classes(default_ruleset(), f"about {cased} today")
        assert matches == brute_match_classes(f"about {cased} today")
        assert len(matches) == 1

    @given(st.lists(st.booleans(), min_size=4, max_size=4))
    def test_aids_only_exact_uppercase(self, mask):
        cased = "".join(
            c.upper() if flag else c.lower() for c, flag in zip("aids", mask)
        )
        matches = match_classes(default_ruleset(), f"note {cased} here")
        assert (matches == {EC.HIV_AIDS}) == (cased == "AIDS")

    def test_oracle_equivalence_1000_strings(self):
        rs = default_ruleset()
        for text in adversarial_strings(seed=97, count=1000):
            assert match_classes(rs, text) == brute_match_classes(text), text


def _unfiltered(ruleset, text):
    return tuple(r for r, rx in zip(ruleset.rules, ruleset.compiled)
                 if rx.search(text))


# Patterns from a small grammar: literals, boundaries, classes, plain and
# case-scoped groups, alternations and repeats with minimum 0 and 1. An
# unbounded repeat of a body that itself repeats or alternates, such as
# (?:(?:.)+)+#, backtracks exponentially in re (seconds on 24 characters,
# twice that for every 2 more), so such a body gets only a bounded repeat;
# TestPrefilter.test_nested_repeat_keys covers their keys.
_ATOMS = st.one_of(
    st.sampled_from(["a", "s", "k", "i", "hiv", "sars", "kill", "#", "ß", "İ"])
    .map(re.escape),
    st.sampled_from([r"\b", r"\s+", ".", "[a-c]", "[#ks]", "[^a]"]),
)


_NESTS = re.compile(r"[*+|}]|\)\?")  # a repeat or an alternation in a body


def _repeat(body):
    quantifiers = ["?", "{0,2}", "{1,2}"]
    if not _NESTS.search(body):
        quantifiers += ["*", "+"]
    return st.sampled_from(quantifiers).map(lambda q: f"(?:{body}){q}")


def _compound(inner):
    seq = st.lists(inner, min_size=1, max_size=3).map("".join)
    return st.one_of(
        st.tuples(seq, seq).map("(?:{0[0]}|{0[1]})".format),
        st.tuples(seq, seq).map("({0[0]}|{0[1]})".format),
        seq.map("({})".format),
        seq.flatmap(_repeat),
        seq.map("(?i:{})".format),
        seq.map("(?-i:{})".format),
    )


_PATTERNS = st.lists(st.recursive(_ATOMS, _compound, max_leaves=6),
                     min_size=1, max_size=4).map("".join)
_RULES = st.lists(st.tuples(_PATTERNS, st.booleans()), min_size=1, max_size=3)
# Case-folding traps of Python's re: dotted capital I and dotless i fold
# to i, long s to s, the Kelvin sign to k; sharp s never matches ss.
_TEXTS = st.lists(
    st.sampled_from(["a", "A", "s", "S", "k", "K", "i", "I", "h", "H", "v",
                     "V", "#", " ", "\t", "İ", "ı", "ſ", "\u212a", "ß",
                     "hiv", "HİV", "sars", "ſars", "kill", "\u212aILL"]),
    max_size=12,
).map("".join)


class TestPrefilter:
    """Each rule's keys: the literals one of which every match contains."""

    def test_default_ruleset_prefilters(self):
        assert default_ruleset().keys == tuple(
            (i, k, True) for i, k in enumerate(
                ("swine", "h1n1", "ebola", "cholera", "influenza",
                 "flu", "yellow", "hiv", "mers", "sars"))
        ) + ((10, "AIDS", False),)

    def test_rule_without_literal_runs_in_full(self):
        rs = compile_ruleset([LabelRule(EC.FLU, "[0-9]+", False, 0)])
        assert rs.keys == ((0, "", False),)
        assert match_rules(rs, "flu season of 2009") == rs.rules
        assert match_rules(rs, "flu season") == ()

    @pytest.mark.parametrize("pattern,keys", [
        (r"(?:(?:hiv)+){1,2}", ("hiv",)),
        (r"(?:(?:hiv)+)+", ("hiv",)),
        (r"(?:(?:hiv|sars)+){1,2}", ("hiv", "sars")),
        (r"(?:(?:\s+hiv)+)+", ("hiv",)),
        (r"(?:(?:ka)?){1,2}kill", ("kill",)),
        (r"(?:(?:hiv)*)+", ("",)),
        (r"\b(swine\s*flu|swineflu)\b", ("swine",)),
    ])
    def test_nested_repeat_keys(self, pattern, keys):
        rs = compile_ruleset([LabelRule(EC.FLU, pattern, False, 0)])
        assert tuple(key for _, key, _ in rs.keys) == keys
        for text in ("hiv", "HIVhiv sars", "kakill", "no key", ""):
            assert match_rules(rs, text) == _unfiltered(rs, text), text

    @pytest.mark.parametrize("pattern,text", [
        (r"\bhiv\b", "hİv"),
        (r"\bHIV\b", "hıv"),
        (r"\bsars\b", "ſars"),
        (r"\bkill\b", "\u212aill"),
    ])
    def test_case_folding_is_the_rules_own(self, pattern, text):
        rs = compile_ruleset([LabelRule(EC.HIV_AIDS, pattern, False, 0)])
        assert rs.keys[0][1] != ""
        assert match_rules(rs, text) == _unfiltered(rs, text) == rs.rules

    @settings(max_examples=400, deadline=None)
    @given(_RULES, st.lists(_TEXTS, min_size=1, max_size=8))
    def test_prefilter_never_changes_the_match(self, specs, texts):
        rs = compile_ruleset([LabelRule(EC.FLU, pattern, case_sensitive, i)
                              for i, (pattern, case_sensitive) in enumerate(specs)])
        for text in texts:
            assert match_rules(rs, text) == _unfiltered(rs, text), (specs, text)


# Texts of ASCII characters only, on which match_rules runs only the
# rules with a key in the text: both cases, digits, '#', whitespace and
# the grammar's ASCII literals.
_ASCII_TEXTS = st.lists(
    st.sampled_from(["a", "A", "s", "S", "k", "K", "i", "I", "h", "H", "v",
                     "V", "c", "0", "9", "#", " ", "\t", "\n", "hiv", "HIV",
                     "Hiv", "sars", "SaRs", "kill", "KILL", "ss", "SS"]),
    max_size=12,
).map("".join)


class _NoSearch:
    def search(self, text):
        raise AssertionError(f"a pattern ran on {text!r}")


class TestGate:
    """ASCII text runs only the rules with a key in it."""

    def test_default_ruleset_gate(self):
        rs = default_ruleset()
        assert all(key for _, key, _ in rs.keys)
        unrun = dataclasses.replace(rs, compiled=(_NoSearch(),) * len(rs.rules))
        assert match_rules(unrun, "no health terms, even Aids or #mer here") == ()

    @pytest.mark.parametrize("pattern,text", [
        (r"[0-9]+", "season of 2009"),
        (r"\bgrippé\b", "la grippé"),
    ])
    def test_gate_off(self, pattern, text):
        rs = compile_ruleset([LabelRule(EC.CHOLERA, r"\bcholera\b", False, 0),
                              LabelRule(EC.FLU, pattern, False, 1)])
        assert rs.keys == ((0, "cholera", True), (1, "", False))
        assert match_rules(rs, text) == _unfiltered(rs, text) == rs.rules[1:]

    def test_case_scoped_literals_follow_the_pattern_flags(self):
        rs = compile_ruleset([LabelRule(EC.SWINE_FLU, r"\bSwine(?i:\s*flu)\b", True, 0),
                              LabelRule(EC.HIV_AIDS, r"(?i)\bHIV\b", True, 1),
                              LabelRule(EC.MERS, r"\bMERS\b", False, 2)])
        assert rs.keys == ((0, "Swine", False), (1, "hiv", True), (2, "mers", True))
        assert match_rules(rs, "HIV and Mers") == rs.rules[1:]
        assert match_rules(rs, "swine FLU") == ()

    @settings(max_examples=400, deadline=None)
    @given(_RULES, st.lists(_ASCII_TEXTS, min_size=1, max_size=8))
    def test_gate_never_changes_the_match_on_ascii_text(self, specs, texts):
        rs = compile_ruleset([LabelRule(EC.FLU, pattern, case_sensitive, i)
                              for i, (pattern, case_sensitive) in enumerate(specs)])
        for text in texts:
            assert match_rules(rs, text) == _unfiltered(rs, text), (specs, text)


class TestAssignLabel:
    """resolve_label over match_rules: the label of one text."""

    def test_priority_resolves_swine_flu(self):
        assert resolve_label(match_rules(default_ruleset(), "Swine flu cases rising"),
                             "priority") == EC.SWINE_FLU

    def test_exclude_drops_multi_match(self):
        assert resolve_label(
            match_rules(default_ruleset(), "ebola and cholera in the news"),
            "exclude") is None

    def test_no_match(self):
        assert resolve_label(match_rules(default_ruleset(), "no health terms here")) is None

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            resolve_label(match_rules(default_ruleset(), "flu"), "vote")

    def test_single_class_via_two_rules(self):
        # hiv and AIDS both map to hiv_aids: one distinct class, no exclusion
        assert resolve_label(
            match_rules(default_ruleset(), "HIV and AIDS research")) == EC.HIV_AIDS

    @given(st.text(alphabet=st.sampled_from(list("abceflorsuv #AIDS")), max_size=40))
    def test_label_is_drawn_from_match_set(self, text):
        rs = default_ruleset()
        matches = match_classes(rs, text)
        for policy in ("exclude", "priority"):
            label = resolve_label(match_rules(rs, text), policy)
            if label is not None:
                assert label in matches
        assert (resolve_label(match_rules(rs, text), "priority") is None) == (not matches)
        assert (resolve_label(match_rules(rs, text), "exclude") is None) \
            == (len(matches) != 1)


def _doc_stream(texts):
    return [NormalizedDocument(id=str(i), text=t) for i, t in enumerate(texts)]


class TestSampleNegatives:
    def test_deterministic(self):
        docs = _doc_stream([f"plain doc {i}" for i in range(100)])
        first = sample_negatives(docs, 10, seed=7)
        second = sample_negatives(docs, 10, seed=7)
        assert first == second
        assert sample_negatives(docs, 10, seed=8) != first
        assert all(ex.label is EC.NON_EPIDEMIC for ex in first)

    def test_zero_sample(self):
        assert sample_negatives(_doc_stream(["a doc"]), 0, 1) == []

    def test_insufficiency_reports_shortfall(self):
        docs = _doc_stream([f"plain {i}" for i in range(5)])
        with pytest.raises(InsufficientNegativesError) as exc:
            sample_negatives(docs, 10, 0)
        assert exc.value.shortfall == 5


class TestLabelDocuments:
    TEXTS = ([f"plain {i}" for i in range(30)]
             + ["flu alert", "ebola watch", "cholera again", "swine flu and ebola"])

    @pytest.mark.parametrize("policy", ["exclude", "priority"])
    def test_counts_cover_every_document(self, policy):
        docs = _doc_stream(self.TEXTS)
        _, stats = label_documents(docs, default_ruleset(), [EC.EBOLA, EC.FLU],
                                   policy, seed=4)
        ambiguous = 1 if policy == "exclude" else 0
        assert stats["ambiguous_excluded"] == ambiguous
        assert stats["unmatched"] == 30
        assert sum(stats["matched"].values()) + ambiguous + 30 == len(docs)
        assert stats["matched"]["cholera"] == 1

    def test_negatives_equal_sample_negatives(self):
        docs = _doc_stream(self.TEXTS)
        rs = default_ruleset()
        ds, _ = label_documents(docs, rs, [EC.EBOLA, EC.FLU], "exclude", seed=4)
        assert ds.class_counts == {EC.EBOLA: 1, EC.FLU: 1, EC.NON_EPIDEMIC: 2}
        pool = [doc for doc in docs if not match_rules(rs, doc.text)]
        assert list(ds.examples[2:]) == sample_negatives(pool, 2, seed=4)

    def test_epidemic_docs_never_sampled(self):
        # Documents of an excluded class and ambiguous ones outnumber the
        # two that match no rule; only those two may be drawn.
        texts = (["plain 0", "flu alert", "ebola watch", "plain 1"]
                 + [f"cholera case {i}" for i in range(20)]
                 + ["swine flu and ebola"])
        rs = default_ruleset()
        ds, _ = label_documents(_doc_stream(texts), rs, [EC.EBOLA, EC.FLU], seed=3)
        negatives = ds.examples[2:]
        assert {ex.text for ex in negatives} == {"plain 0", "plain 1"}
        for ex in negatives:
            assert ex.label is EC.NON_EPIDEMIC
            assert match_classes(rs, ex.text) == set()

    def test_insufficient_pool(self):
        docs = _doc_stream(["flu alert", "ebola watch", "plain"])
        with pytest.raises(InsufficientNegativesError) as exc:
            label_documents(docs, default_ruleset(), [EC.EBOLA, EC.FLU])
        assert exc.value.shortfall == 1

    def test_unknown_policy_before_any_document_is_read(self):
        def unread():
            raise AssertionError("a document was read")
            yield

        with pytest.raises(ConfigError, match="unknown multi-match policy 'bogus'"):
            label_documents(unread(), default_ruleset(), [EC.CHOLERA], policy="bogus")
        # documents that match no rule never reach the policy either
        with pytest.raises(ConfigError, match="unknown multi-match policy"):
            label_documents(_doc_stream(["plain"]), default_ruleset(), [EC.CHOLERA],
                            policy="bogus")


def _examples(cls, texts):
    return [LabeledExample(id=f"{cls.label}{i}", text=t, label=cls)
            for i, t in enumerate(texts)]


class TestSilverDataset:
    def test_published_counts_balance(self):
        counts = {EC.CHOLERA: 18_375, EC.EBOLA: 441_035, EC.MERS: 8_993,
                  EC.SWINE_FLU: 76_784, EC.NON_EPIDEMIC: 545_187}
        ds = SilverDataset.from_counts(counts)
        assert ds.total == 1_090_374

    def test_off_by_one_rejected(self):
        counts = {EC.CHOLERA: 18_375, EC.EBOLA: 441_035, EC.MERS: 8_993,
                  EC.SWINE_FLU: 76_784, EC.NON_EPIDEMIC: 545_186}
        with pytest.raises(BalanceError):
            SilverDataset.from_counts(counts)

    def test_build_and_counts(self):
        positives = {
            EC.CHOLERA: _examples(EC.CHOLERA, ["c one", "c two"]),
            EC.MERS: _examples(EC.MERS, ["m one"]),
        }
        negatives = _examples(EC.NON_EPIDEMIC, ["n1", "n2", "n3"])
        ds = build_silver_dataset(positives, negatives)
        assert ds.total == 6
        assert ds.class_counts == {EC.CHOLERA: 2, EC.MERS: 1, EC.NON_EPIDEMIC: 3}
        assert len({ex.text for ex in ds.examples}) == 6

    def test_empty_dataset_is_valid(self):
        ds = build_silver_dataset({}, [])
        assert ds.total == 0 and ds.examples == ()

    def test_unbalanced_build_rejected(self):
        positives = {EC.CHOLERA: _examples(EC.CHOLERA, ["a", "b"])}
        with pytest.raises(BalanceError):
            build_silver_dataset(positives, _examples(EC.NON_EPIDEMIC, ["n"]))

    def test_duplicate_text_across_classes_rejected(self):
        positives = {
            EC.CHOLERA: _examples(EC.CHOLERA, ["same text"]),
            EC.MERS: _examples(EC.MERS, ["same text"]),
        }
        negatives = _examples(EC.NON_EPIDEMIC, ["n1", "n2"])
        with pytest.raises(DuplicateTextError):
            build_silver_dataset(positives, negatives)

    def test_mislabeled_examples_rejected(self):
        bad = {EC.CHOLERA: _examples(EC.MERS, ["m"])}
        with pytest.raises(DataError):
            build_silver_dataset(bad, _examples(EC.NON_EPIDEMIC, ["n"]))
        with pytest.raises(ConfigError):
            build_silver_dataset(
                {EC.NON_EPIDEMIC: _examples(EC.NON_EPIDEMIC, ["n"])},
                _examples(EC.NON_EPIDEMIC, ["x"]),
            )

    def test_tsv_round_trip(self, tmp_path):
        positives = {EC.EBOLA: _examples(EC.EBOLA, ["e doc"])}
        ds = build_silver_dataset(positives, _examples(EC.NON_EPIDEMIC, ["n doc"]))
        path = tmp_path / "ds.tsv"
        write_dataset_tsv(ds, path)
        assert read_dataset_tsv(path) == list(ds.examples)


class TestReadTsv:
    """The one reader behind the docs TSV and the dataset TSV."""

    def test_crlf_reads_like_lf(self, tmp_path):
        lines = ["id\tlabel\ttext", "1\tebola\te doc", "", "2\tnon_epidemic\tn doc"]
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes("\n".join(lines).encode() + b"\n")
        crlf.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        assert read_dataset_tsv(crlf) == read_dataset_tsv(lf)
        assert [ex.text for ex in read_dataset_tsv(lf)] == ["e doc", "n doc"]

    def test_undecodable_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_bytes(b"id\ttext\n1\tplain\n2\t\xff\xfe text\n")
        with pytest.raises(DataError, match=f"{path}:3: not valid UTF-8"):
            list(read_tsv(path, "id\ttext"))

    @pytest.mark.parametrize("content, match", [
        (b"", "unexpected header ''"),
        (b"id\ttext\textra\n", "unexpected header"),
        (b"id\ttext\n1\ta\tb\n", ":2: expected 2 fields"),
    ])
    def test_header_and_field_count(self, tmp_path, content, match):
        path = tmp_path / "docs.tsv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=match):
            list(read_tsv(path, "id\ttext"))
