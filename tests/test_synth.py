import hashlib
import json

import pytest

from episilver.corpus import deduplicate, normalize_text, parse_record
from episilver.errors import ConfigError
from episilver.labeling import EpidemicClass as EC
from episilver.labeling import default_ruleset, match_classes
from episilver.synth import GENERATOR_KEYWORDS, SynthSpec, synth_corpus


def corpus_bytes(spec):
    return b"".join(synth_corpus(spec))


def parse_corpus(spec):
    return [
        parse_record(line.decode("utf-8"), "synth")
        for line in synth_corpus(spec)
    ]


class TestDeterminism:
    def test_byte_identical_given_seed(self):
        spec = SynthSpec(class_counts={EC.CHOLERA: 10, EC.NON_EPIDEMIC: 10}, seed=42)
        assert corpus_bytes(spec) == corpus_bytes(spec)

    def test_seed_changes_output(self):
        counts = {EC.CHOLERA: 10, EC.NON_EPIDEMIC: 10}
        a = corpus_bytes(SynthSpec(class_counts=counts, seed=1))
        b = corpus_bytes(SynthSpec(class_counts=counts, seed=2))
        assert a != b

    def test_pinned_bytes(self):
        """The generator's output for a fixed spec that draws on every
        module constant (signal, background and noise tokens, second
        keywords) is pinned."""
        spec = SynthSpec(
            class_counts={cls: 40 for cls in EC}, noise_token_rate=0.2,
            retweet_rate=0.1, duplicate_rate=0.1, non_english_rate=0.1, seed=0)
        assert hashlib.sha256(corpus_bytes(spec)).hexdigest() == (
            "efcbf45695864fcb7ee0562f8e71f9db9d80f9eeed1e6484e7616f0055cb999b")


class TestConstructionGuarantees:
    def test_class_keyword_matching(self):
        spec = SynthSpec(
            class_counts={EC.CHOLERA: 40, EC.NON_EPIDEMIC: 40},
            seed=7, retweet_rate=0.1,
        )
        rs = default_ruleset()
        labels_seen = set()
        for record in parse_corpus(spec):
            if record.is_retweet:
                continue
            matches = match_classes(rs, normalize_text(record.text))
            labels_seen.add(frozenset(matches))
            assert matches in ({EC.CHOLERA}, set())
        assert frozenset({EC.CHOLERA}) in labels_seen
        assert frozenset() in labels_seen

    def test_uppercase_keyword_for_hiv_aids(self):
        spec = SynthSpec(class_counts={EC.HIV_AIDS: 30, EC.NON_EPIDEMIC: 30}, seed=3)
        rs = default_ruleset()
        positives = 0
        for record in parse_corpus(spec):
            matches = match_classes(rs, normalize_text(record.text))
            if matches:
                assert matches == {EC.HIV_AIDS}
                positives += 1
        assert positives == 30

    def test_planted_duplicate_count_is_exact(self):
        spec = SynthSpec(
            class_counts={EC.NON_EPIDEMIC: 500, EC.CHOLERA: 500},
            duplicate_rate=0.2, seed=11,
        )
        records = parse_corpus(spec)
        assert len(records) == 1000
        from episilver.corpus import NormalizedDocument
        docs = [
            NormalizedDocument(id=r.id, text=normalize_text(r.text))
            for r in records
        ]
        _, dropped = deduplicate(docs)
        assert dropped == 200

    def test_retweet_fraction_and_both_flag_routes(self):
        spec = SynthSpec(
            class_counts={EC.EBOLA: 200, EC.NON_EPIDEMIC: 200},
            retweet_rate=0.25, seed=5,
        )
        prefix = payload = 0
        for line in synth_corpus(spec):
            obj = json.loads(line)
            text = obj.get("full_text") or obj.get("text")
            if "retweeted_status" in obj:
                payload += 1
            elif text.startswith("RT @"):
                prefix += 1
        assert prefix + payload == 100
        assert prefix > 0 and payload > 0

    def test_schema_variants_all_parse(self):
        spec = SynthSpec(
            class_counts={EC.MERS: 300, EC.NON_EPIDEMIC: 300},
            seed=9, non_english_rate=0.1,
        )
        records = parse_corpus(spec)  # parse_record raises on a bad record
        assert len(records) == 600
        assert {r.lang for r in records} >= {"en", None}
        assert any(r.lang not in ("en", None) for r in records)


class TestSpecValidation:
    def test_negative_count(self):
        with pytest.raises(ConfigError):
            SynthSpec(class_counts={EC.MERS: -1})

    def test_rate_out_of_range(self):
        with pytest.raises(ConfigError):
            SynthSpec(class_counts={EC.MERS: 5}, duplicate_rate=1.5)

    def test_rates_leaving_no_base_documents(self):
        spec = SynthSpec(class_counts={EC.MERS: 2}, duplicate_rate=0.5,
                         retweet_rate=0.5)
        with pytest.raises(ConfigError):
            list(synth_corpus(spec))

    def test_generator_keywords_cover_every_epidemic_class(self):
        assert set(GENERATOR_KEYWORDS) == set(EC.epidemic_members())
