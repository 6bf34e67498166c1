import gzip
import json

import pytest
from hypothesis import given, strategies as st

from episilver import corpus
from episilver.corpus import (
    EMOJI_PATTERN,
    EMOTICONS,
    URL_PATTERN,
    IngestStats,
    NormalizedDocument,
    deduplicate,
    filter_original,
    ingest_files,
    normalize_text,
    parse_file,
    parse_record,
)
from episilver.errors import ParseError, SchemaError
from helpers import adversarial_strings


class TestParseRecord:
    def test_field_mapping(self):
        rec = parse_record('{"id_str":"7","full_text":"flu season","lang":"en"}', "f")
        assert rec.id == "7"
        assert rec.text == "flu season"
        assert rec.lang == "en"
        assert not rec.is_retweet
        assert rec.source_tag == "f"

    def test_rt_prefix_marks_retweet(self):
        rec = parse_record('{"id_str":"8","text":"RT @x: ebola","lang":"en"}', "f")
        assert rec.is_retweet

    def test_retweet_payload_presence(self):
        rec = parse_record('{"id_str":"8","text":"ebola","retweeted_status":{}}', "f")
        assert rec.is_retweet

    def test_missing_text_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_record('{"id_str":"9"}', "f")

    def test_numeric_id_fallback(self):
        rec = parse_record('{"id": 1234, "text": "x"}', "f")
        assert rec.id == "1234"

    @pytest.mark.parametrize("payload", [
        '{"id_str":"ab12","text":"x"}',
        '{"id": -3, "text":"x"}',
        '{"id": true, "text":"x"}',
        '{"text":"x"}',
        '{"id_str":"1","full_text":""}',
        '[1,2,3]',
    ])
    def test_schema_rejections(self, payload):
        with pytest.raises(SchemaError):
            parse_record(payload, "f")

    def test_full_text_preferred_over_text(self):
        rec = parse_record('{"id_str":"1","text":"short","full_text":"long"}', "f")
        assert rec.text == "long"

    def test_parse_error_carries_byte_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_record('{"id_str": oops}', "f", byte_offset=100)
        assert exc.value.byte_offset >= 100

    def test_missing_lang_is_none(self):
        rec = parse_record('{"id_str":"1","text":"x","lang":7}', "f")
        assert rec.lang is None

    def test_determinism(self):
        line = '{"id_str":"5","full_text":"mers watch","lang":"en"}'
        assert parse_record(line, "f") == parse_record(line, "f")


class TestFilterOriginal:
    def test_retweet_excluded(self):
        rec = parse_record('{"id_str":"8","text":"RT @x: hi"}', "f")
        assert not filter_original(rec)

    def test_lang_match(self):
        rec = parse_record('{"id_str":"1","text":"x","lang":"en"}', "f")
        assert filter_original(rec, "en")

    def test_lang_mismatch(self):
        rec = parse_record('{"id_str":"1","text":"x","lang":"es"}', "f")
        assert not filter_original(rec, "en")

    def test_absent_lang_passes(self):
        rec = parse_record('{"id_str":"1","text":"x"}', "f")
        assert filter_original(rec, "en")

    def test_no_filter(self):
        rec = parse_record('{"id_str":"1","text":"x","lang":"es"}', "f")
        assert filter_original(rec, None)


URL_EMOJI_SAMPLES = [
    ("Flu season \U0001F637 http://t.co/abc ", "Flu season"),
    ("ebola :( news", "ebola news"),
    ("  lots   of\twhitespace\n", "lots of whitespace"),
    ("www.example.com/x only", "only"),
    ("keep #hashtag and @mention", "keep #hashtag and @mention"),
    ("\U0001F637\U0001F637", ""),
]


class TestNormalizeText:
    @pytest.mark.parametrize("raw,expected", URL_EMOJI_SAMPLES)
    def test_samples(self, raw, expected):
        assert normalize_text(raw) == expected

    def test_emoji_spliced_url_still_removed(self):
        # removing the emoji would otherwise assemble a fresh URL
        assert normalize_text("ht\U0001F637tp://x.com b") == "b"

    def test_skin_tone_and_zwj_sequences(self):
        assert normalize_text("ok \U0001F44D\U0001F3FB done") == "ok done"

    @given(st.text(max_size=120))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.lists(
        st.one_of(
            st.sampled_from([
                "http://t.co/Ab1", "www.site.org/a?b=1", ":)", ":-(", "<3",
                "\U0001F637", "☃", "flu", "word", "#tag", "a‍b",
            ]),
            st.text(max_size=10),
        ),
        max_size=12,
    ).map(" ".join))
    def test_output_purity(self, text):
        out = normalize_text(text)
        assert URL_PATTERN.search(out) is None
        assert EMOJI_PATTERN.search(out) is None
        assert out == out.strip()
        assert "  " not in out and "\t" not in out and "\n" not in out
        assert not any(tok in EMOTICONS for tok in out.split())

    def test_clean_text_makes_one_pass(self, monkeypatch):
        calls = []
        real = corpus._normalize_pass

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(corpus, "_normalize_pass", counting)
        assert normalize_text("flu season in town") == "flu season in town"
        assert calls == ["flu season in town"]

    def test_equals_confirming_loop(self):
        def confirming_loop(text):
            # every pass is followed by one more that must change nothing
            out = corpus._normalize_pass(text)
            while True:
                again = corpus._normalize_pass(out)
                if again == out:
                    return out
                out = again

        for text in adversarial_strings(seed=41, count=1000):
            for variant in (text, f"{text} http://t.co/\U0001F637x :)"):
                assert normalize_text(variant) == confirming_loop(variant), variant


def _docs(texts):
    return [NormalizedDocument(id=str(i), text=t) for i, t in enumerate(texts)]


class TestDeduplicate:
    def test_keep_first(self):
        kept, dropped = deduplicate(_docs(["a", "a", "b"]))
        assert [d.text for d in kept] == ["a", "b"]
        assert dropped == 1
        assert kept[0].id == "0"

    def test_unique_input_unchanged(self):
        docs = _docs(["a", "b", "c"])
        kept, dropped = deduplicate(docs)
        assert kept == docs and dropped == 0

    def test_idempotent(self):
        kept, _ = deduplicate(_docs(["a", "b", "a", "c", "b"]))
        again, dropped = deduplicate(kept)
        assert again == kept and dropped == 0

    @given(st.lists(st.text(min_size=1, max_size=4), max_size=40))
    def test_cardinality(self, texts):
        kept, dropped = deduplicate(_docs(texts))
        assert len(kept) == len(set(texts))
        assert len(kept) + dropped == len(texts)


def _write_jsonl(path, objects, compress=False):
    data = b"".join(
        (json.dumps(o, ensure_ascii=False) + "\n").encode("utf-8") for o in objects
    )
    if compress:
        path.write_bytes(gzip.compress(data))
    else:
        path.write_bytes(data)


class TestIngestFiles:
    def test_accounting_identities(self, tmp_path):
        objs = [
            {"id_str": "1", "full_text": "flu watch", "lang": "en"},
            {"id_str": "2", "text": "RT @x: flu watch", "lang": "en"},
            {"id_str": "3", "text": "hola", "lang": "es"},
            {"id_str": "4", "text": "flu watch", "lang": "en"},       # duplicate text
            {"id_str": "5", "text": "\U0001F637", "lang": "en"},      # empty after cleanup
            {"id_str": "6", "text": "mers alert"},                    # no lang tag
        ]
        path = tmp_path / "a.jsonl"
        _write_jsonl(path, objs)
        path.write_bytes(path.read_bytes() + b"not json\n")
        docs, stats = ingest_files([str(path)], "en")
        assert stats.lines == 7
        assert stats.lines == stats.parsed + stats.parse_errors + stats.schema_errors
        assert stats.parsed == stats.originals + stats.retweets
        assert stats.originals == stats.lang_filtered + stats.kept
        assert stats.kept == stats.empty_after_normalize + stats.normalized
        assert stats.normalized == stats.duplicates_removed + stats.documents
        assert stats.parse_errors == 1 and stats.retweets == 1
        assert stats.lang_filtered == 1 and stats.duplicates_removed == 1
        assert [d.text for d in docs] == ["flu watch", "mers alert"]

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "a.jsonl.gz"
        _write_jsonl(path, [{"id_str": "1", "text": "sars era"}], compress=True)
        docs, stats = ingest_files([str(path)])
        assert [d.text for d in docs] == ["sars era"]
        assert stats.documents == 1

    def test_threaded_merge_equals_sequential(self, tmp_path):
        paths = []
        for f in range(3):
            objs = [
                {"id_str": str(f * 10 + i), "text": f"doc {f} {i}"}
                for i in range(5)
            ]
            objs.append({"id_str": "999", "text": "doc 0 0"})  # cross-file dup
            path = tmp_path / f"{f}.jsonl"
            _write_jsonl(path, objs)
            paths.append(str(path))
        seq_docs, seq_stats = ingest_files(paths, threads=1)
        par_docs, par_stats = ingest_files(paths, threads=3)
        assert par_docs == seq_docs
        assert par_stats == seq_stats
        # keep-first across the global file-then-line order
        assert [d.id for d in seq_docs if d.text == "doc 0 0"] == ["0"]

    def test_unreadable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            ingest_files([str(tmp_path / "missing.jsonl")])

    def test_stats_merge(self):
        a = IngestStats(files=1, lines=3, parsed=3)
        a.merge(IngestStats(files=2, lines=4, parsed=2))
        assert (a.files, a.lines, a.parsed) == (3, 7, 5)

    def test_parse_file_byte_offsets_do_not_crash(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_bytes(b'{"id_str":"1","text":"ok"}\n{bad\n')
        docs, stats = parse_file(str(path))
        assert stats.parse_errors == 1 and len(docs) == 1
