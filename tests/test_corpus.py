import gzip
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from episilver import corpus
from episilver.corpus import (
    EMOJI_PATTERN,
    EMOTICONS,
    MAX_RECORDED_REJECTS,
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
from episilver.labeling import _sre_parse
from helpers import adversarial_strings


class TestParseRecord:
    def test_field_mapping(self):
        rec = parse_record('{"id_str":"7","full_text":"flu season","lang":"en"}', "f")
        assert rec.id == "7"
        assert rec.text == "flu season"
        assert rec.lang == "en"
        assert not rec.is_retweet

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


def _reference_parse_record(line, source_tag):
    """parse_record's outcome through json.loads itself (parse_record's
    _loads skips its wrapping), then the field extractors; an error as
    (type, message, byte offset or None)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        offset = len(line[: exc.pos].encode("utf-8"))
        return (ParseError, f"malformed JSON in {source_tag}: {exc.msg}"
                f" (byte offset {offset})", offset)
    try:
        if not isinstance(obj, dict):
            raise SchemaError(f"expected a JSON object in {source_tag}")
        tweet_id = corpus._extract_id(obj, source_tag)
        text = corpus._extract_text(obj, source_tag)
    except SchemaError as exc:
        return (SchemaError, str(exc), None)
    lang = obj.get("lang") if isinstance(obj.get("lang"), str) else None
    is_retweet = "retweeted_status" in obj or text.startswith("RT @")
    return (tweet_id, text, lang, is_retweet)


ID_SHAPES = ["7", "007", "", "12a", "\u0663", "\u00b2", "-1", 7, 0, -3, True, False,
             1.5, None, [], {}]
TEXT_SHAPES = ["flu", "RT @x: flu", "", 5, None, ["a"]]


@st.composite
def _record_lines(draw):
    obj = {}
    for key, shapes in (("id_str", ID_SHAPES), ("id", ID_SHAPES),
                        ("full_text", TEXT_SHAPES), ("text", TEXT_SHAPES),
                        ("lang", ["en", "es", 7, None])):
        if draw(st.booleans()):
            obj[key] = draw(st.sampled_from(shapes))
    if draw(st.booleans()):
        obj["retweeted_status"] = {}
    body = draw(st.sampled_from([json.dumps(obj), json.dumps(obj, ensure_ascii=False),
                                 json.dumps(list(obj)), "7", "null"]))
    if draw(st.booleans()):
        body = body[: draw(st.integers(0, len(body)))]
    prefix = draw(st.sampled_from(["", " ", "\t", "\ufeff", "\u00a0"]))
    suffix = draw(st.sampled_from(["", "\n", " \r\n", " x", "}", "\u00a0", "\x0c"]))
    return prefix + body + suffix


class TestParseRecordAgainstReference:
    @settings(max_examples=500)
    @given(_record_lines())
    def test_same_record_or_error(self, line):
        expected = _reference_parse_record(line, "f")
        try:
            got = tuple(parse_record(line, "f"))
        except ParseError as exc:
            got = (ParseError, str(exc), exc.byte_offset)
        except SchemaError as exc:
            got = (SchemaError, str(exc), None)
        assert got == expected


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


def _reference_pass(text):
    # every step on every text, with no ASCII shortcut
    text = URL_PATTERN.sub(" ", text)
    text = EMOJI_PATTERN.sub("", text)
    return " ".join(t for t in text.split() if t not in EMOTICONS)


def _reference_normalize(text):
    # each pass is confirmed by one more that must change nothing
    out = _reference_pass(text)
    while True:
        again = _reference_pass(out)
        if again == out:
            return out
        out = again


# every character that str.split and re's \s treat as whitespace
WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]

URL_PREFIXES = ["http://", "HTTPS://", "www.", "WwW.", "http\u017F://"]
EMOJI = ["\U0001F637", "\U0001F44D\U0001F3FB", "\U0001F468\u200D\U0001F469",
         "\u2764\uFE0F", "\u200D", "\uFE0F", "\U0001F3FF", "\u2603"]
NORMALIZE_PIECES = [
    *URL_PREFIXES, *EMOJI, ":)", ":-(", "<3", "xD", "D:",
    "t.co/Ab1", "a", "é", "_", "9", ".", "/", ":", "w", "W",
    # case-folding traps of (?i): long s, dotted capital I, Kelvin sign
    "\u017F", "\u0130", "\u212A",
    "流感", "霍乱爆发",
    *WHITESPACE,
]


@st.composite
def _spliced(draw):
    """A URL prefix or an emoticon with an emoji inside, which only the
    removal of the emoji turns into the real thing."""
    construct = draw(st.sampled_from([*URL_PREFIXES, ":)", ":-(", "<3", "xD"]))
    cut = draw(st.integers(1, len(construct) - 1))
    return construct[:cut] + draw(st.sampled_from(EMOJI)) + construct[cut:]


def _normalize_inputs():
    piece = st.one_of(
        st.sampled_from(NORMALIZE_PIECES),
        _spliced(),
        st.sampled_from(adversarial_strings(seed=43, count=200)),
        st.text(max_size=4),
    )
    return st.lists(piece, max_size=16).map("".join)


class TestNormalizeAgainstReference:
    @given(_normalize_inputs())
    def test_equals_reference_loop(self, text):
        assert normalize_text(text) == _reference_normalize(text)


# The substrings _normalize_pass looks for before it runs URL_PATTERN.
URL_GATE = ("://", "w.", "W.")


def _holds_gate_literal(items):
    """Whether every match of the parsed sequence holds a URL_GATE string:
    some run of literal characters holds one, or some group, alternation
    (each branch) or repeat of at least one does."""
    run = []
    for op, av in [*items, (None, None)]:
        if op is _sre_parse.LITERAL:
            run.append(chr(av))
            continue
        if any(g in "".join(run) for g in URL_GATE):
            return True
        run = []
        if op is _sre_parse.SUBPATTERN and _holds_gate_literal(av[3]):
            return True
        if op is _sre_parse.BRANCH and all(map(_holds_gate_literal, av[1])):
            return True
        if op in (_sre_parse.MAX_REPEAT, _sre_parse.MIN_REPEAT) and av[0] >= 1 \
                and _holds_gate_literal(av[2]):
            return True
    return False


class TestUrlGate:
    def test_every_branch_holds_a_gate_literal(self):
        assert _holds_gate_literal(_sre_parse.parse(URL_PATTERN.pattern))

    @pytest.mark.parametrize("pattern", [r"(?i)\b(?:https?://|www\.|t\.co/)\S+",
                                         r"(?i)\b(?:https?:/+|www\.)\S+",
                                         r"(?i)\bhttps?(?:://)?\S+"])
    def test_a_pattern_the_gate_misses_fails(self, pattern):
        assert not _holds_gate_literal(_sre_parse.parse(pattern))

    def test_case_folding_adds_no_other_character(self):
        # Under (?i) the gate's characters match only themselves and "W".
        every = "".join(map(chr, range(0x110000)))
        assert sorted(re.findall(r"(?i)[:/.w]", every)) == sorted(":/.Ww")


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


# One line of each kind parse_file tells apart.
CRAFTED_LINES = [
    b"  \n",                                                # blank
    b'{"id_str": "1", "text": "caf\xff flu"}\n',           # undecodable
    b'{"id_str": 2, oops}\n',                               # bad JSON
    b"[1, 2]\n",                                            # not an object
    b'{"text": "no id"}\n',                                 # missing id
    b'{"id_str": "6", "text": ""}\n',                       # missing text
    b'{"id_str": "7", "text": "RT @a: flu"}\n',             # retweet
    b'{"id_str": "8", "text": "gripe", "lang": "es"}\n',    # foreign lang
    '{"id_str": "9", "text": "\U0001F637 :) http://t.co/x"}\n'.encode(),  # empty
    b'{"id": 10, "text": "flu season http://t.co/a", "lang": "en"}\n',
    '{"id_str": "11", "full_text": "flu \U0001F637 season"}\n'.encode(),  # duplicate
]


def _reference_parse_file(path, require_lang):
    """parse_file as the composition of parse_record, filter_original and
    the confirming normalization loop, one line at a time."""
    stats = IngestStats(files=1)
    rows = []
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            line_offset, offset = offset, offset + len(raw)
            if not raw.strip():
                continue
            stats.lines += 1
            try:
                record = parse_record(raw.decode("utf-8"), str(path),
                                      byte_offset=line_offset)
            except (UnicodeDecodeError, ParseError):
                stats.parse_errors += 1
                continue
            except SchemaError:
                stats.schema_errors += 1
                continue
            stats.parsed += 1
            if record.is_retweet:
                stats.retweets += 1
                continue
            stats.originals += 1
            if not filter_original(record, require_lang):
                stats.lang_filtered += 1
                continue
            stats.kept += 1
            text = _reference_normalize(record.text)
            if not text:
                stats.empty_after_normalize += 1
                continue
            stats.normalized += 1
            rows.append((record.id, text))
    return rows, stats


class TestParseFileLineKinds:
    def test_equals_per_line_composition(self, tmp_path):
        path = tmp_path / "crafted.jsonl"
        path.write_bytes(b"".join(CRAFTED_LINES))
        rows, stats = parse_file(str(path), "en")
        ref_rows, ref_stats = _reference_parse_file(path, "en")
        assert rows == ref_rows == [("10", "flu season"), ("11", "flu season")]
        ref_stats.rejects = stats.rejects
        assert stats == ref_stats
        assert (stats.lines, stats.parse_errors, stats.schema_errors) == (10, 2, 3)
        assert (stats.retweets, stats.lang_filtered) == (1, 1)
        assert (stats.empty_after_normalize, stats.normalized) == (1, 2)

        docs, merged = ingest_files([str(path)], "en")
        assert [(d.id, d.text) for d in docs] == [("10", "flu season")]
        assert merged.duplicates_removed == 1 and merged.documents == 1

    def test_rejects_name_file_offset_and_reason(self, tmp_path):
        path = tmp_path / "crafted.jsonl"
        path.write_bytes(b"".join(CRAFTED_LINES))
        _, stats = parse_file(str(path))
        starts = [sum(map(len, CRAFTED_LINES[:i])) for i in range(len(CRAFTED_LINES))]
        expected = [
            (starts[1] + CRAFTED_LINES[1].index(b"\xff"), "undecodable UTF-8"),
            (starts[2] + CRAFTED_LINES[2].index(b"oops"), "malformed JSON"),
            (starts[3], "expected a JSON object"),
            (starts[4], "missing tweet id"),
            (starts[5], "no usable text field"),
        ]
        assert [r["file"] for r in stats.rejects] == [str(path)] * len(expected)
        assert [r["byte_offset"] for r in stats.rejects] == [o for o, _ in expected]
        for reject, (_, reason) in zip(stats.rejects, expected):
            assert reject["reason"].startswith(reason), reject
            assert str(path) not in reject["reason"]
        assert len(stats.rejects) == stats.parse_errors + stats.schema_errors

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_rejects_kept_in_file_order(self, tmp_path, threads):
        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            path.write_bytes(b"{bad\n" * 15 + b'{"id_str": "1", "text": "ok"}\n')
            paths.append(str(path))
        _, stats = ingest_files(paths, threads=threads)
        assert stats.parse_errors == 30
        assert len(stats.rejects) == MAX_RECORDED_REJECTS == 20
        assert [r["file"] for r in stats.rejects] == [paths[0]] * 15 + [paths[1]] * 5
        assert [r["byte_offset"] for r in stats.rejects] == (
            [5 * i + 1 for i in range(15)] + [5 * i + 1 for i in range(5)])
        assert stats.as_dict()["rejects"] == stats.rejects
