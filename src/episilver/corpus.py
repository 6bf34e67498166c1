"""Streaming tweet-archive ingestion: parse, filter, normalize, deduplicate.

Input is line-delimited JSON, optionally gzip-compressed, one tweet
object per line. Recognized fields: ``id_str``/``id``, ``full_text``/
``text``, ``lang``, and ``retweeted_status`` (presence only).

`ingest_files` may run `parse_file` in forked worker processes, a file
each, and merges their results itself.
"""

from __future__ import annotations

import gzip
import io
import json
import re
import zlib
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import ConfigError, DataError, ParseError, SchemaError

URL_PATTERN = re.compile(r"(?i)\b(?:https?://|www\.)\S+")

# The auditable definition of what counts as an emoji: symbol planes,
# misc symbols/dingbats, arrows, skin-tone modifiers (inside the first
# range, listed so the audit is explicit), variation selector 16 and
# the zero-width joiner used in emoji sequences.
EMOJI_RANGES: tuple[tuple[int, int], ...] = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2190, 0x21FF),
    (0x1F3FB, 0x1F3FF),
    (0xFE0F, 0xFE0F),
    (0x200D, 0x200D),
)

EMOJI_PATTERN = re.compile(
    "["
    + "".join(
        re.escape(chr(lo)) + (f"-{re.escape(chr(hi))}" if hi > lo else "")
        for lo, hi in EMOJI_RANGES
    )
    + "]"
)

# Western ASCII emoticons, removed only when they stand alone as a
# whitespace-delimited token.
EMOTICONS: frozenset[str] = frozenset({
    ":)", ":-)", ":))", ":D", ":-D", ":(", ":-(", ":((", ";)", ";-)",
    ":P", ":-P", ":p", ":-p", ";P", ";p", ":O", ":-O", ":o", ":3",
    ":/", ":-/", ":\\", ":-\\", ":|", ":-|", ":*", ":-*", "=)", "=(",
    "=D", "=P", "xD", "XD", "xd", "D:", "<3", "</3", "^_^", "-_-",
    "o_O", "O_o", "T_T", ";_;", ":'(", ":'-(", ":')", ":'-)",
})

_RT_PREFIX = "RT @"


class TweetRecord(NamedTuple):
    """One parsed tweet. ``id`` is a non-empty decimal-digit string."""

    id: str
    text: str
    lang: str | None
    is_retweet: bool


class NormalizedDocument(NamedTuple):
    """One ingested tweet: its id and its normalized text. A named tuple,
    because ingest and label build one per document: ``_make`` takes an
    (id, text) row as it is parsed or read."""

    id: str
    text: str


def _extract_id(obj: dict, source_tag: str) -> str:
    raw = obj.get("id_str")
    if raw is None:
        raw = obj.get("id")
    if isinstance(raw, str) and raw.isascii() and raw.isdigit():  # the common shape
        return raw
    if isinstance(raw, bool) or raw is None:
        raise SchemaError(f"missing tweet id in {source_tag}")
    if isinstance(raw, int):
        if raw < 0:
            raise SchemaError(f"negative tweet id {raw} in {source_tag}")
        return str(raw)
    raise SchemaError(f"tweet id {raw!r} is not a digit string in {source_tag}")


def _extract_text(obj: dict, source_tag: str) -> str:
    # Long-form field wins; either field must be a non-empty string to count.
    for key in ("full_text", "text"):
        value = obj.get(key)
        if isinstance(value, str) and value:
            return value
    raise SchemaError(f"no usable text field in {source_tag}")


# The scanner of a default JSONDecoder, bound once: it reads one JSON value
# from a str. json.loads adds a BOM check and the whitespace around it.
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _loads(line: str):
    """``json.loads(line)``, result and errors alike. A line that is one
    object between JSON whitespace skips json.loads's wrapping; any other
    line, and any failure, goes through json.loads itself."""
    if line.startswith("{"):
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, json.JSONDecodeError):
            pass
        else:
            if not line[end:].strip(_JSON_SPACE):
                return obj
    return json.loads(line)


def parse_record(line: str, source_tag: str, *, byte_offset: int = 0) -> TweetRecord:
    """Parse one JSON line into a TweetRecord.

    Raises ParseError (with the byte offset of the failure) for invalid
    JSON and SchemaError for a missing id or missing text; both are
    recoverable, the caller is expected to skip and count them.
    """
    try:
        obj = _loads(line)
    except json.JSONDecodeError as exc:
        offset = byte_offset + len(line[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON in {source_tag}: {exc.msg}", offset) from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object in {source_tag}")
    tweet_id = _extract_id(obj, source_tag)
    text = _extract_text(obj, source_tag)
    lang = obj.get("lang")
    if not isinstance(lang, str):
        lang = None
    is_retweet = "retweeted_status" in obj or text.startswith(_RT_PREFIX)
    return TweetRecord(tweet_id, text, lang, is_retweet)


def filter_original(record: TweetRecord, require_lang: str | None = None) -> bool:
    """True for original (non-retweet) tweets in the required language.

    A record with no language tag passes the filter: public archives
    predate consistent lang tagging.
    """
    if record.is_retweet:
        return False
    if require_lang is None or record.lang is None:
        return True
    return record.lang == require_lang


def _normalize_pass(text: str) -> str:
    # Every URL_PATTERN match holds "://", "w." or "W.": under re.IGNORECASE
    # no other character matches ":", "/" or ".", and only "W" matches "w".
    # TestUrlGate ties these three to the pattern.
    if "://" in text or "w." in text or "W." in text:
        text = URL_PATTERN.sub(" ", text)
    if not text.isascii():
        text = EMOJI_PATTERN.sub("", text)
    tokens = text.split()
    if not EMOTICONS.isdisjoint(tokens):
        tokens = [t for t in tokens if t not in EMOTICONS]
    return " ".join(tokens)


def normalize_text(text: str) -> str:
    """Strip URLs, emoji codepoints and emoticon tokens; collapse whitespace.

    The pass order is URLs, then emoji, then emoticons, then whitespace
    collapse and trim, and the output carries none of the stripped
    constructs. The URL step runs only on text that holds "://", "w."
    or "W.", one of which every match holds. Text that is ASCII after
    the URL step skips the emoji step: every EMOJI_RANGES code point is
    at or above U+200D.

    One pass is enough unless the emoji step removed something:

    - The URL step leaves no match behind. It replaces each match by a
      space. A match holds no whitespace, so a match in the result would
      lie in kept text, after the same character as before (a match ends
      in a greedy run of non-whitespace, so kept text after one starts
      with whitespace), and the step would have found a match there.
    - The emoticon step and the whitespace collapse only drop or join
      whole whitespace-delimited tokens. That makes no emoji, and no URL
      either: a match lies inside one token, and a token's start stays
      a word boundary.

    Removing an emoji can splice a URL or an emoticon together
    (``ht<emoji>tp://``). So a text that holds an emoji code point,
    which covers every text whose emoji step removes one, repeats the
    pass until it changes nothing. After the first pass, a pass that
    changes the string removes characters, so the loop terminates. May
    return "".
    """
    out = _normalize_pass(text)
    if text.isascii() or EMOJI_PATTERN.search(text) is None:
        return out
    while out != text:
        text, out = out, _normalize_pass(out)
    return out


def deduplicate(
    docs: Iterable[NormalizedDocument],
) -> tuple[list[NormalizedDocument], int]:
    """Keep the first occurrence of each distinct text, in input order.

    Returns (kept documents, number dropped).
    """
    seen: set[str] = set()
    kept: list[NormalizedDocument] = []
    dropped = 0
    for doc in docs:
        if doc.text in seen:
            dropped += 1
        else:
            seen.add(doc.text)
            kept.append(doc)
    return kept, dropped


# How many rejected lines an ingest run records, in file and line order.
MAX_RECORDED_REJECTS = 20


@dataclass
class IngestStats:
    """Per-stage record accounting for one ingest run.

    Identities maintained:
      lines = parsed + parse_errors + schema_errors
      parsed = originals + retweets
      originals = lang_filtered + kept
      kept = empty_after_normalize + normalized
      normalized = duplicates_removed + documents

    ``rejects`` holds the first MAX_RECORDED_REJECTS rejected lines
    (undecodable, malformed JSON or missing fields) as ``{"file",
    "byte_offset", "reason"}``; the counts cover all of them.
    """

    files: int = 0
    lines: int = 0
    parse_errors: int = 0
    schema_errors: int = 0
    parsed: int = 0
    retweets: int = 0
    originals: int = 0
    lang_filtered: int = 0
    kept: int = 0
    empty_after_normalize: int = 0
    normalized: int = 0
    duplicates_removed: int = 0
    documents: int = 0
    rejects: list[dict] = field(default_factory=list)

    def merge(self, other: "IngestStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        del self.rejects[MAX_RECORDED_REJECTS:]

    def reject(self, path: str, byte_offset: int, reason: str) -> None:
        if len(self.rejects) < MAX_RECORDED_REJECTS:
            self.rejects.append(
                {"file": path, "byte_offset": byte_offset, "reason": reason})

    def as_dict(self) -> dict:
        return asdict(self)


@contextmanager
def _open_stream(path: str):
    """A plain or (by its .gz suffix) gzip file, read in binary. A gzip
    stream that is truncated, damaged or not gzip at all is a DataError
    that names the file. A gzip stream is read through its own buffer,
    which splits lines without a Python call per line."""
    if str(path).endswith(".gz"):
        stream = io.BufferedReader(gzip.open(path, "rb"))
    else:
        stream = open(path, "rb")
    with stream as fh:
        try:
            yield fh
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise DataError(f"{path}: {exc}") from exc


def parse_file(
    path: str, require_lang: str | None = None
) -> tuple[list[tuple[str, str]], IngestStats]:
    """Parse one archive file into the (id, normalized text) pairs of its
    documents (not deduplicated). Plain tuples, because a worker process
    sends them back: they pickle about five times faster than documents.
    It is all that the workers `ingest_files` forks run, and it needs
    only the standard library, so the fork is safe even after the parent
    started BLAS threads (a fork copies only the calling thread)."""
    path = str(path)
    stats = IngestStats(files=1)
    rows: list[tuple[str, str]] = []
    offset = 0
    with _open_stream(path) as fh:
        for raw in fh:
            line_offset = offset
            offset += len(raw)
            if raw.isspace():
                continue
            stats.lines += 1
            try:
                record = parse_record(raw.decode("utf-8"), path, byte_offset=line_offset)
            except UnicodeDecodeError as exc:
                stats.parse_errors += 1
                stats.reject(path, line_offset + exc.start,
                             f"undecodable UTF-8: {exc.reason}")
                continue
            except ParseError as exc:
                stats.parse_errors += 1
                stats.reject(path, exc.byte_offset,
                             f"malformed JSON: {exc.__cause__.msg}")
                continue
            except SchemaError as exc:
                stats.schema_errors += 1
                stats.reject(path, line_offset, str(exc).removesuffix(f" in {path}"))
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
            text = normalize_text(record.text)
            if not text:
                stats.empty_after_normalize += 1
                continue
            stats.normalized += 1
            rows.append((record.id, text))
    return rows, stats


def ingest_files(
    paths: Sequence[str],
    require_lang: str | None = None,
    threads: int = 1,
) -> tuple[list[NormalizedDocument], IngestStats]:
    """Parse, filter, normalize and deduplicate a set of archive files.

    A threads count below 1 is a ConfigError, raised before any file is
    read. With one file or one thread the files are parsed in this
    process; otherwise min(threads, len(paths)) forked worker processes
    parse them, and the pool is shut down, its workers joined, when the
    merge ends or raises. A worker's exception reaches the caller as
    itself. Results are merged in file order (then line order), so the
    output equals the sequential keep-first result whatever the count.
    Each file is merged as its result arrives, and its rows are dropped
    once merged.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    paths = list(paths)
    parse = partial(parse_file, require_lang=require_lang)
    processes = min(threads, len(paths))
    pool = None
    if processes > 1:
        # Imported here, so that a run that starts no pool does not pay
        # for them. Forked workers need no `__main__` guard in the caller.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            processes, mp_context=multiprocessing.get_context("fork"))
    stats = IngestStats()

    def documents():
        for rows, file_stats in (map if pool is None else pool.map)(parse, paths):
            stats.merge(file_stats)
            yield from map(NormalizedDocument._make, rows)
            del rows  # before waiting for the next file

    try:
        deduped, stats.duplicates_removed = deduplicate(documents())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    stats.documents = len(deduped)
    return deduped, stats
