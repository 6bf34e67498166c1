"""TF-IDF features: tokenizer, fitted vocabulary and document vectors.

idf uses the smoothed form ln((1+N)/(1+df)) + 1. `transform` turns a
batch of texts into one L2-normalized CSR row each, as the CSR arrays
(`CsrArrays`) that the trainers and `predict` take as they are.
Vocabulary order is lexicographic so fitting is order-independent and
shard-mergeable. This module loads numpy but not scipy.

Rows are built per batch, not per text: each text is tokenized once, and
one `np.unique` over the batch counts every (text, token) pair; only the
L2 norm is taken row by row. `fit_transform` fits the vocabulary and
builds the training rows from that one tokenization.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FitError, read_document


_TOKEN = re.compile(r"\w{2,}")
# what `tokenize` does, as tfidf.json records it
_TOKENIZER = {"lowercase": True, "min_token_len": 2}


def tokenize(text: str) -> list[str]:
    """Maximal runs of two or more word characters of the lowercased text."""
    return _TOKEN.findall(text.lower())


@dataclass
class TfIdfModel:
    """A fitted vocabulary, each token's column being its rank in sorted
    order, and the document frequencies of its tokens; `idf` is derived
    from them, computed once per instance."""

    vocabulary: dict[str, int]
    doc_freq: np.ndarray
    doc_count: int

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    @cached_property
    def idf(self) -> np.ndarray:
        return np.log((1.0 + self.doc_count) / (1.0 + self.doc_freq)) + 1.0


def fit_tfidf(docs: Iterable[str], masked: Iterable[str] = ()) -> TfIdfModel:
    """Fit vocabulary and idf weights over normalized texts; the ``masked``
    tokens (the rule keywords under ``--mask-keywords``) stay out of the
    vocabulary, so transform ignores them as out-of-vocabulary."""
    return _fit(_tokens(docs), masked)


class _Tokens(NamedTuple):
    """A tokenized batch of texts: its distinct tokens in sorted order, and
    each (text, token) pair that occurs, as row * len(distinct) + the
    token's index in distinct, in increasing order, with its count."""

    distinct: list[str]
    pairs: np.ndarray
    counts: np.ndarray
    n_texts: int


def _tokens(texts: Iterable[str]) -> _Tokens:
    """Tokenize each text once and count the pairs in one `np.unique`. Only
    one text's token list is alive at a time, so the batch keeps no token
    string but the distinct ones: holding every list at once left the
    allocator's pools pinned by the vocabulary and raised `run`'s peak RSS."""
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__  # a new token gets the next index
    lengths: list[int] = []

    def token_lists():
        for text in texts:
            tokens = tokenize(text)
            lengths.append(len(tokens))
            yield tokens

    ids = np.fromiter(map(first_seen.__getitem__, chain.from_iterable(token_lists())),
                      np.int64)
    distinct = sorted(first_seen)
    rank = np.empty(len(distinct), np.int64)
    rank[np.fromiter(map(first_seen.__getitem__, distinct), np.int64,
                     count=len(distinct))] = np.arange(len(distinct))
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    keys *= len(distinct)
    keys += rank[ids]
    del ids, rank
    return _Tokens(distinct, *np.unique(keys, return_counts=True), len(lengths))


def _fit(batch: _Tokens, masked: Iterable[str]) -> TfIdfModel:
    """`fit_tfidf` over a tokenized batch: a token's df is the number of
    its (text, token) pairs."""
    n = len(batch.distinct)
    df = dict(zip(batch.distinct,
                  np.bincount(batch.pairs % n, minlength=n).tolist()))
    for token in masked:
        df.pop(token, None)
    if not df:
        raise FitError("no usable tokens in the fitted documents")
    return _tfidf_model(df, batch.n_texts)


def _tfidf_model(df: Mapping[str, int], doc_count: int) -> TfIdfModel:
    """The model of token -> df; a token's column is its rank in sorted order."""
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    doc_freq = np.fromiter((df[token] for token in vocabulary), np.float64)
    return TfIdfModel(vocabulary=vocabulary, doc_freq=doc_freq, doc_count=doc_count)


class CsrArrays(NamedTuple):
    """A sparse matrix in compressed sparse row form: row r holds the
    values data[indptr[r]:indptr[r + 1]] in the columns indices[...] of
    the same slice. These are the four attributes a scipy CSR matrix has,
    so code that reads only them takes either."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def transform(model: TfIdfModel, texts: Iterable[str]) -> CsrArrays:
    """One row per text: counts x idf in increasing column order,
    L2-normalized; out-of-vocabulary tokens are ignored, so a text with
    none in the vocabulary gives an empty row. Rows have no stored
    zeros and no repeated columns."""
    if isinstance(texts, str):
        raise TypeError("transform takes an iterable of texts, not one str")
    return _rows(model, _tokens(texts))


def fit_transform(texts: Iterable[str],
                  masked: Iterable[str] = ()) -> tuple[TfIdfModel, CsrArrays]:
    """`fit_tfidf` of the texts and their `transform` rows, from one
    tokenization of each text."""
    batch = _tokens(texts)
    model = _fit(batch, masked)
    return model, _rows(model, batch)


def _rows(model: TfIdfModel, batch: _Tokens) -> CsrArrays:
    """`transform` over a tokenized batch. Columns are ranks in sorted token
    order, as the batch's indices are, so its in-vocabulary pairs are the
    CSR entries in order: each count times its column's idf, each row
    divided by `np.linalg.norm` of its slice."""
    n = len(batch.distinct)
    rows, ids = np.divmod(batch.pairs, n)
    columns = np.fromiter(map(model.vocabulary.get, batch.distinct, repeat(-1)),
                          np.int64, count=n)[ids]
    known = columns >= 0
    rows, columns = rows[known], columns[known]
    data = batch.counts[known] * model.idf[columns]
    lengths = np.bincount(rows, minlength=batch.n_texts)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    bounds = indptr.tolist()
    norms = [np.linalg.norm(data[start:end])
             for start, end in zip(bounds, bounds[1:]) if start < end]
    data /= np.repeat(norms, lengths[lengths > 0])
    return CsrArrays(data, columns.astype(np.int32), indptr.astype(np.int32),
                     (batch.n_texts, model.dim))


def idf_checksum(model: TfIdfModel) -> str:
    """SHA-256 of the idf array bytes; persisted and trained against."""
    return hashlib.sha256(
        np.ascontiguousarray(model.idf, dtype="<f8").tobytes()
    ).hexdigest()


def split_record(texts, ratio: float, master_seed: int) -> dict:
    """tfidf.json's split record; the digest is of the texts joined by newlines."""
    digest = hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
    return {"ratio": ratio, "seed": master_seed, "train_sha256": digest}


TFIDF_FORMAT_VERSION = 3


def _tfidf_json(model: TfIdfModel, split: dict) -> dict:
    return {
        "format_version": TFIDF_FORMAT_VERSION,
        "config": _TOKENIZER,
        "doc_count": model.doc_count,
        "vocabulary": dict(zip(model.vocabulary, map(int, model.doc_freq))),
        "idf_sha256": idf_checksum(model),
        "split": split,
    }


def save_tfidf(model: TfIdfModel, path: str | Path, split: dict) -> None:
    """Persist a fitted model, token -> df, with its texts' `split_record`."""
    Path(path).write_text(json.dumps(_tfidf_json(model, split), sort_keys=True),
                          encoding="utf-8")


def load_tfidf(path: str | Path) -> tuple[TfIdfModel, dict]:
    """Load a persisted model and its split record; a token's column is its
    sorted rank, idf is recomputed and checksum-verified, the ratio must lie
    in (0, 1), and saving both again must give the file back
    (`errors.read_document`), or DataError names it."""
    return read_document(Path(path).read_bytes(), str(path), "feature model file",
                         TFIDF_FORMAT_VERSION, _tfidf_from_doc,
                         lambda loaded: _tfidf_json(*loaded))


def _tfidf_from_doc(doc: dict) -> tuple[TfIdfModel, dict]:
    if (json.dumps(doc["config"], sort_keys=True)
            != json.dumps(_TOKENIZER, sort_keys=True)):
        raise ValueError(f"tokenizer config {doc['config']!r} is not "
                         f"{_TOKENIZER!r}, so the file was tokenized differently")
    model = _tfidf_model(doc["vocabulary"], int(doc["doc_count"]))
    if idf_checksum(model) != doc["idf_sha256"]:
        raise ValueError("idf checksum mismatch")
    split = {"ratio": float(doc["split"]["ratio"]), "seed": int(doc["split"]["seed"]),
             "train_sha256": str(doc["split"]["train_sha256"])}
    if not 0.0 < split["ratio"] < 1.0:
        raise ValueError(f"split ratio {split['ratio']} outside (0, 1)")
    return model, split
