"""TF-IDF features: tokenizer, fitted vocabulary and document vectors.

idf uses the smoothed form ln((1+N)/(1+df)) + 1. `transform` turns a
batch of texts into one L2-normalized CSR row each, as the CSR arrays
(`CsrArrays`) that the trainers and `predict` take as they are.
Vocabulary order is lexicographic so fitting is order-independent and
shard-mergeable. This module loads numpy but not scipy.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
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
    """A fitted vocabulary and the document frequencies of its tokens;
    `idf` is derived from them, computed once per instance."""

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
    df: Counter[str] = Counter()
    n_docs = 0
    for text in docs:
        n_docs += 1
        df.update(set(tokenize(text)))
    for token in masked:
        del df[token]
    if not df:
        raise FitError("no usable tokens in the fitted documents")
    return _tfidf_model(df, n_docs)


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
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for text in texts:
        counts: Counter[int] = Counter()
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
    return CsrArrays(np.array(data, dtype=np.float64),
                     np.array(indices, dtype=np.int32),
                     np.array(indptr, dtype=np.int32),
                     (len(indptr) - 1, model.dim))


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
