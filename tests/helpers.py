"""Shared test oracles and generators.

The brute-force keyword scanner is the independent oracle for the
compiled ruleset: it carries its own keyword table and does manual
boundary checks, no regular expressions involved.
"""

from __future__ import annotations

import random

import numpy as np
from scipy import sparse

from episilver.labeling import EpidemicClass


def csr_rows(rows, dim: int) -> sparse.csr_matrix:
    """CSR matrix whose row r holds the (column, value) pairs of rows[r],
    in the order given."""
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for row in rows:
        for col, value in row:
            indices.append(col)
            data.append(value)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)),
        shape=(len(indptr) - 1, dim),
    )

# Independent keyword table: (class, word sequences, case_sensitive).
# Multi-word sequences match with any run of whitespace between words.
BRUTE_KEYWORDS: list[tuple[EpidemicClass, list[tuple[str, ...]], bool]] = [
    (EpidemicClass.SWINE_FLU, [("swine", "flu"), ("swineflu",)], False),
    (EpidemicClass.H1N1, [("h1n1",)], False),
    (EpidemicClass.EBOLA, [("ebola",)], False),
    (EpidemicClass.CHOLERA, [("cholera",)], False),
    (EpidemicClass.INFLUENZA, [("influenza",)], False),
    (EpidemicClass.FLU, [("flu",)], False),
    (EpidemicClass.YELLOW_FEVER, [("yellow", "fever"), ("yellowfever",)], False),
    (EpidemicClass.HIV_AIDS, [("hiv",)], False),
    (EpidemicClass.MERS, [("mers",)], False),
    (EpidemicClass.SARS, [("sars",)], False),
    (EpidemicClass.HIV_AIDS, [("AIDS",)], True),
]


def _word_char(c: str) -> bool:
    return c == "_" or c.isalnum()


def _match_at(text: str, start: int, words: tuple[str, ...], case_sensitive: bool) -> bool:
    if start > 0 and _word_char(text[start - 1]):
        return False
    pos = start
    for i, word in enumerate(words):
        if i > 0:
            ws = 0
            while pos < len(text) and text[pos].isspace():
                pos += 1
                ws += 1
            if ws == 0:
                return False
        end = pos + len(word)
        if end > len(text):
            return False
        segment = text[pos:end]
        if case_sensitive:
            if segment != word:
                return False
        elif segment.lower() != word.lower():
            return False
        pos = end
    if pos < len(text) and _word_char(text[pos]):
        return False
    return True


def brute_match_classes(text: str) -> set[EpidemicClass]:
    """Scan every keyword alternative with manual boundary checks."""
    matched = set()
    for cls, sequences, case_sensitive in BRUTE_KEYWORDS:
        if cls in matched:
            continue
        for words in sequences:
            if any(
                _match_at(text, start, words, case_sensitive)
                for start in range(len(text) + 1)
            ):
                matched.add(cls)
                break
    return matched


_KEYWORD_PIECES = [
    "cholera", "ebola", "flu", "h1n1", "hiv", "mers", "sars", "influenza",
    "swine flu", "swineflu", "yellow fever", "yellowfever", "aids", "AIDS",
]
_DECOY_PIECES = [
    "farmers", "summers", "influenzas", "fluid", "flux", "shivering",
    "archives", "ebolavirus", "h1n1x", "xh1n1", "mers-cov", "yellow-fever",
    "AIDSx", "xAIDS", "aIDS", "cholerae", "sarsaparilla", "yellow",
    "fever", "swine", "market", "outbreak", "vaccine", "news", "health",
]
_HASHTAG_PIECES = ["#flu", "#Flu", "#SWINEFLU", "#mers", "#AIDS", "#aids", "#cholera"]
_SEPARATORS = [" ", "  ", ", ", ". ", "-", "", "#", ": ", "\t", " \U0001F637 "]


def _random_case(rng: random.Random, s: str) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in s)


def adversarial_strings(seed: int, count: int) -> list[str]:
    """Seeded strings mixing keywords, case permutations, embeddings,
    hashtags and junk separators."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(2, 10)):
            bucket = rng.random()
            if bucket < 0.4:
                piece = rng.choice(_KEYWORD_PIECES)
                if piece != "AIDS" and rng.random() < 0.6:
                    piece = _random_case(rng, piece)
            elif bucket < 0.75:
                piece = rng.choice(_DECOY_PIECES)
                if rng.random() < 0.3:
                    piece = _random_case(rng, piece)
            else:
                piece = rng.choice(_HASHTAG_PIECES)
            pieces.append(piece)
        # empty separators occasionally glue pieces, embedding keywords
        text = pieces[0]
        for piece in pieces[1:]:
            text += rng.choice(_SEPARATORS) + piece
        out.append(text)
    return out
