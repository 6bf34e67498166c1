"""Seeded synthetic tweet corpus for desk-scale, data-free testing.

Every epidemic-class document contains its class keyword (randomly
cased for case-insensitive classes, the exact uppercase token for
hiv_aids); non-epidemic documents contain no rule keyword. Configured
fractions of retweets, planted duplicates, URLs, emoji and emoticons
exercise the ingestion stage. Output is byte-identical for a given
spec.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .errors import ConfigError
from .labeling import EpidemicClass

# The generator's own keyword table (kept separate from the ruleset so
# tests can detect drift between the two).
GENERATOR_KEYWORDS: dict[EpidemicClass, tuple[str, ...]] = {
    EpidemicClass.CHOLERA: ("cholera", "#cholera"),
    EpidemicClass.EBOLA: ("ebola", "#ebola"),
    EpidemicClass.FLU: ("flu", "#flu"),
    EpidemicClass.H1N1: ("h1n1", "#h1n1"),
    EpidemicClass.HIV_AIDS: ("AIDS", "#AIDS"),
    EpidemicClass.INFLUENZA: ("influenza", "#influenza"),
    EpidemicClass.MERS: ("mers", "#mers"),
    EpidemicClass.SARS: ("sars", "#sars"),
    EpidemicClass.SWINE_FLU: ("swine flu", "swineflu", "#swineflu"),
    EpidemicClass.YELLOW_FEVER: ("yellow fever", "yellowfever", "#yellowfever"),
}

# hiv_aids keeps its heuristic meaningful only in exact upper case.
_FIXED_CASE_CLASSES = {EpidemicClass.HIV_AIDS}

_EMOJI_POOL = ("\U0001F637", "\U0001F912", "\U0001F9A0", "\U0001F489", "☠️")
_EMOTICON_POOL = (":(", ":)", ":-(", "xD", "<3")
_SIG_PER_DOC = (1, 3)
_BG_PER_DOC = (8, 14)
# token vocabularies: per-class signal words, shared background words and
# the noise words that replace background words at `noise_token_rate`
_SIG_VOCAB = 20
_BG_VOCAB = 500
_NZ_VOCAB = 10_000
_SECOND_KEYWORD_PROB = 0.3  # epidemic documents holding the keyword twice


@dataclass(frozen=True)
class SynthSpec:
    class_counts: Mapping[EpidemicClass, int]
    noise_token_rate: float = 0.0
    retweet_rate: float = 0.0
    duplicate_rate: float = 0.0
    url_rate: float = 0.2
    emoji_rate: float = 0.2
    emoticon_rate: float = 0.1
    non_english_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for cls, count in self.class_counts.items():
            if count < 0:
                raise ConfigError(f"negative count {count} for class {cls.label}")
        for name in (
            "noise_token_rate", "retweet_rate", "duplicate_rate", "url_rate",
            "emoji_rate", "emoticon_rate", "non_english_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")


def _random_case(rng: random.Random, word: str) -> str:
    style = rng.randrange(4)
    if style == 0:
        return word.lower()
    if style == 1:
        return word.upper()
    if style == 2:
        return word.capitalize()
    return "".join(
        c.upper() if rng.random() < 0.5 else c.lower() for c in word
    )


def _keyword(rng: random.Random, cls: EpidemicClass) -> str:
    variant = rng.choice(GENERATOR_KEYWORDS[cls])
    if cls in _FIXED_CASE_CLASSES:
        return variant
    if variant.startswith("#"):
        return "#" + _random_case(rng, variant[1:])
    return _random_case(rng, variant)


def _body_tokens(rng: random.Random, spec: SynthSpec, cls: EpidemicClass) -> list[str]:
    tokens = [
        f"sig{cls.value}w{rng.randrange(_SIG_VOCAB)}"
        for _ in range(rng.randint(*_SIG_PER_DOC))
    ]
    for _ in range(rng.randint(*_BG_PER_DOC)):
        if rng.random() < spec.noise_token_rate:
            tokens.append(f"nz{rng.randrange(_NZ_VOCAB)}")
        else:
            tokens.append(f"bg{rng.randrange(_BG_VOCAB)}")
    return tokens


def _make_text(
    rng: random.Random,
    spec: SynthSpec,
    cls: EpidemicClass,
    seen: set[str] | None,
) -> str:
    tokens = _body_tokens(rng, spec, cls)
    if cls is not EpidemicClass.NON_EPIDEMIC:
        tokens.insert(rng.randrange(len(tokens) + 1), _keyword(rng, cls))
        if rng.random() < _SECOND_KEYWORD_PROB:
            tokens.insert(rng.randrange(len(tokens) + 1), _keyword(rng, cls))
    text = " ".join(tokens)
    if seen is not None:
        # Planted duplicates must be the only duplicates: pad until unique.
        while text in seen:
            text += f" bg{rng.randrange(_BG_VOCAB)}"
        seen.add(text)
    return text


def _decorate(rng: random.Random, spec: SynthSpec, text: str) -> str:
    """Sprinkle removable junk; the normalized form stays unchanged."""
    parts = text.split(" ")
    if rng.random() < spec.url_rate:
        url = "https://t.co/" + "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789")
            for _ in range(10)
        )
        parts.insert(rng.randrange(len(parts) + 1), url)
    if rng.random() < spec.emoji_rate:
        emoji = rng.choice(_EMOJI_POOL)
        if rng.random() < 0.5:
            parts.insert(rng.randrange(len(parts) + 1), emoji)
        else:
            i = rng.randrange(len(parts))
            parts[i] = parts[i] + emoji
    if rng.random() < spec.emoticon_rate:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_EMOTICON_POOL))
    return " ".join(parts)


def synth_corpus(spec: SynthSpec) -> Iterator[bytes]:
    """Yield line-delimited JSON tweet records, deterministic given seed."""
    rng = random.Random(spec.seed)
    seen: set[str] = set()
    records: list[tuple[EpidemicClass, str, str | None]] = []
    for cls in sorted(spec.class_counts):
        n = spec.class_counts[cls]
        if n == 0:
            continue
        n_dup = int(n * spec.duplicate_rate)
        n_retweet = int(n * spec.retweet_rate)
        n_base = n - n_dup - n_retweet
        if n_base < 1:
            raise ConfigError(
                f"class {cls.label}: count {n} leaves no base documents after "
                f"retweet/duplicate rates"
            )
        base_texts = [_make_text(rng, spec, cls, seen) for _ in range(n_base)]
        records.extend((cls, text, None) for text in base_texts)
        for _ in range(n_retweet):
            mode = rng.choice(("prefix", "payload"))
            records.append((cls, _make_text(rng, spec, cls, None), mode))
        for _ in range(n_dup):
            records.append((cls, rng.choice(base_texts), None))
    rng.shuffle(records)

    for i, (cls, text, retweet_mode) in enumerate(records):
        raw = _decorate(rng, spec, text)
        obj: dict = {}
        if rng.random() < 0.05:
            obj["id"] = 100_000_000 + i
        else:
            obj["id_str"] = str(100_000_000 + i)
        if retweet_mode == "payload":
            obj["retweeted_status"] = {"id_str": str(rng.randrange(10**9))}
        elif retweet_mode == "prefix":
            raw = f"RT @user{rng.randrange(1000)}: {raw}"
        if rng.random() < 0.1:
            obj["text"] = raw
        else:
            obj["full_text"] = raw
        if rng.random() >= 0.02:  # a sliver of records omit the lang tag
            if rng.random() < spec.non_english_rate:
                obj["lang"] = rng.choice(("es", "fr", "de", "pt"))
            else:
                obj["lang"] = "en"
        yield (json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def write_corpus(spec: SynthSpec, path: str) -> int:
    """Write the corpus to a file; returns the number of records."""
    count = 0
    with open(path, "wb") as fh:
        for line in synth_corpus(spec):
            fh.write(line)
            count += 1
    return count
