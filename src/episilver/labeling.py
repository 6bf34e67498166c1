"""Regex labeling heuristic and silver-standard dataset assembly.

Rules live in data, not code: the built-in ruleset ships as a TSV
resource (see ``default_rules.tsv``) so users can substitute their own
reading of the keyword list. Each rule maps a pattern to one epidemic
class; the single case-sensitive rule matches the exact uppercase token
AIDS.
"""

from __future__ import annotations

import enum
import functools
import random
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import NormalizedDocument
from .errors import (
    BalanceError,
    ConfigError,
    DataError,
    DuplicateTextError,
    InsufficientNegativesError,
    PatternError,
)

try:  # the parser that re itself uses; sre_parse before Python 3.11
    from re import _parser as _sre_parse
except ImportError:
    import sre_parse as _sre_parse

DEFAULT_RULES_RESOURCE = "default_rules.tsv"


class EpidemicClass(enum.IntEnum):
    """Ten epidemic classes plus the negative class.

    Declaration order fixes the class index used for tie-breaking and
    file formats; labels are the lowercase member names.
    """

    CHOLERA = 0
    EBOLA = 1
    FLU = 2
    H1N1 = 3
    HIV_AIDS = 4
    INFLUENZA = 5
    MERS = 6
    SARS = 7
    SWINE_FLU = 8
    YELLOW_FEVER = 9
    NON_EPIDEMIC = 10

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, token: str) -> "EpidemicClass":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown class label {token!r}") from None

    @classmethod
    def epidemic_members(cls) -> tuple["EpidemicClass", ...]:
        return tuple(m for m in cls if m is not cls.NON_EPIDEMIC)


@dataclass(frozen=True, slots=True)
class LabelRule:
    target: EpidemicClass
    pattern: str
    case_sensitive: bool
    priority: int


@dataclass(frozen=True)
class Ruleset:
    """Priority-ordered rules with their compiled patterns and keys.

    A rule's keys are its required literals, one of which every match of
    its pattern contains, as (rule index, literal, folded) in rule order;
    the literals of a pattern that ignores case are lowercased and
    folded. A rule with no required literal, or one that is not ASCII,
    has the single key "", which every text contains (see
    ``match_rules``)."""

    rules: tuple[LabelRule, ...]
    compiled: tuple[re.Pattern, ...]
    keys: tuple[tuple[int, str, bool], ...]


# POSSESSIVE_REPEAT came with Python 3.11.
_REPEATS = {_sre_parse.MAX_REPEAT, _sre_parse.MIN_REPEAT,
            getattr(_sre_parse, "POSSESSIVE_REPEAT", _sre_parse.MAX_REPEAT)}


def _literal_candidates(items) -> Iterator[set[str]]:
    """Sets of literals, one of which every match of the parsed sequence
    contains: each run of literal characters, and the sets of the plain
    groups, of the alternations whose every branch has one and of the
    repeats that match at least once."""
    run: list[str] = []
    for op, av in items:
        if op is _sre_parse.LITERAL:
            run.append(chr(av))
            continue
        if run:
            yield {"".join(run)}
            run = []
        found = None
        if op is _sre_parse.SUBPATTERN and not av[1] and not av[2]:
            found = _required_literals(av[3])
        elif op is _sre_parse.BRANCH:
            branches = [_required_literals(b) for b in av[1]]
            if all(branches):
                found = set().union(*branches)
        elif op in _REPEATS and av[0] >= 1:
            found = _required_literals(av[2])
        if found:
            yield found
    if run:
        yield {"".join(run)}


def _required_literals(items) -> set[str] | None:
    """The candidate set whose shortest literal is longest, or None."""
    return max(_literal_candidates(items),
               key=lambda lits: min(map(len, lits)), default=None)


def _pruned(literals: set[str]) -> tuple[str, ...]:
    """The literals, sorted, without one that contains another: ``re``
    cannot find it where the shorter one is not."""
    return tuple(sorted(s for s in literals
                        if not any(t != s and t in s for t in literals)))


def _keys(index: int, rx: re.Pattern) -> list[tuple[int, str, bool]]:
    """The keys of rule `index` (see ``Ruleset``)."""
    literals = _pruned(_required_literals(_sre_parse.parse(rx.pattern, rx.flags))
                       or set())
    if not literals or not "".join(literals).isascii():
        return [(index, "", False)]
    folded = bool(rx.flags & re.IGNORECASE)
    return [(index, s.lower() if folded else s, folded) for s in literals]


def _compile_rule(rule: LabelRule) -> re.Pattern:
    try:
        return re.compile(rule.pattern, 0 if rule.case_sensitive else re.IGNORECASE)
    except re.error as exc:
        raise PatternError(
            f"rule {rule.target.label} (priority {rule.priority}) "
            f"does not compile: {exc}"
        ) from exc


def compile_ruleset(rules: Sequence[LabelRule]) -> Ruleset:
    """Validate and compile rules, sorted by ascending priority."""
    if not rules:
        raise ConfigError("ruleset is empty")
    priorities = [r.priority for r in rules]
    if len(set(priorities)) != len(priorities):
        dupes = sorted({p for p in priorities if priorities.count(p) > 1})
        raise ConfigError(f"duplicate rule priorities: {dupes}")
    ordered = tuple(sorted(rules, key=lambda r: r.priority))
    compiled = tuple(map(_compile_rule, ordered))
    keys = tuple(key for i, rx in enumerate(compiled) for key in _keys(i, rx))
    return Ruleset(rules=ordered, compiled=compiled, keys=keys)


def parse_ruleset_text(text: str, origin: str = "<string>") -> Ruleset:
    """Parse the tab-separated ruleset format.

    ``class <TAB> case_sensitive(0|1) <TAB> priority <TAB> pattern``
    with '#'-prefixed comment lines.
    """
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t", 3)
        if len(parts) != 4:
            raise ConfigError(
                f"{origin}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        cls_token, cs_token, prio_token, pattern = parts
        if cs_token not in ("0", "1"):
            raise ConfigError(f"{origin}:{lineno}: case_sensitive must be 0 or 1")
        try:
            priority = int(prio_token)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: bad priority {prio_token!r}") from None
        rule = LabelRule(
            target=EpidemicClass.from_label(cls_token),
            pattern=pattern.strip(),
            case_sensitive=cs_token == "1",
            priority=priority,
        )
        try:
            _compile_rule(rule)
        except PatternError as exc:
            raise PatternError(f"{origin}:{lineno}: {exc}") from exc
        rules.append(rule)
    return compile_ruleset(rules)


def load_ruleset(path: str | Path | None) -> Ruleset:
    """The ruleset of a rules file; the built-in set for None."""
    if path is None:
        return default_ruleset()
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not valid UTF-8 at byte {exc.start} ({exc.reason})"
        ) from None
    return parse_ruleset_text(text, origin=str(path))


@functools.cache
def default_ruleset() -> Ruleset:
    """The built-in 11-rule set, loaded once from package data."""
    text = (
        resources.files(__package__).joinpath(DEFAULT_RULES_RESOURCE)
        .read_text(encoding="utf-8")
    )
    return parse_ruleset_text(text, origin=DEFAULT_RULES_RESOURCE)


def match_rules(ruleset: Ruleset, text: str) -> tuple[LabelRule, ...]:
    """All rules matching anywhere in text, in priority order: the one
    matcher of ``label_documents`` and of ``matched_words``.

    On ASCII text only the rules with a key in the text run, a folded key
    looked up in the lowercased text: on ASCII text and literals,
    ``re.IGNORECASE`` is ASCII case equality. Other text runs every
    rule, since ``re``'s case folding matches, for example, ``hİv``
    against ``(?i)hiv``. The result is that of searching every rule's
    pattern."""
    if text.isascii():
        lowered = text.lower()
        candidates = [i for i, key, folded in ruleset.keys
                      if key in (lowered if folded else text)]
        # most texts hold no key; they return here, before any search
        if not candidates:
            return ()
    else:
        candidates = range(len(ruleset.rules))
    return tuple(ruleset.rules[i] for i in dict.fromkeys(candidates)
                 if ruleset.compiled[i].search(text))


_WORD_BEFORE, _WORD_AFTER = re.compile(r"\w*\Z"), re.compile(r"\w*")


def matched_words(ruleset: Ruleset, texts: Iterable[str]) -> set[str]:
    """Every match in the texts of every rule that ``match_rules`` finds
    in them, widened to the word characters on both sides: what
    ``--mask-keywords`` keeps out of the vocabulary."""
    patterns = dict(zip(ruleset.rules, ruleset.compiled))
    words: set[str] = set()
    for text in texts:
        for rule in match_rules(ruleset, text):
            for m in patterns[rule].finditer(text):
                # no run of word characters crosses a space
                start = _WORD_BEFORE.search(
                    text, text.rfind(" ", 0, m.start()) + 1, m.start()).start()
                words.add(text[start:_WORD_AFTER.match(text, m.end()).end()])
    return words


def match_classes(ruleset: Ruleset, text: str) -> set[EpidemicClass]:
    """Every epidemic class whose rule matches anywhere in text."""
    return {rule.target for rule in match_rules(ruleset, text)}


MULTI_MATCH_POLICIES = ("exclude", "priority")


def _check_policy(policy: str) -> None:
    if policy not in MULTI_MATCH_POLICIES:
        raise ConfigError(f"unknown multi-match policy {policy!r}")


def resolve_label(
    matched: Sequence[LabelRule], policy: str = "exclude"
) -> EpidemicClass | None:
    """Resolve matched rules to a single class or None.

    One distinct class wins outright. Several distinct classes resolve
    to the lowest-priority rule's class under "priority", or to None
    under "exclude" (the default, minimizing cross-class label noise).
    """
    _check_policy(policy)
    classes = {rule.target for rule in matched}
    if not classes:
        return None
    if len(classes) == 1:
        return next(iter(classes))
    if policy == "priority":
        return matched[0].target
    return None


@dataclass(frozen=True, slots=True)
class LabeledExample:
    id: str
    text: str
    label: EpidemicClass


def sample_negatives(
    pool: Sequence[NormalizedDocument], n: int, seed: int
) -> list[LabeledExample]:
    """Uniform sample of n documents of a pool already known to match no
    rule, labeled NON_EPIDEMIC: the first n, then each later one, at index
    i, replaces a random one with chance n / (i + 1) (reservoir sampling).

    Deterministic given (pool order, seed). Raises
    InsufficientNegativesError reporting the shortfall when the pool
    holds fewer than n documents.
    """
    if n < 0:
        raise ConfigError(f"negative sample size {n}")
    if len(pool) < n:
        raise InsufficientNegativesError(n, len(pool))
    rng = random.Random(seed)
    reservoir = list(pool[:n])
    for i in range(n, len(pool)):
        if (j := rng.randrange(i + 1)) < n:
            reservoir[j] = pool[i]
    return [
        LabeledExample(id=d.id, text=d.text, label=EpidemicClass.NON_EPIDEMIC)
        for d in reservoir
    ]


def check_settings(included: Sequence[EpidemicClass], policy: str) -> None:
    """ConfigError unless ``included`` names at least one class, only
    epidemic ones (the non-epidemic class is always implied) and none
    twice, and ``policy`` is one of MULTI_MATCH_POLICIES."""
    if not included:
        raise ConfigError("included class list is empty")
    if EpidemicClass.NON_EPIDEMIC in included:
        raise ConfigError("the non-epidemic class is always implied; "
                          "include only epidemic classes")
    if len(set(included)) != len(included):
        raise ConfigError(f"a class is named twice in {[c.label for c in included]}")
    _check_policy(policy)


def label_documents(
    docs: Iterable[NormalizedDocument],
    ruleset: Ruleset,
    included: Iterable[EpidemicClass],
    policy: str = "exclude",
    seed: int = 0,
) -> tuple[SilverDataset, dict]:
    """Match each document against the rules once, in this process, and
    build the balanced silver dataset from the documents that resolve to
    an included class and as many negatives, drawn by
    ``sample_negatives`` from the documents that match no rule.

    Also returns the counts ``matched`` (per resolved class),
    ``ambiguous_excluded`` and ``unmatched``; they sum to len(docs).
    ``included`` and ``policy`` are checked (``check_settings``) before
    any document is read.
    """
    included = tuple(included)
    check_settings(included, policy)
    positives: dict[EpidemicClass, list[LabeledExample]] = {c: [] for c in included}
    pool: list[NormalizedDocument] = []
    matched: dict[str, int] = {}
    ambiguous = 0
    for doc in docs:
        rules = match_rules(ruleset, doc.text)
        if not rules:
            pool.append(doc)
        elif (label := resolve_label(rules, policy)) is None:
            ambiguous += 1
        else:
            matched[label.label] = matched.get(label.label, 0) + 1
            if label in positives:
                positives[label].append(LabeledExample(doc.id, doc.text, label))
    n_needed = sum(len(v) for v in positives.values())
    negatives = sample_negatives(pool, n_needed, seed)
    stats = {"matched": matched, "ambiguous_excluded": ambiguous,
             "unmatched": len(pool)}
    return build_silver_dataset(positives, negatives), stats


@dataclass(frozen=True)
class SilverDataset:
    """Deduplicated labeled examples with per-class counts.

    Invariant, checked at construction: no count is negative, and the
    NON_EPIDEMIC count equals the sum of the epidemic counts.
    ``from_counts`` builds a counts-only view (empty examples) for
    accounting at scales where materializing examples is pointless.
    """

    examples: tuple[LabeledExample, ...]
    class_counts: dict[EpidemicClass, int]

    def __post_init__(self):
        for c, n in self.class_counts.items():
            if n < 0:
                raise DataError(f"negative count {n} for {c.label}")
        n_negative = self.class_counts.get(EpidemicClass.NON_EPIDEMIC, 0)
        if (n_positive := self.total - n_negative) != n_negative:
            raise BalanceError(
                f"{n_negative} negatives != {n_positive} positives; the negative "
                "class must exactly balance the sum of the epidemic classes"
            )

    @property
    def total(self) -> int:
        return sum(self.class_counts.values())

    @classmethod
    def from_counts(cls, counts: Mapping[EpidemicClass, int]) -> "SilverDataset":
        return cls(examples=(), class_counts=dict(counts))


def build_silver_dataset(
    positives: Mapping[EpidemicClass, Sequence[LabeledExample]],
    negatives: Sequence[LabeledExample],
) -> SilverDataset:
    """Assemble and validate a balanced silver-standard dataset.

    Rejects mislabeled examples, then unbalanced counts, then duplicate
    texts (including duplicates across classes).
    """
    for cls, examples in positives.items():
        if cls is EpidemicClass.NON_EPIDEMIC:
            raise ConfigError("positives must not include the non-epidemic class")
        for ex in examples:
            if ex.label is not cls:
                raise DataError(
                    f"example {ex.id} labeled {ex.label.label} under key {cls.label}"
                )
    for ex in negatives:
        if ex.label is not EpidemicClass.NON_EPIDEMIC:
            raise DataError(f"negative example {ex.id} labeled {ex.label.label}")

    ordered: list[LabeledExample] = []
    counts: dict[EpidemicClass, int] = {}
    for cls in sorted(positives):
        ordered.extend(positives[cls])
        counts[cls] = len(positives[cls])
    ordered.extend(negatives)
    counts[EpidemicClass.NON_EPIDEMIC] = len(negatives)
    dataset = SilverDataset(examples=tuple(ordered), class_counts=counts)

    seen: set[str] = set()
    for ex in ordered:
        if ex.text in seen:
            raise DuplicateTextError(
                f"duplicate text in dataset (example {ex.id}): {ex.text[:60]!r}"
            )
        seen.add(ex.text)
    return dataset


DATASET_HEADER = "id\tlabel\ttext"


def write_dataset_tsv(dataset: SilverDataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DATASET_HEADER + "\n")
        for ex in dataset.examples:
            fh.write(f"{ex.id}\t{ex.label.label}\t{ex.text}\n")


def _decode_line(raw: bytes, path: str | Path, lineno: int) -> str:
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}:{lineno}: not valid UTF-8 at byte {exc.start} ({exc.reason})"
        ) from None
    return line.removesuffix("\n").removesuffix("\r")


def read_tsv(path: str | Path, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a tab-separated
    file that starts with `header` and has as many fields on every line.
    Lines may end in LF or CRLF. Each line is decoded on its own, so text
    that is not UTF-8 raises a DataError naming the file and the line."""
    n_fields = header.count("\t") + 1
    with open(path, "rb") as fh:
        first = _decode_line(fh.readline(), path, 1)
        if first != header:
            raise DataError(f"{path}: unexpected header {first[:80]!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = _decode_line(raw, path, lineno)
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} fields")
            yield lineno, fields


def read_dataset_tsv(path: str | Path) -> list[LabeledExample]:
    """Examples of a dataset TSV; a label that names no class is a
    DataError naming the file and the line."""
    examples = []
    for lineno, (tweet_id, label, text) in read_tsv(path, DATASET_HEADER):
        try:
            cls = EpidemicClass.from_label(label)
        except ConfigError:
            raise DataError(f"{path}:{lineno}: unknown class label {label!r}") from None
        examples.append(LabeledExample(id=tweet_id, text=text, label=cls))
    return examples
