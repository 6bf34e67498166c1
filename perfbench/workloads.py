"""The benchmark's workloads: seeded inputs, CLI command lists, output checks.

``paper-run`` loads the training half of the pipeline: one ``run`` over a
20,000-record corpus with keyword masking, so the models do most of the
work. ``archive-staged`` loads the front half: a 200,000-record archive in
four gzip shards, about 3% epidemic, taken through the staged subcommands,
so ingest and labeling do most of the work. Inputs come from
``episilver.synth`` and the workload seed only; the program sees nothing
but the generated files.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import random
import shutil
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

EPIDEMIC_CLASSES = ("cholera", "ebola", "flu", "h1n1", "hiv_aids", "influenza",
                    "mers", "sars", "swine_flu", "yellow_fever")

MODEL_KINDS = ("logistic", "svm", "tree")

# Weighted-F1 floors of the acceptance suite.
F1_FLOORS = {"logistic": 0.95, "svm": 0.95, "tree": 0.70}

# Identities IngestStats documents; each side is a sum of stats fields.
INGEST_IDENTITIES = (
    ("lines", ("parsed", "parse_errors", "schema_errors")),
    ("parsed", ("originals", "retweets")),
    ("originals", ("lang_filtered", "kept")),
    ("kept", ("empty_after_normalize", "normalized")),
    ("normalized", ("duplicates_removed", "documents")),
)


@dataclass(frozen=True)
class Workload:
    name: str
    counts: tuple[tuple[str, int], ...]
    synth: tuple[tuple[str, float], ...]
    shards: int = 1
    bad_json: int = 0
    missing_id: int = 0

    @property
    def staged(self) -> bool:
        return self.shards > 1

    @property
    def injected(self) -> int:
        return self.bad_json + self.missing_id

    @property
    def records(self) -> int:
        return sum(n for _, n in self.counts)

    def scaled(self, factor: float) -> "Workload":
        """A smaller copy with the same mix, for the self-test."""
        return dataclasses.replace(
            self,
            counts=tuple((c, max(1, int(n * factor))) for c, n in self.counts),
        )

    def spec(self, seed: int):
        from episilver.labeling import EpidemicClass
        from episilver.synth import SynthSpec

        return SynthSpec(
            class_counts={EpidemicClass.from_label(c): n for c, n in self.counts},
            seed=seed,
            **dict(self.synth),
        )

    def input_names(self) -> list[str]:
        if not self.staged:
            return ["corpus.jsonl"]
        return [f"shard-{i}.jsonl.gz" for i in range(self.shards)]

    def commands(self, inputs: list[str], out: str) -> list[list[str]]:
        """Argument lists for ``episilver.cli``, in the order they run."""
        if not self.staged:
            return [["run", "--input", *inputs, "--out", out, "--model", "all",
                     "--mask-keywords", "--threads", "1"]]
        dataset = f"{out}/dataset.tsv"
        return [
            ["ingest", "--input", *inputs, "--out", f"{out}/docs.tsv",
             "--threads", "2", "--stats", f"{out}/ingest-stats.json"],
            ["label", "--input", f"{out}/docs.tsv", "--out", dataset,
             "--stats", f"{out}/label-stats.json"],
            ["train", "--dataset", dataset, "--out", out, "--model", "all"],
        ] + [
            ["eval", "--dataset", dataset, "--tfidf", f"{out}/tfidf.json",
             "--model-file", f"{out}/model-{kind}.json", "--out", out]
            for kind in MODEL_KINDS
        ]


PAPER_RUN = Workload(
    name="paper-run",
    # The README quickstart mix, doubled.
    counts=(("cholera", 1800), ("ebola", 2000), ("mers", 1600),
            ("swine_flu", 1600), ("non_epidemic", 13000)),
    synth=(("noise_token_rate", 0.2), ("retweet_rate", 0.1),
           ("duplicate_rate", 0.05)),
)

ARCHIVE_STAGED = Workload(
    name="archive-staged",
    # All ten classes (the case-sensitive AIDS form and the swine flu / flu
    # overlap included) at 600 each: 3% of 200,000 records.
    counts=tuple((c, 600) for c in EPIDEMIC_CLASSES) + (("non_epidemic", 194_000),),
    synth=(("retweet_rate", 0.25), ("duplicate_rate", 0.10),
           ("non_english_rate", 0.10), ("url_rate", 0.4),
           ("emoji_rate", 0.3), ("emoticon_rate", 0.2)),
    shards=4,
    bad_json=40,
    missing_id=40,
)

WORKLOADS = {w.name: w for w in (PAPER_RUN, ARCHIVE_STAGED)}

# A small fixed corpus generated on every run: its digest catches an edit
# to the generator even for a seed that digests.json does not pin.
CANARY = Workload(
    name="canary",
    counts=tuple((c, 40) for c in EPIDEMIC_CLASSES + ("non_epidemic",)),
    synth=(("noise_token_rate", 0.2), ("retweet_rate", 0.1),
           ("duplicate_rate", 0.1), ("non_english_rate", 0.1)),
)


def _bad_lines(rng: random.Random, lines: list[bytes], n_bad_json: int,
               n_missing_id: int) -> list[bytes]:
    """Malformed lines derived from real records: truncated JSON, and
    objects with their id removed."""
    bad = []
    for _ in range(n_bad_json):
        line = rng.choice(lines).rstrip(b"\n")
        bad.append(line[: rng.randrange(1, len(line) - 1)] + b"\n")
    for _ in range(n_missing_id):
        obj = json.loads(rng.choice(lines))
        obj.pop("id", None)
        obj.pop("id_str", None)
        bad.append((json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
                    + "\n").encode("utf-8"))
    return bad


def _split(total: int, parts: int) -> list[int]:
    return [total * i // parts for i in range(parts + 1)]


def build(workload: Workload, seed: int) -> dict[str, bytes]:
    """The workload's input files, uncompressed, by file name."""
    from episilver.synth import synth_corpus

    lines = list(synth_corpus(workload.spec(seed)))
    rng = random.Random(f"perfbench-inject-{seed}")
    names = workload.input_names()
    bounds = _split(len(lines), len(names))
    json_cuts = _split(workload.bad_json, len(names))
    id_cuts = _split(workload.missing_id, len(names))
    files = {}
    for i, name in enumerate(names):
        shard = lines[bounds[i]:bounds[i + 1]]
        bad = _bad_lines(rng, shard, json_cuts[i + 1] - json_cuts[i],
                         id_cuts[i + 1] - id_cuts[i])
        for line in bad:
            shard.insert(rng.randrange(len(shard) + 1), line)
        files[name] = b"".join(shard)
    return files


def digest(content: bytes) -> str:
    """SHA-256 of uncompressed content, so it does not depend on zlib."""
    return hashlib.sha256(content).hexdigest()


def generate(workload: Workload, seed: int, directory: Path) -> dict[str, str]:
    """Write the workload's input files; return name -> content digest."""
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, content in build(workload, seed).items():
        digests[name] = digest(content)
        if name.endswith(".gz"):
            with open(directory / name, "wb") as raw, gzip.GzipFile(
                    filename="", mode="wb", fileobj=raw, mtime=0,
                    compresslevel=6) as fh:
                fh.write(content)
        else:
            (directory / name).write_bytes(content)
    return digests


def content_digest(path: Path) -> str:
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def prepare(workload: Workload, seed: int, directory: Path) -> dict:
    """Generate the seed's inputs unless they are already in `directory`;
    return the content digests of the inputs and of the generator canary."""
    names = workload.input_names()
    marker = directory / "digests.json"
    if marker.is_file() and all((directory / n).is_file() for n in names):
        inputs = {n: content_digest(directory / n) for n in names}
    else:
        shutil.rmtree(directory, ignore_errors=True)
        inputs = generate(workload, seed, directory)
        marker.write_text(json.dumps(inputs, sort_keys=True))
    canary = {n: digest(c) for n, c in build(CANARY, 0).items()}
    return {"inputs": inputs, "canary": canary}


def check_outputs(workload: Workload, out: Path, checks) -> dict[str, float]:
    """Check one iteration's outputs; return weighted F1 per model kind
    (0.0 where a report is missing or unreadable)."""
    check_balance(out / "dataset.tsv", checks)
    if workload.staged:
        stats_path = out / "ingest-stats.json"
    else:
        stats_path = out / "manifest.json"
    try:
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        if not workload.staged:
            stats = stats["stages"]["ingest"]
    except (OSError, ValueError, KeyError) as exc:
        checks.add("ingest.stats", False, f"{stats_path.name}: {exc}")
    else:
        check_ingest_stats(workload, stats, checks)
    f1 = {}
    for kind in MODEL_KINDS:
        path = out / f"report-{kind}.json"
        try:
            f1[kind] = float(json.loads(path.read_bytes())["weighted_f1"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.add(f"f1.{kind}", False, f"{path.name}: {exc}")
            f1[kind] = 0.0
            continue
        checks.add(f"f1.{kind}", f1[kind] >= F1_FLOORS[kind],
                   f"weighted F1 {f1[kind]:.4f}, floor {F1_FLOORS[kind]}")
    return f1


def check_balance(path: Path, checks) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            next(fh)
            labels = Counter(line.split("\t", 2)[1] for line in fh if line.strip())
    except (OSError, StopIteration, IndexError, UnicodeDecodeError) as exc:
        checks.add("dataset.balance", False, f"{path.name}: {exc}")
        return
    negatives = labels.pop("non_epidemic", 0)
    positives = sum(labels.values())
    checks.add("dataset.balance", negatives == positives and positives > 0,
               f"{negatives} non_epidemic vs {positives} epidemic")


def check_ingest_stats(workload: Workload, stats: dict, checks) -> None:
    try:
        broken = [f"{lhs} != {'+'.join(rhs)}"
                  for lhs, rhs in INGEST_IDENTITIES
                  if stats[lhs] != sum(stats[n] for n in rhs)]
        rejected = stats["parse_errors"] + stats["schema_errors"]
        files, lines = stats["files"], stats["lines"]
    except (KeyError, TypeError) as exc:
        checks.add("ingest.stats", False, f"missing field {exc}")
        return
    checks.add("ingest.identities", not broken, "; ".join(broken))
    checks.add("ingest.rejected", rejected == workload.injected,
               f"rejected {rejected}, injected {workload.injected}")
    checks.add("ingest.lines",
               files == workload.shards
               and lines == workload.records + workload.injected,
               f"{files} files, {lines} lines")


if __name__ == "__main__":
    # Input generation runs in its own process, so the harness, whose
    # memory high-water mark its children's ru_maxrss inherits, stays small.
    # Usage: workloads.py WORKLOAD_JSON SEED DIRECTORY
    fields = json.loads(sys.argv[1])
    for key in ("counts", "synth"):
        fields[key] = tuple(map(tuple, fields[key]))
    print(json.dumps(prepare(Workload(**fields), int(sys.argv[2]), Path(sys.argv[3]))))
