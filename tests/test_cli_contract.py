"""Fuzzed exit-code contract of the staged subcommands.

Each example damages one input file of one subcommand (random bytes, a
truncation of the valid file, a replaced first line, or one replaced
byte) and calls
`cli.main` in process. Whatever the damage, the command must return
0, 2, 3 or 4, raise nothing, and leave at most one stderr line, which
is a JSON error record when the exit code is nonzero. A warning counts
as a stderr line, because a command-line run prints it there.
"""

import contextlib
import gzip
import io
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from episilver import cli
from episilver.errors import _same
from episilver.labeling import EpidemicClass as EC
from episilver.synth import SynthSpec, write_corpus

COUNTS = {EC.CHOLERA: 12, EC.EBOLA: 12, EC.NON_EPIDEMIC: 40}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid inputs for every subcommand, produced by the subcommands."""
    root = tmp_path_factory.mktemp("valid")
    corpus = root / "corpus.jsonl"
    write_corpus(SynthSpec(class_counts=COUNTS, seed=3), str(corpus))
    (root / "corpus.jsonl.gz").write_bytes(
        gzip.compress(corpus.read_bytes(), mtime=0))
    steps = [
        ["ingest", "--input", str(corpus), "--out", str(root / "docs.tsv"),
         "--threads", "1", "--stats", str(root / "ingest.json")],
        ["label", "--input", str(root / "docs.tsv"), "--out",
         str(root / "dataset.tsv"), "--classes", "cholera,ebola",
         "--stats", str(root / "label.json")],
        ["train", "--dataset", str(root / "dataset.tsv"), "--out", str(root)],
        ["eval", "--dataset", str(root / "dataset.tsv"), "--tfidf",
         str(root / "tfidf.json"), "--model-file",
         str(root / "model-logistic.json"), "--out", str(root)],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert cli.main(argv) == 0, argv
    return root


# target -> (valid file that gets damaged, argv); {bad} is the damaged
# copy, {ok} the directory of valid files, {tmp} a fresh directory
TARGETS = {
    "ingest": ("corpus.jsonl", ["ingest", "--input", "{bad}", "--out",
                                "{tmp}/docs.tsv", "--threads", "1"]),
    "ingest-gz": ("corpus.jsonl.gz", ["ingest", "--input", "{bad}", "--out",
                                      "{tmp}/docs.tsv", "--threads", "1"]),
    "label": ("docs.tsv", ["label", "--input", "{bad}", "--out",
                           "{tmp}/dataset.tsv", "--classes", "cholera,ebola"]),
    "train": ("dataset.tsv", ["train", "--dataset", "{bad}", "--out", "{tmp}"]),
    "eval-dataset": ("dataset.tsv", [
        "eval", "--dataset", "{bad}", "--tfidf", "{ok}/tfidf.json",
        "--model-file", "{ok}/model-tree.json", "--out", "{tmp}"]),
    "eval-tfidf": ("tfidf.json", [
        "eval", "--dataset", "{ok}/dataset.tsv", "--tfidf", "{bad}",
        "--model-file", "{ok}/model-svm.json", "--out", "{tmp}"]),
    "eval-model": ("model-logistic.json", [
        "eval", "--dataset", "{ok}/dataset.tsv", "--tfidf", "{ok}/tfidf.json",
        "--model-file", "{bad}", "--out", "{tmp}"]),
    "report": ("report-logistic.json", ["report", "--report", "{bad}"]),
}


def damage(data: bytes, mode: str, blob: bytes, cut: int) -> bytes:
    if mode == "bytes":
        return blob
    if mode == "truncate":
        return data[: cut % (len(data) + 1)]
    if mode == "byte":
        i = cut % len(data)
        return data[:i] + blob[:1] + data[i + 1:]
    # replace the first line (the header of a TSV file)
    newline = data.find(b"\n")
    rest = data[newline:] if newline >= 0 else b""
    return blob.replace(b"\n", b"") + rest


def run_cli(argv: list[str]) -> tuple[int, str, int]:
    """(exit code, stderr text, warnings raised) of one in-process run."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, stderr.getvalue(), len(caught)


@settings(max_examples=400, deadline=None)
@given(
    target=st.sampled_from(sorted(TARGETS)),
    mode=st.sampled_from(["bytes", "truncate", "header", "byte"]),
    blob=st.binary(max_size=300),
    cut=st.integers(min_value=0, max_value=2**31),
)
def test_damaged_input_keeps_exit_code_contract(valid, target, mode, blob, cut):
    name, template = TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / name
        bad.write_bytes(damage((valid / name).read_bytes(), mode, blob, cut))
        argv = [a.format(bad=bad, ok=valid, tmp=tmp) for a in template]
        code, err, n_warnings = run_cli(argv)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) + n_warnings <= 1, (err, n_warnings)
    if code != 0:
        record = json.loads(lines[0])
        assert set(record) == {"stage", "error", "message"}


# A seeded, structure-aware companion to the fuzz test above: each mutant
# changes one value, key or list entry of a JSON artifact, or one line or
# field of a TSV artifact, so it gets past the parser to the loaders.
MUTATED = {
    **{t: TARGETS[t] for t in ("label", "train", "eval-dataset", "eval-tfidf",
                               "eval-model", "report")},
    **{f"eval-model-{kind}": (f"model-{kind}.json", TARGETS["eval-model"][1])
       for kind in ("svm", "tree")},
}
MUTANTS = 80
# json.dumps cannot write 1e400, a literal that json.loads reads as inf;
# this string is replaced by it in the dumped text
OVERFLOW = "<1e400>"
HOSTILE = [None, True, False, 0, -1, 1, 2**31, 2**63, 2**64, 10**400, -0.0,
           0.5, 1e308, 5e-324, float("nan"), float("inf"), float("-inf"),
           OVERFLOW, "", "x", "cholera", "0.5", "x" * 2000, [], {}, [0],
           {"x": 0}, [[1, 2], [3]]]
HOSTILE_FIELDS = ["", "x", "plague", "cholera", "non_epidemic", "1e400", "-1",
                  "a\tb", "é" * 2000, "\U0001F637"]


def _mutate_json(data: bytes, rng) -> tuple[bytes, str]:
    doc = json.loads(data)
    parent, key, path = None, None, []
    value = doc
    # a random descent, so that each key is as likely as the long arrays
    while isinstance(value, (dict, list)) and value and (
            parent is None or rng.random() < 0.7):
        parent = value
        key = rng.choice(sorted(value)) if isinstance(value, dict) \
            else rng.randrange(len(value))
        path.append(key)
        value = parent[key]
    op = rng.choice(["replace", "replace", "replace", "drop", "repeat"])
    if op == "drop":
        del parent[key]
    elif op == "repeat" and isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        op = "replace"
        parent[key] = rng.choice(HOSTILE)
    text = json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400")
    return text.encode(), f"{op} {path}"


def _mutate_tsv(data: bytes, rng) -> tuple[bytes, str]:
    lines = data.decode("utf-8").split("\n")
    i = rng.randrange(len(lines))
    op = rng.choice(["field", "field", "drop", "repeat", "swap", "tab", "untab",
                     "crlf", "invalid"])
    if op == "field":
        fields = lines[i].split("\t")
        fields[rng.randrange(len(fields))] = rng.choice(HOSTILE_FIELDS)
        lines[i] = "\t".join(fields)
    elif op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "tab":
        lines[i] += "\t"
    elif op == "untab":
        lines[i] = lines[i].replace("\t", " ", 1)
    elif op == "crlf":
        lines[i] += "\r"
    text = "\n".join(lines).encode("utf-8")
    if op == "invalid":
        text = text.replace(b"\n", b"\n\xff", 1)
    return text, f"{op} line {i}"


@pytest.mark.parametrize("target", sorted(MUTATED))
def test_mutated_artifact_keeps_exit_code_contract(valid, target):
    """Every mutant exits 0, 2, 3 or 4 and prints at most one stderr line,
    a JSON error record under 1 KB when the exit code is nonzero."""
    name, template = MUTATED[target]
    mutate = _mutate_json if name.endswith(".json") else _mutate_tsv
    rng = random.Random(f"mutation-{target}")
    broken = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(MUTANTS):
            data, what = mutate((valid / name).read_bytes(), rng)
            bad = Path(tmp) / name
            bad.write_bytes(data)
            argv = [a.format(bad=bad, ok=valid, tmp=tmp) for a in template]
            try:
                code, err, n_warnings = run_cli(argv)
            except Exception as exc:  # a traceback on the command line
                broken.append((what, repr(exc)))
                continue
            lines = err.splitlines()
            ok = code in (0, 2, 3, 4) and len(lines) + n_warnings <= 1
            if ok and code:
                ok = len(lines) == 1 and len(lines[0].encode("utf-8")) < 1024 \
                    and set(json.loads(lines[0])) == {"stage", "error", "message"}
            if not ok:
                broken.append((what, code, err[:300], n_warnings))
    assert not broken, broken


# values whose dumps collide often: 1, 1.0 and true; 0.0 and -0.0; "1"
JSON_VALUES = st.recursive(
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, 0.5, True, False, None, "", "1", "a"]),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from("ab"), inner, max_size=2)),
    max_leaves=8)
# scalars equal under == that json.dumps writes apart
TWINS = ((0, 0.0, -0.0, False), (1, 1.0, True))


@st.composite
def near_twins(draw):
    """A value, and a copy of it whose scalars may each be swapped for a
    twin: one equal under == that json.dumps writes apart."""
    def twin(value):
        if isinstance(value, dict):
            return {k: twin(v) for k, v in value.items()}
        if isinstance(value, list):
            return [twin(v) for v in value]
        group = next((g for g in TWINS if type(value) is not str and value in g), None)
        return value if group is None else draw(st.sampled_from(group))

    value = draw(JSON_VALUES)
    return value, twin(value)


@given(near_twins(), JSON_VALUES)
def test_loader_compares_values_as_their_dumps_do(twins, other):
    """The loader's check of a file against its re-save tells two values
    apart exactly when their sorted json.dumps differ: 1, 1.0 and true
    differ, 0.0 and -0.0 differ, and so do key sets and list lengths."""
    def dump(value):
        return json.dumps(value, sort_keys=True)

    a, b = twins
    for x, y in ((a, b), (a, other)):
        assert _same(x, y) == (dump(x) == dump(y)), (x, y)
