"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently
runnable: synth, ingest, label, train, eval, report, and run (the full
pipeline). Exit codes: 0 success, 2 configuration error, 3 data error,
4 training error. Stage failures emit one machine-readable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

# Only stdlib-only modules at the top: the commands that train or score
# import the numeric ones when they run, so `--help`, `synth`, `ingest`
# and `label` never load them, nor do the workers that `ingest` forks.
# Of the others, `eval` and `report` load numpy only; scipy comes in with
# the linear trainers: `train` and `run` load it only for `logistic` or
# `svm`.
from .config import (
    DEFAULT_CLASSES,
    MODEL_FILE,
    MODEL_KINDS,
    REPORT_FILES,
    TFIDF_FILE,
    PipelineConfig,
    check_distinct_paths,
    check_outputs,
    derive_seed,
)
from .corpus import NormalizedDocument, ingest_files
from .errors import ConfigError, DataError, PipelineError, stage
from .labeling import (
    MULTI_MATCH_POLICIES,
    EpidemicClass,
    label_documents,
    load_ruleset,
    read_dataset_tsv,
    read_tsv,
    write_dataset_tsv,
)

DOCS_HEADER = "id\ttext"
# bytes of an error message, JSON-escaped, that its record keeps: the start
# names the file, the kind and the keys; a quoted bad value may run on
MESSAGE_LIMIT = 500


def _parse_classes(spec: str) -> tuple[EpidemicClass, ...]:
    return tuple(EpidemicClass.from_label(t) for t in spec.split(",") if t.strip())


def _parse_counts(spec: str) -> dict[EpidemicClass, int]:
    counts: dict[EpidemicClass, int] = {}
    for item in spec.split(","):
        if not item.strip():
            continue
        try:
            name, value = item.split("=")
            count = int(value)
        except ValueError:
            raise ConfigError(f"bad count entry {item!r}; expected class=count") from None
        if (cls := EpidemicClass.from_label(name)) in counts:
            raise ConfigError(f"class {cls.label} is named twice in the counts")
        counts[cls] = count
    if not counts:
        raise ConfigError("empty class counts")
    return counts


def _lang_arg(value: str) -> str | None:
    return None if value == "none" else value


def _write_docs_tsv(docs: list[NormalizedDocument], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DOCS_HEADER + "\n")
        for doc in docs:
            fh.write(f"{doc.id}\t{doc.text}\n")


def _read_docs_tsv(path: str) -> Iterator[NormalizedDocument]:
    """The documents of a docs TSV, read line by line as they are taken."""
    return (NormalizedDocument._make(fields)
            for _, fields in read_tsv(path, DOCS_HEADER))


def _write_stats(summary: dict, path: str | None) -> None:
    """Write the summary as one sorted JSON line to the --stats file, or to
    stderr when there is none."""
    line = json.dumps(summary, sort_keys=True)
    if path:
        Path(path).write_text(line + "\n", encoding="utf-8")
    else:
        print(line, file=sys.stderr)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, write_corpus

    spec = SynthSpec(
        class_counts=_parse_counts(args.counts),
        noise_token_rate=args.noise_rate,
        retweet_rate=args.retweet_rate,
        duplicate_rate=args.duplicate_rate,
        seed=args.seed,
    )
    count = write_corpus(spec, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    check_distinct_paths(args.input, (args.out, args.stats))
    docs, stats = ingest_files(args.input, args.lang, args.threads)
    _write_docs_tsv(docs, args.out)
    _write_stats(stats.as_dict(), args.stats)
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    check_distinct_paths((args.input, args.ruleset), (args.out, args.stats))
    ruleset = load_ruleset(args.ruleset)
    docs = _read_docs_tsv(args.input)
    dataset, stats = label_documents(
        docs, ruleset, _parse_classes(args.classes), args.policy,
        derive_seed(args.seed, "negatives"),
    )
    write_dataset_tsv(dataset, args.out)
    counts = {c.label: n for c, n in dataset.class_counts.items()}
    _write_stats({"class_counts": counts, "total": dataset.total, **stats}, args.stats)
    print(f"wrote {dataset.total} examples to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .pipeline import fit_features, split_dataset, train_model

    kinds = MODEL_KINDS if args.model == "all" else (args.model,)
    check_outputs((args.dataset, args.ruleset), args.out, (TFIDF_FILE, MODEL_FILE), kinds)
    train, _ = split_dataset(
        read_dataset_tsv(args.dataset), args.ratio, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mask = load_ruleset(args.ruleset) if args.mask_keywords else None
    tfidf, X_train = fit_features(
        [ex.text for ex in train], mask, args.ratio, args.seed, out_dir)
    y_train = [ex.label for ex in train]
    for kind in kinds:
        train_model(kind, X_train, y_train, args.seed, tfidf, out_dir)
        print(f"trained {kind} on {len(y_train)} examples -> "
              f"{MODEL_FILE.format(kind=kind)}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import features, models
    from .pipeline import evaluate, split_dataset

    tfidf, split = features.load_tfidf(args.tfidf)
    train, validation = split_dataset(
        read_dataset_tsv(args.dataset), split["ratio"], split["seed"])
    texts = [ex.text for ex in train]
    if features.split_record(texts, split["ratio"], split["seed"]) != split:
        raise DataError(f"dataset {args.dataset} is not the one {args.tfidf} was fit on")
    model, expected = models.load_model(args.model_file)
    actual = features.idf_checksum(tfidf)
    if expected != actual:
        raise DataError(
            f"model {args.model_file} was trained against a different "
            f"feature model (checksum {expected[:12]}.. != {actual[:12]}..)"
        )
    check_outputs((args.dataset, args.tfidf, args.model_file), args.out,
                  REPORT_FILES.values(), (model.kind,))
    X_val = features.transform(tfidf, (ex.text for ex in validation))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate(model, X_val, [ex.label for ex in validation], out_dir)
    print(f"{report.model_id}: weighted_f1={report.weighted_f1:.4f} "
          f"accuracy={report.accuracy:.4f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import evaluation

    report = evaluation.report_from_json(Path(args.report).read_bytes(), args.report)
    sys.stdout.buffer.write(evaluation.render_report(report, args.format))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .pipeline import run_pipeline

    config = PipelineConfig(
        inputs=tuple(args.input),
        out_dir=args.out,
        ruleset_path=args.ruleset,
        included_classes=_parse_classes(args.classes),
        policy=args.policy,
        ratio=args.ratio,
        master_seed=args.seed,
        model_kinds=MODEL_KINDS if args.model == "all" else (args.model,),
        require_lang=args.lang,
        mask_keywords=args.mask_keywords,
        threads=args.threads,
    )
    result = run_pipeline(config)
    for kind, report in result.reports.items():
        print(f"{kind}: weighted_f1={report.weighted_f1:.4f} "
              f"accuracy={report.accuracy:.4f}")
    print(f"artifacts in {result.out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is a ConfigError of the subcommand whose parser
        found it, or of `cli` for the top-level parser."""
        raise ConfigError(message, stage=self.prog.partition(" ")[2] or "cli")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="episilver",
        description="Silver-standard epidemic tweet datasets and classical "
                    "text classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that `run` shares with the staged commands, declared once
    ingest, label, train, shared = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    ingest.add_argument("--lang", type=_lang_arg, default="en",
                        help='language code or "none"')
    ingest.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    label.add_argument("--classes",
                       default=",".join(c.label for c in DEFAULT_CLASSES))
    label.add_argument("--policy", choices=MULTI_MATCH_POLICIES, default="exclude")
    train.add_argument("--model", choices=MODEL_KINDS + ("all",), default="all")
    train.add_argument("--ratio", type=float, default=0.75)
    train.add_argument("--mask-keywords", action="store_true")
    shared.add_argument("--ruleset")
    shared.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--counts", required=True,
                   help="per-class counts, e.g. cholera=100,non_epidemic=200")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--retweet-rate", type=float, default=0.0)
    p.add_argument("--duplicate-rate", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", parents=[ingest],
                       help="parse, filter, normalize, deduplicate")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="write the ingest summary here instead of stderr")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", parents=[label, shared],
                       help="label documents and balance negatives")
    p.add_argument("--input", required=True, help="docs TSV from ingest")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", parents=[train, shared],
                       help="split, fit features, train models")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on the split tfidf.json records")
    p.add_argument("--dataset", required=True)
    p.add_argument("--tfidf", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a stored report")
    p.add_argument("--report", required=True, help="report JSON file")
    p.add_argument("--format", choices=tuple(REPORT_FILES), default="tsv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", parents=[ingest, label, train, shared],
                       help="full pipeline")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        with stage(args.command):
            if extra:
                raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
            return args.func(args)
    except PipelineError as exc:
        message = str(exc)
        cut = next((i for i in range(len(message))
                    if len(json.dumps(message[:i + 1])) - 2 > MESSAGE_LIMIT), None)
        if cut is not None:
            message = f"{message[:cut]}... [{len(message) - cut} characters cut]"
        record = {
            "stage": exc.stage,
            "error": type(exc).__name__,
            "message": message,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
