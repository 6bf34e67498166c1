"""Outside-in tracing of the pipeline layers, and the analysis of its spans.

Run as a script, this is the traced half of a ``--trace 1`` run:

    python tracer.py COMMANDS_JSON TRACE_PREFIX

It replaces every public function of the layer modules with a timing
wrapper, rebinds the copies other ``episilver`` modules imported by name,
runs each argument list of COMMANDS_JSON through ``episilver.cli.main`` in
this one process, and writes the spans to TRACE_PREFIX.npz and the run's
metadata to TRACE_PREFIX.json. Spans stay in memory until the end.

Imported, it turns those files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import traceback
from array import array
from pathlib import Path

LAYERS = ("corpus", "labeling", "features", "models", "evaluation")

# What to keep from a call's return value. A function or field that a later
# version renames yields None instead of an error.
RESULT_INFO = {
    "corpus.ingest_files": lambda r: {
        "lines": r[1].lines, "documents": r[1].documents,
        "rejected": r[1].parse_errors + r[1].schema_errors},
    "models.train_logistic": lambda r: {"iters": r.n_iter},
    "models.train_linear_svm": lambda r: {"iters": r.n_iter},
    "models.train_decision_tree": lambda r: {"nodes": len(r.nodes)},
}


class _ThreadSpans:
    """Spans of one thread, in columns; only that thread appends."""

    def __init__(self):
        self.stack: list[int] = []
        self.span = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.threads: list[_ThreadSpans] = []
        self.info: dict[int, dict | None] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self.threads.append(spans)
        return spans

    def wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        extract = RESULT_INFO.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            span = next(self._ids)
            parent = spans.stack[-1] if spans.stack else -1
            spans.stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                spans.stack.pop()
                spans.span.append(span)
                spans.name.append(name_id)
                spans.start.append(start)
                spans.end.append(end)
                spans.parent.append(parent)
            if extract is not None:
                try:
                    self.info[span] = extract(result)
                except (AttributeError, TypeError, IndexError):
                    self.info[span] = None
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every copy of them
        held by an ``episilver`` module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"episilver.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if modname != "episilver" and not modname.startswith("episilver."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def save(self, prefix: Path, meta: dict) -> None:
        import numpy as np

        columns = {}
        for field in ("span", "name", "start", "end", "parent"):
            columns[field] = np.concatenate(
                [np.frombuffer(getattr(t, field), dtype=getattr(t, field).typecode)
                 for t in self.threads] or [np.zeros(0)])
        columns["thread"] = np.concatenate(
            [np.full(len(t.span), i, dtype=np.int32)
             for i, t in enumerate(self.threads)] or [np.zeros(0, np.int32)])
        np.savez(prefix.with_suffix(".npz"), **columns)
        meta = dict(meta, names=self.names,
                    info={str(k): v for k, v in self.info.items()})
        prefix.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


def _run_command(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the harness records any crash and goes on
        traceback.print_exc()
        return 1


def main(argv: list[str]) -> int:
    commands = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    prefix = Path(argv[2])
    from episilver import cli

    recorder = Recorder()
    recorder.install()
    results = []
    wall_start = time.perf_counter()
    for command in commands:
        start = time.perf_counter()
        code = _run_command(cli.main, command)
        results.append({"argv": command, "exit": code,
                        "start": start, "end": time.perf_counter()})
    wall_end = time.perf_counter()
    recorder.save(prefix, {"wall": [wall_start, wall_end], "commands": results})
    return 0


# ---------------------------------------------------------------- analysis


def _union_s(start, end) -> float:
    """Total length of the union of [start, end) intervals."""
    import numpy as np

    if len(start) == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], np.maximum.accumulate(end[order])
    first = np.flatnonzero(np.r_[True, s[1:] > e[:-1]])
    last = np.r_[first[1:] - 1, len(s) - 1]
    return float(np.sum(e[last] - s[first]))


def layer_metrics(prefix: Path) -> dict[str, float | None]:
    """Per-layer metrics from a saved trace. A metric whose function was
    not found in the program is None."""
    import numpy as np

    meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    cols = np.load(prefix.with_suffix(".npz"))
    names = meta["names"]
    name, start, end = cols["name"], cols["start"], cols["end"]
    span_ids = cols["span"]
    info = {int(k): v for k, v in meta["info"].items()}

    def mask(qualname: str):
        return name == names.index(qualname) if qualname in names else None

    def count(qualname: str):
        m = mask(qualname)
        return None if m is None else int(np.count_nonzero(m))

    def busy(qualname: str):
        m = mask(qualname)
        return None if m is None else _union_s(start[m], end[m])

    def total(qualname: str):
        m = mask(qualname)
        return None if m is None else float(np.sum(end[m] - start[m]))

    def summed(qualname: str, key: str):
        m = mask(qualname)
        if m is None:
            return None
        values = [(info.get(int(s)) or {}).get(key) for s in span_ids[m]]
        return None if not values or None in values else sum(values)

    def ratio(num, den):
        return None if num is None or not den else num / den

    out: dict[str, float | None] = {}
    for layer in LAYERS:
        ids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        m = np.isin(name, ids)
        out[f"{layer}.busy_s"] = _union_s(start[m], end[m]) if ids else None
    out["corpus.records_per_s"] = ratio(
        summed("corpus.ingest_files", "lines"), out["corpus.busy_s"])
    out["corpus.parse_overlap"] = ratio(
        total("corpus.parse_file"), total("corpus.ingest_files"))
    out["corpus.rejected"] = summed("corpus.ingest_files", "rejected")
    out["labeling.sample_negatives_s"] = busy("labeling.sample_negatives")
    out["labeling.match_calls_per_doc"] = ratio(
        count("labeling.match_rules"), summed("corpus.ingest_files", "documents"))
    out["features.transform_calls"] = count("features.transform")
    out["models.train_logistic_s"] = busy("models.train_logistic")
    out["models.train_svm_s"] = busy("models.train_linear_svm")
    out["models.train_tree_s"] = busy("models.train_decision_tree")
    out["models.logistic_evals"] = count("models.logistic_loss_grad")
    out["models.svm_evals"] = count("models.squared_hinge_loss_grad")
    out["models.logistic_iters"] = summed("models.train_logistic", "iters")
    out["models.svm_iters"] = summed("models.train_linear_svm", "iters")
    out["models.tree_nodes"] = summed("models.train_decision_tree", "nodes")
    out["models.predict_s"] = busy("models.predict")
    wall = meta["wall"][1] - meta["wall"][0]
    out["cli.self_s"] = wall - _union_s(start, end)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
