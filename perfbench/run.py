"""Benchmark harness for episilver.

Run from the repository root:

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Every CLI command runs as a fresh ``python -m episilver.cli`` process with
``src/`` on the path; the package need not be installed. Inputs are
generated from ``--seed`` into ``.bench_work/`` and checked against the
digests pinned in ``digests.json``. With ``--trace 0`` the workload's
commands run repeatedly for ``--seconds`` and the end-to-end metrics are
reported; with ``--trace 1`` one untraced pass is followed by one traced
in-process pass (see ``tracer.py``) and the per-layer metrics are reported.
Human-readable lines and an environment record come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. METRICS.md describes each metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run must end within 180 s; stop starting work past this point.
RUN_LIMIT_S = 170.0
# Cold starts timed before the first pass and after each pass.
SETUP_SAMPLES = 3
# Thread count for BLAS in every measured process (the machine this
# benchmark was tuned on has 2 cores).
BLAS_THREADS = "2"

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "weighted_f1.logistic": "ratio",
    "weighted_f1.svm": "ratio",
    "weighted_f1.tree": "ratio",
}

PER_LAYER_UNITS = {
    "corpus.busy_s": "s",
    "corpus.records_per_s": "records/s",
    "corpus.parse_overlap": "ratio",
    "corpus.rejected": "count",
    "labeling.busy_s": "s",
    "labeling.sample_negatives_s": "s",
    "labeling.match_calls_per_doc": "calls/doc",
    "features.busy_s": "s",
    "features.transform_calls": "count",
    "models.busy_s": "s",
    "models.train_logistic_s": "s",
    "models.train_svm_s": "s",
    "models.train_tree_s": "s",
    "models.logistic_evals": "count",
    "models.svm_evals": "count",
    "models.logistic_iters": "count",
    "models.svm_iters": "count",
    "models.tree_nodes": "count",
    "models.predict_s": "s",
    "evaluation.busy_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Checks:
    """Invocations and output checks, counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Harness:
    """Runs one workload's commands as child processes inside WORK."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def spawn(self, argv: list[str], log: Path):
        """Run one child to completion; return (exit code, wall seconds,
        rusage). The child is killed at the run's deadline."""
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=WORK, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage

    def cli(self, args: list[str], log: Path, checks: Checks):
        code, elapsed, usage = self.spawn(
            [sys.executable, "-m", "episilver.cli", *args], log)
        check_exit(f"exit.{args[0]}", code, log, checks)
        return elapsed, usage


def check_exit(name: str, code: int, log: Path, checks: Checks) -> None:
    stderr = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")
    ok = code == 0 and "Traceback" not in stderr
    detail = f"exit {code}" + ("; traceback on stderr" if "Traceback" in stderr else "")
    checks.add(name, ok, detail)


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*"), *HERE.rglob("*")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(harness: Harness, seed: int) -> dict:
    log = WORK / "logs" / "envprobe"
    code, _, _ = harness.spawn([sys.executable, str(HERE / "envprobe.py")], log)
    try:
        probe = json.loads(Path(f"{log}.out").read_text()) if code == 0 else {}
    except ValueError:
        probe = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "openblas_threads": probe.get("openblas_threads"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


def prepare_inputs(harness: Harness, workload, seed: int, checks: Checks) -> list[str]:
    """Generate (or reuse) the seed's inputs in a child process and check
    them against the pinned digests; return their paths relative to WORK."""
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    directory = WORK / "inputs" / f"{workload.name}-{seed}"
    log = WORK / "logs" / workload.name / "inputs"
    code, _, _ = harness.spawn(
        [sys.executable, str(HERE / "workloads.py"),
         json.dumps(dataclasses.asdict(workload)), str(seed), str(directory)], log)
    check_exit("inputs.prepare", code, log, checks)
    try:
        got = json.loads(Path(f"{log}.out").read_text())
    except ValueError:
        got = {"inputs": None, "canary": None}
    checks.add("inputs.generator", got["canary"] == pinned["canary"],
               "the synthetic generator's output changed")
    expected = pinned["workloads"].get(workload.name, {}).get(str(seed))
    if expected is not None:
        checks.add("inputs.pinned", got["inputs"] == expected,
                   "inputs differ from digests.json")
    return [str(Path("inputs") / directory.name / n) for n in workload.input_names()]


def artifact_digests(out: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of each output file and their total size. The manifest is
    taken without its wall-clock timings, which differ on every run."""
    digests, size = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        if path.name != "manifest.json":
            size += path.stat().st_size
            with open(path, "rb") as fh:
                digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
            continue
        data = path.read_bytes()
        try:
            doc = json.loads(data)
            doc.pop("timings", None)
            data = json.dumps(doc, indent=2, sort_keys=True).encode()
        except ValueError:
            pass
        size += len(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests, size


def compare_artifacts(name: str, got: dict, want: dict, checks: Checks) -> None:
    differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    checks.add(name, not differ, "differ: " + ", ".join(differ))


def fresh_out(workload) -> Path:
    out = WORK / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def run_iteration(harness: Harness, workload, inputs: list[str], label: str,
                  checks: Checks, before_command=None) -> dict:
    """One pass over the workload's commands, each a fresh process."""
    out = fresh_out(workload)
    commands = workload.commands(inputs, str(out.relative_to(WORK)))
    rss_kb, cpu_s = 0, 0.0
    start = time.perf_counter()
    for i, args in enumerate(commands):
        if before_command is not None:
            before_command(args)
        _, usage = harness.cli(args, WORK / "logs" / label / f"{i}-{args[0]}", checks)
        rss_kb = max(rss_kb, usage.ru_maxrss)
        cpu_s += usage.ru_utime + usage.ru_stime
    run_s = time.perf_counter() - start
    f1 = workloads.check_outputs(workload, out, checks)
    digests, size = artifact_digests(out)
    return {"run_s": run_s, "peak_rss_mb": rss_kb / 1024.0, "cpu_s": cpu_s,
            "f1": f1, "digests": digests, "artifact_bytes": size}


def earlier_runs_check(workload, seed: int, digests: dict, checks: Checks) -> None:
    """Artifacts must match those of earlier runs of the same sources and
    seed in this checkout; the first clean run records them."""
    record = WORK / "artifacts" / f"{workload.name}-{seed}-{source_digest()[:16]}.json"
    if record.is_file():
        compare_artifacts("artifacts.earlier-runs", digests,
                          json.loads(record.read_text()), checks)
    elif not checks.failures:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(digests, sort_keys=True))


def measure(harness: Harness, workload, seed: int, seconds: float,
            checks: Checks, before_command=None) -> dict[str, float]:
    """End-to-end metrics: set-up time, then whole passes for `seconds`."""
    inputs = prepare_inputs(harness, workload, seed, checks)
    log = WORK / "logs" / workload.name / "setup"
    setup: list[float] = []

    def sample_setup() -> None:
        # Taken before and after every pass, so the samples see the machine
        # in the same states the passes do.
        setup.extend(harness.cli(["--help"], log, checks)[0]
                     for _ in range(SETUP_SAMPLES))

    harness.cli(["--help"], log, checks)  # warm the file cache; not timed
    sample_setup()
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(
            harness, workload, inputs, f"{workload.name}/iter-{len(iterations)}",
            checks, before_command))
        sample_setup()
        now = time.perf_counter()
        longest = max(it["run_s"] for it in iterations)
        if now - start >= seconds or now + longest > harness.deadline:
            break
    first = iterations[0]
    for k, it in enumerate(iterations[1:], start=1):
        compare_artifacts(f"artifacts.iteration-{k}", it["digests"],
                          first["digests"], checks)
    earlier_runs_check(workload, seed, first["digests"], checks)
    metrics = {
        "run_s": statistics.median(it["run_s"] for it in iterations),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(it["peak_rss_mb"] for it in iterations),
    }
    metrics["ok_ratio"] = (checks.attempted - checks.failed) / checks.attempted
    for kind, value in first["f1"].items():
        metrics[f"weighted_f1.{kind}"] = value
    print(f"{workload.name}: {len(iterations)} passes, run_s "
          f"{[round(it['run_s'], 3) for it in iterations]}, setup_s "
          f"{[round(s, 3) for s in setup]}")
    return metrics


def trace(harness: Harness, workload, seed: int, checks: Checks) -> dict:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    inputs = prepare_inputs(harness, workload, seed, checks)
    untraced = run_iteration(harness, workload, inputs,
                             f"{workload.name}/untraced", checks)
    earlier_runs_check(workload, seed, untraced["digests"], checks)

    out = fresh_out(workload)
    commands = workload.commands(inputs, str(out.relative_to(WORK)))
    trace_dir = WORK / "trace"
    trace_dir.mkdir(exist_ok=True)
    commands_file = trace_dir / f"{workload.name}-commands.json"
    commands_file.write_text(json.dumps(commands))
    prefix = trace_dir / f"{workload.name}-spans"
    for suffix in (".json", ".npz"):
        prefix.with_suffix(suffix).unlink(missing_ok=True)
    log = WORK / "logs" / workload.name / "traced"
    code, traced_s, _ = harness.spawn(
        [sys.executable, str(HERE / "tracer.py"), str(commands_file), str(prefix)], log)
    check_exit("exit.tracer", code, log, checks)
    try:
        meta = json.loads(prefix.with_suffix(".json").read_text())
        layers = tracer.layer_metrics(prefix)
    except (OSError, ValueError, KeyError) as exc:
        checks.add("trace.spans", False, str(exc))
        meta, layers = {"commands": []}, {}
    for command in meta["commands"]:
        checks.add(f"exit.traced-{command['argv'][0]}", command["exit"] == 0,
                   f"exit {command['exit']}")
    workloads.check_outputs(workload, out, checks)
    compare_artifacts("artifacts.traced", artifact_digests(out)[0],
                      untraced["digests"], checks)
    metrics = {name: layers.get(name) for name in PER_LAYER_UNITS}
    metrics["cli.cpu_s"] = untraced["cpu_s"]
    metrics["cli.artifact_bytes"] = untraced["artifact_bytes"]
    metrics["trace.overhead_s"] = traced_s - untraced["run_s"]
    print(f"{workload.name}: untraced {untraced['run_s']:.3f} s, "
          f"traced {traced_s:.3f} s")
    return metrics


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 deadline: float, before_command=None) -> dict:
    """Run one workload; return the result object printed as the last line
    and the failed checks."""
    WORK.mkdir(exist_ok=True)
    harness = Harness(deadline)
    checks = Checks()
    env = environment(harness, seed)
    if traced:
        values, units = trace(harness, workload, seed, checks), PER_LAYER_UNITS
    else:
        values = measure(harness, workload, seed, seconds, checks, before_command)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        value = values.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload.name}  {name} = {shown} {unit}")
    if not traced:
        print(f"{workload.name}  failed_ratio = "
              f"{checks.failed / checks.attempted:.6g} ratio")
    for failure in checks.failures:
        print(f"{workload.name}  FAILED {failure}")
    record = {"workload": workload.name, "trace": int(traced),
              "environment": env, "failures": checks.failures}
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-{seed}-trace{int(traced)}.json").write_text(
        json.dumps(dict(record, result=result), indent=1, sort_keys=True))
    return result, checks.failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper-run, archive-staged or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "episilver" / "cli.py").is_file():
        print(f"error: no episilver sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    results = {}
    for name in names:
        results[name], _ = run_workload(
            workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
            deadline=time.perf_counter() + RUN_LIMIT_S)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
