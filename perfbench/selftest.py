"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
in both modes and on both workloads; that a model file corrupted before
``eval`` is counted as a failure without crashing the harness; and that the
harness exits non-zero, printing no result, when the sources are missing.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
failures = 0


def report(name: str, ok: bool, detail: str = "") -> None:
    global failures
    failures += not ok
    print(f"PASS {name}" if ok else f"FAIL {name}: {detail}")


def tiny(workload, factor: float):
    return dataclasses.replace(workload.scaled(factor), name=f"selftest-{workload.name}")


def check_metrics(label: str, result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    wrong = [m["name"] for m in declared
             if not isinstance(metrics.get(m["name"], {}).get("value"), (int, float))
             or metrics[m["name"]].get("unit") != m["unit"]]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    report(f"{label}: every declared metric emitted with its unit",
           not wrong and not extra, f"missing or wrong {wrong}, undeclared {extra}")
    report(f"{label}: result keys",
           sorted(result) == ["attempted", "correct", "failed", "metrics"]
           and result["attempted"] >= 1, str(sorted(result)))


def corrupt_logistic_model(args: list[str]) -> None:
    if args[0] == "eval":
        model = run.WORK / args[args.index("--model-file") + 1]
        if model.name == "model-logistic.json":
            model.write_text("{corrupt", encoding="utf-8")


def missing_sources() -> None:
    """The benchmark alone, without the program, must fail cleanly."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    report("no sources: non-zero exit and no result",
           proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"exit {proc.returncode}")
    shutil.rmtree(bare)


def main() -> int:
    small = [tiny(workloads.PAPER_RUN, 0.02), tiny(workloads.ARCHIVE_STAGED, 0.05)]
    for workload in small:
        for traced, declared in ((False, BENCHMARK["end_to_end"]),
                                 (True, BENCHMARK["per_layer"])):
            result, _ = run.run_workload(workload, SEED, 0, traced,
                                         time.perf_counter() + run.RUN_LIMIT_S)
            check_metrics(f"{workload.name} trace={int(traced)}", result, declared)

    result, failed = run.run_workload(small[1], SEED + 1, 0, False,
                                      time.perf_counter() + run.RUN_LIMIT_S,
                                      before_command=corrupt_logistic_model)
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    report("corrupted model: failed eval counted, harness completes",
           any(f.startswith("exit.eval") for f in failed)
           and result["failed"] == len(failed) and ok_ratio < 1.0,
           f"failures {failed}")
    missing_sources()
    print(f"{failures} self-test check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
