"""Run configuration: the defaults, the resolved configuration of a
`run`, its hash, the per-stage seeds and the check that no command
writes over one of its inputs.

Only the standard library is needed here, so the commands that never
train (``synth``, ``ingest``, ``label``) import no numeric package.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .labeling import EpidemicClass, check_settings

DEFAULT_CLASSES = (
    EpidemicClass.CHOLERA,
    EpidemicClass.EBOLA,
    EpidemicClass.MERS,
    EpidemicClass.SWINE_FLU,
)

MODEL_KINDS = ("logistic", "svm", "tree")

# The files that `run`, `train` and `eval` write into --out, `{kind}` a model
# kind; REPORT_FILES maps each report format to its file.
DATASET_FILE, TFIDF_FILE, MANIFEST_FILE = "dataset.tsv", "tfidf.json", "manifest.json"
MODEL_FILE = "model-{kind}.json"
REPORT_FILES = {"tsv": "report-{kind}.tsv", "json": "report-{kind}.json",
                "confusion": "confusion-{kind}.csv"}


@dataclass(frozen=True)
class PipelineConfig:
    inputs: tuple[str, ...]
    out_dir: str
    ruleset_path: str | None = None
    included_classes: tuple[EpidemicClass, ...] = DEFAULT_CLASSES
    policy: str = "exclude"
    ratio: float = 0.75
    master_seed: int = 0
    model_kinds: tuple[str, ...] = MODEL_KINDS
    require_lang: str | None = "en"
    mask_keywords: bool = False
    threads: int = 1

    def __post_init__(self):
        if not self.inputs:
            raise ConfigError("no input paths")
        if not 0.0 < self.ratio < 1.0:
            raise ConfigError(f"ratio {self.ratio} outside (0, 1)")
        check_settings(self.included_classes, self.policy)
        for kind in self.model_kinds:
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}")
        check_outputs((*self.inputs, self.ruleset_path), self.out_dir,
                      (DATASET_FILE, TFIDF_FILE, MANIFEST_FILE, MODEL_FILE,
                       *REPORT_FILES.values()), self.model_kinds)
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def as_dict(self) -> dict:
        """The configuration as JSON values, less `threads` and `out_dir`:
        how ingest ran and where the files went are not what the run
        computed, so both stay out of this record and of `config_hash`."""
        fields = asdict(self)
        del fields["threads"], fields["out_dir"]
        return {**fields,
                "included_classes": [c.label for c in self.included_classes]}


def check_distinct_paths(inputs, outputs) -> None:
    """Raise ConfigError unless the input paths and the given output paths
    name distinct files, however each is spelled (relative, through a
    symlink), so that no command overwrites what it reads."""
    seen: dict[str, str] = {}
    for path in (p for p in (*inputs, *outputs) if p is not None):
        # realpath, unlike Path.resolve, does not raise on a symlink loop
        if (real := os.path.realpath(path)) in seen:
            raise ConfigError(f"{seen[real]} and {path} name the same file; "
                              "each path must name a different file")
        seen[real] = path


def check_outputs(inputs, out_dir, names, kinds) -> None:
    """``check_distinct_paths`` of the inputs against out_dir and the files
    a command writes into it: `names`, one with `{kind}` once per kind."""
    check_distinct_paths(inputs, (out_dir, *dict.fromkeys(
        os.path.join(out_dir, name.format(kind=kind)) for name in names
        for kind in (kinds if "{kind}" in name else (None,)))))


def derive_seed(master: int, stage: str) -> int:
    """Stable per-stage seed from the master seed."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(config.as_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
