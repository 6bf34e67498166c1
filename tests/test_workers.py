"""The worker processes behind `ingest_files(..., threads=N)`, and the
errors that cross from a worker process to the caller."""

import gzip
import multiprocessing
import pickle
import re

import pytest

from episilver import errors
from episilver.corpus import IngestStats, ingest_files
from episilver.errors import ConfigError, DataError, PipelineError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# constructor arguments and the attributes they set, for the errors whose
# constructor is not (message, *, stage)
CUSTOM_ARGS = {
    errors.ParseError: (("bad", 3), {"byte_offset": 3}),
    errors.InsufficientNegativesError: (
        (5, 2), {"needed": 5, "available": 2, "shortfall": 3}),
}


@pytest.mark.parametrize("cls", [PipelineError, *_subclasses(PipelineError)],
                         ids=lambda cls: cls.__name__)
def test_every_pipeline_error_survives_pickling(cls):
    args, attrs = CUSTOM_ARGS.get(cls, (("something broke",), {}))
    exc = cls(*args)
    exc.stage = "ingest"
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.stage == "ingest"
    assert back.exit_code == exc.exit_code
    for name, value in attrs.items():
        assert getattr(back, name) == value, name


@pytest.mark.parametrize("threads", [0, -3])
def test_fewer_than_one_process_is_a_config_error(tmp_path, threads):
    # raised before any file is read, so the missing file goes unnoticed
    with pytest.raises(ConfigError, match=f"got {threads}"):
        ingest_files([str(tmp_path / "missing.jsonl")], threads=threads)


def test_worker_error_reaches_the_caller_as_itself(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text('{"id_str": "1", "text": "ok"}\n', encoding="utf-8")
    truncated = tmp_path / "truncated.jsonl.gz"
    truncated.write_bytes(gzip.compress(b'{"id_str": "2", "text": "x"}\n' * 50)[:40])
    with pytest.raises(DataError, match=re.escape(str(truncated))):
        ingest_files([str(good), str(truncated)], threads=2)
    with pytest.raises(FileNotFoundError):
        ingest_files([str(good), str(tmp_path / "missing.jsonl")], threads=2)


def test_failed_worker_leaves_no_process_behind(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text('{"id_str": "1", "text": "ok"}\n', encoding="utf-8")
    truncated = tmp_path / "truncated.jsonl.gz"
    truncated.write_bytes(gzip.compress(b'{"id_str": "2", "text": "x"}\n' * 50)[:40])
    messages = []
    for threads in (1, 2):
        with pytest.raises(DataError) as exc:
            ingest_files([str(good), str(truncated)], threads=threads)
        messages.append(str(exc.value))
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1]


def test_error_in_a_later_file_after_earlier_ones_merged(tmp_path, monkeypatch):
    paths = []
    for i in range(3):
        path = tmp_path / f"{i}.jsonl"
        path.write_text(f'{{"id_str": "{i}", "text": "doc {i}"}}\n', encoding="utf-8")
        paths.append(str(path))
    bad = tmp_path / "bad.jsonl.gz"
    bad.write_bytes(b"not gzip at all")
    merged = []
    real_merge = IngestStats.merge

    def recording_merge(self, other):
        merged.append(other.lines)
        real_merge(self, other)

    # merging happens in this process whatever the worker count
    monkeypatch.setattr(IngestStats, "merge", recording_merge)
    for threads in (1, 2):
        merged.clear()
        with pytest.raises(DataError, match=re.escape(str(bad))):
            ingest_files([*paths, str(bad)], threads=threads)
        assert merged == [1, 1, 1]
