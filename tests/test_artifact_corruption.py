"""Damaged bytes in any artifact read as corruption, never as a crash.

Every on-disk artifact kind is written by the code that owns it, then
damaged one of three ways -- invalid UTF-8, four XOR-flipped bytes, or a
header field of the wrong type -- and read back.  Each read must end in the
artifact's documented corruption outcome:

* result-cache entry  -> quarantined, a miss (``contains`` is False);
* campaign report     -> ``ArtifactIntegrityError``;
* run journal         -> the damaged record is skipped;
* point summary       -> the damaged summary is skipped;
* heartbeat file      -> the damaged record is skipped;
* packed trace        -> quarantined by the trace store, a miss;
* obs recording       -> ``TraceFormatError``;
* JSON-lines trace    -> ``TraceFormatError`` naming the file, plain or
  gzipped (the interchange format never skips a line).

No bare ``UnicodeDecodeError``, ``ValueError`` or ``TypeError`` may escape.
"""

from __future__ import annotations

import gzip
import json
import shutil
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.backend.system import TaskSuperscalarSystem
from repro.common.errors import (ArtifactIntegrityError,
                                 ArtifactIntegrityWarning, TraceFormatError)
from repro.experiments.common import experiment_config
from repro.obs import ObsConfig, Observer
from repro.obs.io import load_recording, save_recording
from repro.obs.report import (HeartbeatWriter, format_report,
                              load_point_summaries, point_summary,
                              read_heartbeats, write_point_summary)
from repro.sweep.cache import ResultCache
from repro.sweep.campaign import (Campaign, load_report, run_campaign,
                                  write_report)
from repro.sweep.resilience import RunJournal, replay
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.trace.io import (read_trace, read_trace_header, read_trace_tasks,
                            write_trace)
from repro.trace.store import TraceStore

from tests.conftest import chain_trace

MODES = ("invalid_utf8", "flipped_bytes", "wrong_type")

#: Letters only, so a flip inside one yields bytes that are never UTF-8.
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def damage(raw: bytes, start: int, stop: int, mode: str) -> bytes:
    """Damage the middle of ``raw[start:stop]`` (``invalid_utf8`` writes two
    bytes that are never UTF-8; ``flipped_bytes`` XORs four bytes)."""
    middle = (start + stop) // 2
    out = bytearray(raw)
    if mode == "invalid_utf8":
        out[middle:middle + 2] = b"\xff\xfe"
    else:
        for offset in range(middle, middle + 4):
            out[offset] ^= 0xFF
    return bytes(out)


def damage_json(path: Path, mode: str, field: str, value) -> None:
    """Damage a JSON document in the middle, or mistype one field."""
    raw = path.read_bytes()
    if mode == "wrong_type":
        document = json.loads(raw)
        document[field] = value
        path.write_text(json.dumps(document, sort_keys=True, indent=1))
    else:
        path.write_bytes(damage(raw, 0, len(raw), mode))


def damage_jsonl(path: Path, mode: str, field: str, value,
                 index=None) -> int:
    """Damage one line of a JSONL file (the middle one by default); returns
    that line's index."""
    lines = path.read_bytes().splitlines(keepends=True)
    if index is None:
        index = len(lines) // 2
    if mode == "wrong_type":
        record = json.loads(lines[index])
        record[field] = value
        lines[index] = json.dumps(record).encode() + b"\n"
    else:
        lines[index] = damage(lines[index], 0, len(lines[index]) - 1, mode)
    path.write_bytes(b"".join(lines))
    return index


def damage_container(path: Path, mode: str, field: str, value) -> None:
    """Damage the JSON header of a binary container, or mistype a field."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:16], "little")
    if mode == "wrong_type":
        header = json.loads(raw[16:16 + length])
        header[field] = value
        body = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode()
        raw = raw[:8] + len(body).to_bytes(8, "little") + body \
            + raw[16 + length:]
        path.write_bytes(raw)
    else:
        path.write_bytes(damage(raw, 16, 16 + length, mode))


@contextmanager
def no_bare_errors(kind: str, mode: str):
    try:
        yield
    except (UnicodeDecodeError, ValueError, TypeError) as exc:
        pytest.fail(f"{kind} damaged by {mode}: bare {type(exc).__name__} "
                    f"escaped ({exc})")


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One cached point, its campaign report and an obs recording."""
    root = tmp_path_factory.mktemp("swept")
    spec = SweepSpec(name="corruption", workloads=("Cholesky",),
                     axes={"frontend.num_trs": (2,)},
                     base={"num_cores": 8, "scale_factor": 0.2,
                           "max_tasks": 25, "fast_generator": True})
    cache = ResultCache(root / "artifacts")
    report = run_campaign(Campaign(name="corruption", members=(spec,)),
                          SweepRunner(cache=cache))
    report_path = write_report(report, cache) / "report.json"
    observer = Observer(ObsConfig(sample_interval=64))
    TaskSuperscalarSystem(experiment_config(num_cores=4),
                          observer=observer).run(chain_trace(4))
    return spec.points()[0], cache.root, report_path, observer.snapshot()


def cache_entry(swept, tmp_path: Path, mode: str) -> None:
    point, artifacts, _, _ = swept
    shutil.copytree(artifacts / "objects", tmp_path / "objects")
    [path] = (tmp_path / "objects").glob("*/*.json")
    damage_json(path, mode, "schema", "6")
    cache = ResultCache(tmp_path)
    assert not cache.contains(point)
    with pytest.warns(ArtifactIntegrityWarning, match="quarantined"):
        assert cache.get(point) is None
    assert cache.corrupt == 1 and cache.misses == 1
    assert not path.exists()
    assert list(cache.quarantine_dir().glob("*.quarantined"))


def campaign_report(swept, tmp_path: Path, mode: str) -> None:
    path = tmp_path / "report.json"
    shutil.copy(swept[2], path)
    damage_json(path, mode, "schema", "2")
    with pytest.raises(ArtifactIntegrityError):
        load_report(path)


def journal(swept, tmp_path: Path, mode: str) -> None:
    log = RunJournal(tmp_path / "run.jsonl")
    log.emit("sweep_start", points=2)
    for letter in "ab":
        log.emit("point_running", point_id=letter * 64)
        log.emit("point_done", point_id=letter * 64)
    log.emit("sweep_done")
    intact = log.read()
    index = damage_jsonl(log.path, mode, "point_id", ["b" * 64])
    records = log.read()
    assert records == intact[:index] + intact[index + 1:]
    replay(records)


def point_summaries(swept, tmp_path: Path, mode: str) -> None:
    summary = point_summary(swept[3])
    write_point_summary(tmp_path, "good", summary)
    damage_json(write_point_summary(tmp_path, "bad", summary), mode,
                "stalls", 5)
    loaded = load_point_summaries(tmp_path)
    assert list(loaded) == ["good"]
    format_report(loaded["good"])


def heartbeats(swept, tmp_path: Path, mode: str) -> None:
    writer = HeartbeatWriter(tmp_path)
    for cycle, letter in enumerate(LETTERS[:5]):
        writer.emit("progress", point=letter * 64, cycle=cycle,
                    tasks_retired=cycle)
    intact = read_heartbeats(tmp_path)
    index = damage_jsonl(writer.path, mode, "time", "soon")
    assert read_heartbeats(tmp_path) == intact[:index] + intact[index + 1:]


def packed_trace(swept, tmp_path: Path, mode: str) -> None:
    digest = "ab" * 32
    path = TraceStore(tmp_path).put(digest, chain_trace(4))
    damage_container(path, mode, "kernels", 5)
    store = TraceStore(tmp_path)
    with pytest.warns(ArtifactIntegrityWarning, match="quarantined"):
        assert store.get(digest) is None
    assert store.corrupt == 1 and not path.exists()
    assert not store.contains(digest)


def recording(swept, tmp_path: Path, mode: str) -> None:
    path = save_recording(swept[3], tmp_path / "point.robs")
    damage_container(path, mode, "dropped", "many")
    with pytest.raises(TraceFormatError):
        load_recording(path)


def jsonl_trace(swept, tmp_path: Path, mode: str) -> None:
    damaged = []
    for name, field, value, index in (("task.jsonl", "operands", 5, None),
                                      ("header.jsonl", "trace", 5, 0)):
        path = tmp_path / name
        write_trace(chain_trace(4), path)
        damage_jsonl(path, mode, field, value, index)
        zipped = path.with_name(name + ".gz")
        zipped.write_bytes(gzip.compress(path.read_bytes()))
        damaged += [path, zipped]
    if mode != "wrong_type":
        stream = tmp_path / "stream.jsonl.gz"
        write_trace(chain_trace(4), stream)
        raw = stream.read_bytes()
        stream.write_bytes(damage(raw, 0, len(raw), mode))
        damaged.append(stream)
    for path in damaged:
        readers = [read_trace, lambda path: list(read_trace_tasks(path))]
        if path.name.startswith("header"):
            readers.append(read_trace_header)
        for read in readers:
            with pytest.raises(TraceFormatError, match=path.name):
                read(path)


CASES = {case.__name__: case for case in (
    cache_entry, campaign_report, journal, point_summaries, heartbeats,
    packed_trace, recording, jsonl_trace)}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", list(CASES))
def test_damaged_artifact_reads_as_corruption(swept, tmp_path, kind, mode):
    with no_bare_errors(kind, mode):
        CASES[kind](swept, tmp_path, mode)
