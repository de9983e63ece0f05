"""Tests for the content-addressed packed trace store."""

from __future__ import annotations

import pytest

from repro.common.errors import ArtifactIntegrityWarning
from repro.common.hashing import content_digest
from repro.trace.packed import PACKED_FORMAT_VERSION, pack_trace
from repro.trace.records import TaskTrace
from repro.trace.store import (TraceStore, canonical_trace_params,
                               trace_digest)

from tests.conftest import chain_trace, fork_join_trace


class TestCanonicalKey:
    def test_spelling_variants_share_a_digest(self):
        assert trace_digest("cholesky") == trace_digest("Cholesky")
        assert (trace_digest("random_dag:width=16,depth=8")
                == trace_digest("RANDOM_DAG:depth=8,width=16"))

    def test_inline_params_and_kwargs_are_equivalent(self):
        assert (trace_digest("random_dag:width=16")
                == trace_digest("random_dag", workload_kwargs={"width": 16}))

    def test_generation_knobs_change_the_digest(self):
        base = trace_digest("Cholesky")
        assert trace_digest("Cholesky", seed=1) != base
        assert trace_digest("Cholesky", scale_factor=0.5) != base
        assert trace_digest("Cholesky", max_tasks=10) != base
        assert trace_digest("MatMul") != base

    def test_canonical_params_normalise_the_workload(self):
        params = canonical_trace_params("matmul", scale_factor=1,
                                        workload_kwargs=None)
        assert params["workload"] == "MatMul"
        assert params["scale_factor"] == 1.0
        assert params["max_tasks"] is None


class TestStore:
    def test_miss_then_bake_then_hit(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        params = {"workload": "fixture", "seed": 0}
        digest = content_digest(params)
        assert store.get(digest) is None
        assert store.misses == 1

        calls = []

        def generate():
            calls.append(1)
            return fork_join_trace(width=3)

        packed, baked = store.get_or_bake(params, generate)
        assert baked and calls == [1]
        assert store.bakes == 1
        again, baked_again = store.get_or_bake(params, generate)
        assert not baked_again and calls == [1]
        assert store.hits >= 1
        assert len(again) == len(packed)
        assert store.contains(digest)
        assert len(store) == 1

    def test_loaded_trace_matches_original(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = chain_trace(5)
        store.put("ab" * 32, trace, params={"workload": "chain"})
        loaded = store.get("ab" * 32)
        rebuilt = loaded.to_task_trace()
        assert list(rebuilt) == list(trace)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = "cd" * 32
        store.put(digest, chain_trace(3))
        store.path_for(digest).write_bytes(b"garbage")
        with pytest.warns(ArtifactIntegrityWarning):
            assert store.get(digest) is None
        assert not store.contains(digest)
        assert store.corrupt == 1

    def test_truncated_columns_read_as_miss_everywhere(self, tmp_path):
        """A valid header stapled to truncated column bytes must not count as
        present, or the parent would skip baking while workers regenerate.
        The first probe to notice the damage also quarantines the file, so
        the digest path is clear for the re-bake and ``gc`` has nothing left
        to collect."""
        store = TraceStore(tmp_path)
        digest = "99" * 32
        store.put(digest, chain_trace(4))
        path = store.path_for(digest)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.warns(ArtifactIntegrityWarning, match="quarantined"):
            assert not store.contains(digest)
        assert store.get(digest) is None
        assert len(store) == 0
        assert store.entries() == []
        assert store.gc() == []
        assert store.corrupt == 1
        assert not path.exists()
        [moved] = store.quarantined
        assert moved.parent == store.quarantine_dir()
        assert moved.read_bytes()  # the evidence is preserved, not deleted

    def test_stale_format_version_reads_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = "ef" * 32
        store.put(digest, chain_trace(3))
        raw = bytearray(store.path_for(digest).read_bytes())
        raw[4:8] = (PACKED_FORMAT_VERSION + 7).to_bytes(4, "little")
        store.path_for(digest).write_bytes(bytes(raw))
        assert store.get(digest) is None

    def test_entries_lists_readable_traces(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("11" * 32, fork_join_trace(width=2),
                  params={"workload": "fork_join"})
        store.put("22" * 32, chain_trace(4))
        (tmp_path / "33").mkdir()
        (tmp_path / "33" / ("33" * 32 + ".rpt")).write_bytes(b"junk")
        entries = store.entries()
        assert [e.digest for e in entries] == ["11" * 32, "22" * 32]
        assert entries[0].params == {"workload": "fork_join"}
        assert entries[0].num_tasks == 4  # producer + 2 workers + reducer
        assert entries[1].params == {}

    def test_empty_trace_is_storable(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("44" * 32, TaskTrace("empty", []))
        loaded = store.get("44" * 32)
        assert len(loaded) == 0


class TestGc:
    def test_gc_drops_only_unreadable_by_default(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("aa" * 32, chain_trace(3))
        store.put("bb" * 32, chain_trace(4))
        store.path_for("bb" * 32).write_bytes(b"corrupt")
        removed = store.gc()
        assert [p.stem for p in removed] == ["bb" * 32]
        assert store.contains("aa" * 32)

    def test_gc_keep_set(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("aa" * 32, chain_trace(3))
        store.put("bb" * 32, chain_trace(4))
        removed = store.gc(keep={"aa" * 32})
        assert [p.stem for p in removed] == ["bb" * 32]
        assert len(store) == 1

    def test_gc_drop_all_and_dry_run(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("aa" * 32, chain_trace(3))
        store.put("bb" * 32, chain_trace(4))
        would = store.gc(drop_all=True, dry_run=True)
        assert len(would) == 2 and len(store) == 2
        removed = store.gc(drop_all=True)
        assert len(removed) == 2 and len(store) == 0

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        import os
        import time

        store = TraceStore(tmp_path)
        store.put("aa" * 32, chain_trace(3))
        orphan = tmp_path / "aa" / "tmpdead42.tmp"
        orphan.write_bytes(b"killed mid-bake")
        live = tmp_path / "aa" / "tmplive07.tmp"
        live.write_bytes(b"writer still running")
        # Only temp files past the grace period are orphans.
        stale = time.time() - 2 * 3600
        os.utime(orphan, (stale, stale))
        would = store.gc(dry_run=True)
        assert orphan in would and orphan.exists() and live not in would
        removed = store.gc()
        assert orphan in removed and not orphan.exists()
        assert live.exists(), "gc removed a recent (possibly live) temp file"
        assert store.contains("aa" * 32)

    def test_gc_on_missing_root_is_a_noop(self, tmp_path):
        assert TraceStore(tmp_path / "never-created").gc(drop_all=True) == []


class TestConcurrencySafety:
    def test_double_bake_is_benign(self, tmp_path):
        """Two processes racing to bake the same digest write identical files."""
        store_a = TraceStore(tmp_path)
        store_b = TraceStore(tmp_path)
        params = {"workload": "race", "seed": 0}
        digest = content_digest(params)
        packed_a, baked_a = store_a.get_or_bake(params,
                                                lambda: chain_trace(6))
        path = store_a.path_for(digest)
        first_bytes = path.read_bytes()
        store_b.put(digest, pack_trace(chain_trace(6)), params=params)
        assert path.read_bytes() == first_bytes
        loaded = store_b.get(digest)
        assert len(loaded) == len(packed_a) == 6
