"""Tests for ``repro.cache``: content-addressed keys, the disk store,
and the measurement pipeline's disk-cache integration."""

import json
import os

from repro.cache import (
    ArtifactCache,
    activate,
    active,
    artifact_key,
    code_digest,
    split_footer,
)
from repro.cache.keys import _DIGEST_MEMO


def _scratch_tree(tmp_path, name, body):
    root = tmp_path / name
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "mod.py").write_text(body)
    (root / "notes.txt").write_text("not code")
    return root


class TestCodeDigest:
    def test_deterministic_and_ignores_non_python(self, tmp_path):
        a = _scratch_tree(tmp_path, "a", "x = 1\n")
        first = code_digest(a)
        (a / "notes.txt").write_text("changed, but not .py")
        _DIGEST_MEMO.clear()
        assert code_digest(a) == first

    def test_code_edit_changes_digest(self, tmp_path):
        a = _scratch_tree(tmp_path, "a", "x = 1\n")
        before = code_digest(a)
        (a / "pkg" / "mod.py").write_text("x = 2\n")
        _DIGEST_MEMO.clear()
        assert code_digest(a) != before

    def test_memoized_per_root(self, tmp_path):
        a = _scratch_tree(tmp_path, "a", "x = 1\n")
        first = code_digest(a)
        # A later edit is invisible until the memo is dropped — the digest
        # is a per-process snapshot of the tree at first use.
        (a / "pkg" / "mod.py").write_text("x = 3\n")
        assert code_digest(a) == first

    def test_default_root_is_the_repro_package(self):
        import repro

        expected = os.path.dirname(os.path.abspath(repro.__file__))
        digest = code_digest()
        assert digest == _DIGEST_MEMO[expected]


class TestArtifactKey:
    def test_varies_with_every_ingredient(self, tmp_path):
        a = _scratch_tree(tmp_path, "a", "x = 1\n")
        base = artifact_key("measured", "d1", "opt", root=a, n=4)
        assert artifact_key("netlist", "d1", "opt", root=a, n=4) != base
        assert artifact_key("measured", "d2", "opt", root=a, n=4) != base
        assert artifact_key("measured", "d1", "initial", root=a, n=4) != base
        assert artifact_key("measured", "d1", "opt", root=a, n=8) != base
        assert artifact_key("measured", "d1", "opt", root=a, n=4) == base

    def test_invalidated_by_code_change(self, tmp_path):
        a = _scratch_tree(tmp_path, "a", "x = 1\n")
        before = artifact_key("measured", "d1", "opt", root=a)
        (a / "pkg" / "mod.py").write_text("x = 2\n")
        _DIGEST_MEMO.clear()
        assert artifact_key("measured", "d1", "opt", root=a) != before

    def test_param_order_is_irrelevant(self, tmp_path):
        a = _scratch_tree(tmp_path, "a", "x = 1\n")
        assert (artifact_key("p", "d", "c", root=a, n=4, engine="interp")
                == artifact_key("p", "d", "c", root=a, engine="interp", n=4))


class TestArtifactCache:
    def test_json_round_trip_and_stats(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        key = "ab" + "0" * 62
        assert cache.get_json("measured", key) is None
        cache.put_json("measured", key, {"x": 1.5, "y": "z"})
        assert cache.get_json("measured", key) == {"x": 1.5, "y": "z"}
        assert cache.stats == {"hits": 1, "misses": 1, "puts": 1,
                               "errors": 0, "corrupt": 0}

    def test_pickle_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        key = "cd" + "0" * 62
        assert cache.get_pickle("netlist", key) is None
        assert cache.put_pickle("netlist", key, {"nested": [1, (2, 3)]})
        assert cache.get_pickle("netlist", key) == {"nested": [1, (2, 3)]}

    def test_unpicklable_payload_is_skipped(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        assert not cache.put_pickle("netlist", "ef" + "0" * 62,
                                    lambda: None)  # locals don't pickle
        assert cache.stats["errors"] == 1 and cache.stats["puts"] == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        key = "12" + "0" * 62
        cache.put_json("measured", key, {"ok": True})
        path = cache._path("measured", key, "json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert cache.get_json("measured", key) is None
        assert cache.stats["errors"] == 1
        # The rotted artifact was quarantined, not left in place: the next
        # lookup is a clean miss and the original bytes are preserved for
        # forensics under corrupt/.
        assert not os.path.exists(path)
        quarantined = list((tmp_path / "c" / "corrupt").iterdir())
        assert len(quarantined) == 1
        assert cache.stats["corrupt"] == 1

    def test_merge_stats_and_summary(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        assert cache.summary() is None
        cache.merge_stats({"hits": 3, "misses": 1, "puts": 1})
        assert cache.stats["hits"] == 3
        assert "3 hits, 1 misses, 1 puts" in cache.summary()

    def test_activate_scopes_the_process_hook(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        assert active() is None
        with activate(cache) as handle:
            assert handle is cache and active() is cache
        assert active() is None


class TestConcurrentWriters:
    def test_two_processes_same_key_leave_one_valid_artifact(self, tmp_path):
        """Two processes hammering the same key concurrently must end with
        exactly one artifact that parses as one writer's complete payload
        (atomic temp+rename, never an interleaving) and no temp litter."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        root = tmp_path / "c"
        key = "aa" + "0" * 62
        barrier = ctx.Barrier(2)

        def hammer(writer_id):
            cache = ArtifactCache(root)
            barrier.wait()
            for i in range(200):
                cache.put_json("measured", key,
                               {"writer": writer_id, "iteration": i})

        procs = [ctx.Process(target=hammer, args=(w,)) for w in (0, 1)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        files = sorted((root / "measured").rglob("*"))
        artifacts = [f for f in files if f.suffix == ".json"]
        litter = [f for f in files if f.is_file() and f.suffix != ".json"]
        assert len(artifacts) == 1
        assert litter == []  # every temp file was renamed or unlinked
        body = split_footer(artifacts[0].read_bytes())
        assert body is not None  # checksum footer intact => not torn
        payload = json.loads(body)
        assert payload["writer"] in (0, 1)
        assert payload["iteration"] == 199  # a complete final write


class TestMeasureDiskCache:
    def test_measure_design_hits_disk_across_processes_sim(self, tmp_path):
        # Two "cold-process" measurements (in-memory cache cleared between)
        # against the same disk cache: the second must be a pure disk hit
        # and produce an identical result.
        from repro.api import find_recipe
        from repro.eval.measure import clear_measure_cache, measure_design

        design = find_recipe("verilog-initial").build()
        cache = ArtifactCache(tmp_path / "c")
        clear_measure_cache()
        with activate(cache):
            first = measure_design(design, n_matrices=2)
        puts_after_first = cache.stats["puts"]
        assert puts_after_first > 0

        clear_measure_cache()
        with activate(cache):
            second = measure_design(design, n_matrices=2)
        assert cache.stats["hits"] > 0
        assert cache.stats["puts"] == puts_after_first  # nothing re-measured
        assert second.to_dict() == first.to_dict()

    def test_parameter_change_misses(self, tmp_path):
        from repro.api import find_recipe
        from repro.eval.measure import clear_measure_cache, measure_design

        design = find_recipe("verilog-initial").build()
        cache = ArtifactCache(tmp_path / "c")
        clear_measure_cache()
        with activate(cache):
            measure_design(design, n_matrices=2)
            clear_measure_cache()
            measure_design(design, n_matrices=3)  # different measured key
        # The measured result missed (a second entry was written); only the
        # netlist pickle — which does not depend on n_matrices — may hit.
        files = list((tmp_path / "c" / "measured").rglob("*.json"))
        assert len(files) == 2
        assert cache.stats["misses"] >= 2  # both cold measured lookups

    def test_use_cache_false_bypasses_disk(self, tmp_path):
        from repro.api import find_recipe
        from repro.eval.measure import clear_measure_cache, measure_design

        design = find_recipe("verilog-initial").build()
        cache = ArtifactCache(tmp_path / "c")
        clear_measure_cache()
        with activate(cache):
            measure_design(design, n_matrices=2, use_cache=False)
        # verify-style runs must not persist a measured result; the netlist
        # pickle (a pure build artifact) may still be cached.
        measured_dir = tmp_path / "c" / "measured"
        assert not measured_dir.exists() or not list(measured_dir.rglob("*.json"))

    def test_cached_payload_is_json_on_disk(self, tmp_path):
        from repro.api import find_recipe
        from repro.eval.measure import clear_measure_cache, measure_design

        design = find_recipe("verilog-initial").build()
        cache = ArtifactCache(tmp_path / "c")
        clear_measure_cache()
        with activate(cache):
            measured = measure_design(design, n_matrices=2)
        files = list((tmp_path / "c" / "measured").rglob("*.json"))
        assert len(files) == 1
        body = split_footer(files[0].read_bytes())
        assert body is not None  # sealed with a valid checksum footer
        payload = json.loads(body)
        assert payload["name"] == "verilog-initial"
        assert payload["fmax_mhz"] == measured.fmax_mhz  # exact round-trip
