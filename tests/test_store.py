"""The persistent artifact store: crash safety, corruption, recompile.

The robustness contract of :mod:`repro.store`, asserted end to end:

* format round-trips are bit-identical on both backends (numpy and
  pure-int, including multi-word alphabets past 64 letters), and the
  payload image is backend-independent — a store written by one backend
  is read by the other;
* a torn write (``store-torn-write`` at any truncation point) never
  publishes: the next process recovers to either the prior version or a
  clean miss, never corrupt data;
* a flipped payload bit (``store-bit-flip``) always quarantines on read,
  counts ``store-corrupt`` in :data:`repro.runtime.STATS`, and the
  recompile path reproduces bit-identical masks;
* concurrent writers under the advisory lock leave every artifact
  structurally valid;
* eviction respects the live byte budget and keys on hit recency;
* a restarted :class:`~repro.revision.batch.BatchCache` against a warm
  store serves bit-identical masks *without* SAT enumeration.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime, store
from repro.logic import sparse
from repro.logic.bitmodels import BitAlphabet
from repro.logic.shards import ShardedTable
from repro.logic.sparse import SparseModelSet
from repro.revision import batch as batch_mod
from repro.revision.batch import BatchCache
from repro.runtime import faults
from repro.store import format as store_format
from conftest import forced_tiers

HAS_NUMPY = sparse._np is not None

BACKENDS = ["numpy", "int"] if HAS_NUMPY else ["int"]


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Each test gets a disarmed fault registry and no ambient store."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_STORE_MAX_BYTES", raising=False)
    store.reset_active()
    yield
    faults.reset("")
    store.reset_active()


def letters_for(count):
    return tuple(f"x{i:03d}" for i in range(count))


# -- format round-trips ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    letter_count=st.integers(min_value=1, max_value=70),
)
def test_sparse_round_trip_bit_identity(tmp_path_factory, data, letter_count):
    """Sparse carriers survive the store bit-for-bit on every backend,
    including multi-word alphabets past 64 letters."""
    alpha = letters_for(letter_count)
    universe = (1 << letter_count) - 1
    masks = data.draw(
        st.lists(st.integers(min_value=0, max_value=universe), max_size=24)
    )
    root = tmp_path_factory.mktemp("rt")
    for write_backend in BACKENDS:
        carrier = SparseModelSet.from_masks(alpha, masks, backend=write_backend)
        st_obj = store.ArtifactStore(root)
        key = store.artifact_key(f"sparse-{write_backend}", masks, alpha)
        assert st_obj.put_sparse(key, carrier)
        for read_backend in BACKENDS:
            loaded = st_obj.get_sparse(key, alpha, backend=read_backend)
            assert loaded is not None
            assert loaded.mask_list() == carrier.mask_list()
            assert loaded.payload_bytes() == carrier.payload_bytes()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    letter_count=st.integers(min_value=1, max_value=12),
)
def test_sharded_round_trip_bit_identity(tmp_path_factory, data, letter_count):
    alpha = letters_for(letter_count)
    table_bits = 1 << letter_count
    masks = data.draw(
        st.lists(st.integers(min_value=0, max_value=table_bits - 1),
                 max_size=16)
    )
    root = tmp_path_factory.mktemp("rt")
    for write_backend in BACKENDS:
        table = ShardedTable.from_masks(alpha, masks, backend=write_backend)
        st_obj = store.ArtifactStore(root)
        key = store.artifact_key(f"sharded-{write_backend}", masks, alpha)
        assert st_obj.put_sharded(key, table)
        for read_backend in BACKENDS:
            loaded = st_obj.get_sharded(key, alpha, backend=read_backend)
            assert loaded is not None
            assert loaded.to_int() == table.to_int()
            assert loaded.payload_bytes() == table.payload_bytes()


def test_payload_image_is_backend_independent():
    """Both backends serialise to the identical byte image."""
    alpha = letters_for(70)
    masks = [0, 1, (1 << 69) | 5, (1 << 64) - 1]
    as_int = SparseModelSet.from_masks(alpha, masks, backend="int")
    images = {as_int.payload_bytes()}
    if HAS_NUMPY:
        images.add(
            SparseModelSet.from_masks(alpha, masks, backend="numpy")
            .payload_bytes()
        )
    assert len(images) == 1


def test_empty_carrier_round_trips(tmp_path):
    alpha = letters_for(5)
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "empty", alpha)
    assert st_obj.put_sparse(key, SparseModelSet.empty(alpha))
    loaded = st_obj.get_sparse(key, alpha)
    assert loaded is not None and loaded.count() == 0


def test_geometry_mismatch_quarantines_not_crashes(tmp_path):
    """An artifact whose alphabet disagrees with the request is a miss."""
    alpha = letters_for(8)
    other = letters_for(9)
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "geom", alpha)
    assert st_obj.put_sparse(key, SparseModelSet.from_masks(alpha, [1, 2]))
    assert st_obj.get_sparse(key, other) is None
    assert st_obj.stats["corrupt"] == 1
    assert (tmp_path / "quarantine").exists()


# -- torn writes -------------------------------------------------------------


def _blob_length(alpha, masks):
    carrier = SparseModelSet.from_masks(alpha, masks)
    blob, _ = store_format.encode(
        store_format.KIND_SPARSE, alpha, carrier.count(),
        carrier.payload_bytes(),
    )
    return len(blob)


@pytest.mark.parametrize("cut_fraction", [0.0, 0.1, 0.25, 0.5, 0.75, 0.99])
def test_torn_write_at_every_index_is_a_clean_miss(tmp_path, cut_fraction):
    """Whatever prefix a crash leaves behind, recovery deletes it and the
    key reads as a miss — never as data."""
    alpha = letters_for(10)
    masks = [3, 77, 512, 900]
    carrier = SparseModelSet.from_masks(alpha, masks)
    total = _blob_length(alpha, masks)
    cut = int(total * cut_fraction)
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", ("torn", cut), alpha)
    faults.reset(f"store-torn-write@1:{cut}")
    assert st_obj.put_sparse(key, carrier) is False
    faults.reset("")
    # The crash artifact: a temp file, never the final name.
    assert not st_obj.path_for(key).exists()
    restarted = store.ArtifactStore(tmp_path)
    assert restarted.stats["recovered_tmp"] == 1
    assert not list(tmp_path.glob("*.tmp.*"))
    assert restarted.get_sparse(key, alpha) is None
    assert restarted.stats["corrupt"] == 0  # a miss, not corruption
    # The key still works after a clean re-publish.
    assert restarted.put_sparse(key, carrier)
    loaded = restarted.get_sparse(key, alpha)
    assert loaded is not None and loaded.mask_list() == carrier.mask_list()


def test_torn_temp_beside_good_file_serves_prior_version(tmp_path):
    """A crash that tore a *newer* write leaves the published version
    untouched: recovery sweeps the temp, the read serves the prior data."""
    alpha = letters_for(8)
    carrier = SparseModelSet.from_masks(alpha, [9, 200])
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "prior", alpha)
    assert st_obj.put_sparse(key, carrier)
    torn = st_obj.path_for(key).with_name(
        st_obj.path_for(key).name + ".tmp.999"
    )
    torn.write_bytes(b"RPAS\x01\x00")  # the prefix a crash left behind
    restarted = store.ArtifactStore(tmp_path)
    assert restarted.stats["recovered_tmp"] == 1
    loaded = restarted.get_sparse(key, alpha)
    assert loaded is not None and loaded.mask_list() == carrier.mask_list()


def test_truncated_final_file_is_swept_on_recovery(tmp_path):
    """A torn *final* file (crashed mid-rename semantics don't allow it,
    but disk truncation does) is deleted by the sweep, not served."""
    alpha = letters_for(8)
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "trunc", alpha)
    assert st_obj.put_sparse(key, SparseModelSet.from_masks(alpha, [4, 8]))
    path = st_obj.path_for(key)
    path.write_bytes(path.read_bytes()[:20])
    restarted = store.ArtifactStore(tmp_path)
    assert restarted.stats["recovered_torn"] == 1
    assert not path.exists()


# -- corruption --------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(bit=st.integers(min_value=0, max_value=4095))
def test_bit_flip_always_quarantines_and_recompiles(tmp_path_factory, bit):
    """Any single flipped payload bit is caught by the checksum: the read
    quarantines, counts ``store-corrupt``, and a fresh publish restores
    bit-identical data."""
    tmp_path = tmp_path_factory.mktemp("flip")
    alpha = letters_for(10)
    carrier = SparseModelSet.from_masks(alpha, list(range(0, 1000, 17)))
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "flip", alpha)
    faults.reset(f"store-bit-flip@1:{bit}")
    assert st_obj.put_sparse(key, carrier)  # publishes corrupt bytes
    faults.reset("")
    corrupt_before = runtime.STATS["store-corrupt"]
    assert st_obj.get_sparse(key, alpha) is None
    assert st_obj.stats["corrupt"] == 1
    assert runtime.STATS["store-corrupt"] == corrupt_before + 1
    assert not st_obj.path_for(key).exists()
    assert list((tmp_path / "quarantine").iterdir())
    # recompile-from-source path: publish again, read back identical
    assert st_obj.put_sparse(key, carrier)
    loaded = st_obj.get_sparse(key, alpha)
    assert loaded is not None and loaded.mask_list() == carrier.mask_list()


def test_fsync_failure_abandons_the_publish_cleanly(tmp_path):
    alpha = letters_for(8)
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "fsync", alpha)
    faults.reset("store-fsync-fail@1")
    assert st_obj.put_sparse(
        key, SparseModelSet.from_masks(alpha, [1])
    ) is False
    faults.reset("")
    assert st_obj.stats["put_failures"] == 1
    assert not st_obj.path_for(key).exists()
    assert not list(tmp_path.glob("*.tmp.*"))


def test_verify_sweep_quarantines_corrupt_artifacts(tmp_path):
    alpha = letters_for(8)
    st_obj = store.ArtifactStore(tmp_path)
    good_key = store.artifact_key("sparse", "good", alpha)
    bad_key = store.artifact_key("sparse", "bad", alpha)
    assert st_obj.put_sparse(good_key, SparseModelSet.from_masks(alpha, [1]))
    assert st_obj.put_sparse(bad_key, SparseModelSet.from_masks(alpha, [2]))
    bad_path = st_obj.path_for(bad_key)
    data = bytearray(bad_path.read_bytes())
    data[-1] ^= 0xFF
    bad_path.write_bytes(bytes(data))
    report = st_obj.verify()
    assert report["checked"] == 2
    assert report["ok"] == 1
    assert report["quarantined"] == [bad_path.name]
    assert st_obj.get_sparse(good_key, alpha) is not None


# -- concurrency -------------------------------------------------------------


def _writer_job(args):
    root, worker, rounds = args
    from repro import store as _store
    from repro.logic.sparse import SparseModelSet as _Sparse

    alpha = tuple(f"x{i:03d}" for i in range(10))
    st_obj = _store.ArtifactStore(root, recover=False)
    published = 0
    for round_index in range(rounds):
        for key_index in range(4):
            masks = [key_index * 31 + j for j in range(6)]
            carrier = _Sparse.from_masks(alpha, masks, backend="int")
            key = _store.artifact_key("sparse", ("conc", key_index), alpha)
            if st_obj.put_sparse(key, carrier):
                published += 1
    return published


def test_concurrent_writers_never_tear(tmp_path):
    """Several processes hammering the same four keys: the lock plus the
    atomic rename leave every artifact valid and every key readable."""
    jobs = [(str(tmp_path), worker, 5) for worker in range(4)]
    with multiprocessing.Pool(4) as pool:
        results = pool.map(_writer_job, jobs)
    assert all(count > 0 for count in results)
    st_obj = store.ArtifactStore(tmp_path)
    report = st_obj.verify()
    assert report["checked"] == 4
    assert report["ok"] == 4
    alpha = letters_for(10)
    for key_index in range(4):
        key = store.artifact_key("sparse", ("conc", key_index), alpha)
        loaded = st_obj.get_sparse(key, alpha)
        assert loaded is not None
        assert loaded.mask_list() == tuple(
            sorted(key_index * 31 + j for j in range(6))
        )


# -- eviction ----------------------------------------------------------------


def test_eviction_respects_byte_budget(tmp_path, monkeypatch):
    alpha = letters_for(10)
    st_obj = store.ArtifactStore(tmp_path)
    sizes = []
    for index in range(6):
        carrier = SparseModelSet.from_masks(
            alpha, list(range(index * 40, index * 40 + 30))
        )
        key = store.artifact_key("sparse", ("evict", index), alpha)
        assert st_obj.put_sparse(key, carrier)
        sizes.append(st_obj.path_for(key).stat().st_size)
    budget = sum(sizes[:3])
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", str(budget))
    report = st_obj.gc()
    assert report["remaining_bytes"] <= budget
    assert st_obj.stats["evictions"] >= 3
    assert len(st_obj.entries()) + st_obj.stats["evictions"] == 6


def test_eviction_keeps_recently_hit_artifacts(tmp_path, monkeypatch):
    """Hit recency drives the order: the artifact a read just touched
    survives over an older-but-never-read one."""
    alpha = letters_for(10)
    st_obj = store.ArtifactStore(tmp_path)
    keys = []
    for index in range(3):
        carrier = SparseModelSet.from_masks(alpha, [index, index + 100])
        key = store.artifact_key("sparse", ("lru", index), alpha)
        assert st_obj.put_sparse(key, carrier)
        keys.append(key)
        # Deterministic mtime spacing (publishes land microseconds apart).
        os.utime(st_obj.path_for(key), (1000 + index, 1000 + index))
    assert st_obj.get_sparse(keys[0], alpha) is not None  # bumps recency
    one_file = st_obj.path_for(keys[0]).stat().st_size
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", str(one_file))
    st_obj.gc()
    remaining = {entry["key"] for entry in st_obj.entries()}
    assert remaining == {keys[0]}


def test_publish_under_tiny_budget_keeps_the_new_artifact(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "1")
    alpha = letters_for(8)
    st_obj = store.ArtifactStore(tmp_path)
    old_key = store.artifact_key("sparse", "older", alpha)
    new_key = store.artifact_key("sparse", "newer", alpha)
    assert st_obj.put_sparse(old_key, SparseModelSet.from_masks(alpha, [1]))
    assert st_obj.put_sparse(new_key, SparseModelSet.from_masks(alpha, [2]))
    remaining = {entry["key"] for entry in st_obj.entries()}
    assert remaining == {new_key}


# -- BatchCache integration --------------------------------------------------


def _sat_workload():
    from repro.hardness.sparse_family import build

    workload = build(12, 3, 2, seed=5)
    alpha = BitAlphabet.coerce(workload.t_formula.variables())
    return workload, alpha


def test_restarted_cache_serves_bit_identical_masks_without_sat(
    tmp_path, monkeypatch
):
    """The acceptance path: warm, restart, and the disk-warm cache must
    reproduce the cold masks while never entering SAT enumeration."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    workload, alpha = _sat_workload()
    with forced_tiers(table_max=0, shard_max=10):
        cold = BatchCache()
        cold_masks = sorted(cold.warm(workload.t_formula).iter_masks())
        assert cold_masks == sorted(workload.t_masks)
        assert cold.tier_counts["store-put"] == 1

        store.reset_active()  # the restart: only the directory survives

        def no_sat(*args, **kwargs):
            raise AssertionError("SAT enumeration ran on the disk-warm path")

        monkeypatch.setattr(batch_mod, "sat_bit_models", no_sat)
        monkeypatch.setattr(
            batch_mod, "sat_incremental_bit_models", no_sat
        )
        warm = BatchCache()
        warm_bits = warm.bit_models(workload.t_formula, alpha, role="theory")
        assert warm.tier_counts["store-hit"] == 1
        assert sorted(warm_bits.iter_masks()) == cold_masks


def test_sharded_tier_artifacts_round_trip_through_cache(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    workload, alpha = _sat_workload()
    with forced_tiers(table_max=0, shard_max=26):
        cold = BatchCache()
        cold_masks = sorted(cold.warm(workload.t_formula).iter_masks())
        assert cold.tier_counts["store-put"] == 1
        store.reset_active()
        warm = BatchCache()
        warm_bits = warm.bit_models(workload.t_formula, alpha, role="theory")
        assert warm.tier_counts["store-hit"] == 1
        assert sorted(warm_bits.iter_masks()) == cold_masks


def test_corrupt_artifact_falls_through_to_recompile(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    workload, alpha = _sat_workload()
    with forced_tiers(table_max=0, shard_max=10):
        faults.reset("store-bit-flip@1")
        BatchCache().warm(workload.t_formula)
        faults.reset("")
        store.reset_active()
        cache = BatchCache()
        bits = cache.bit_models(workload.t_formula, alpha, role="theory")
        assert cache.tier_counts["store-corrupt"] == 1
        assert cache.tier_counts["store-miss"] == 1
        assert cache.tier_counts["store-hit"] == 0
        assert sorted(bits.iter_masks()) == sorted(workload.t_masks)


def test_no_store_env_means_no_store_traffic(monkeypatch):
    workload, alpha = _sat_workload()
    with forced_tiers(table_max=0, shard_max=10):
        cache = BatchCache()
        cache.bit_models(workload.t_formula, alpha, role="theory")
        assert cache.tier_counts["store-hit"] == 0
        assert cache.tier_counts["store-miss"] == 0
        assert cache.tier_counts["store-put"] == 0


# -- counters and reset helpers ---------------------------------------------


def test_runtime_stats_reset():
    runtime.STATS["demotions"] += 3
    runtime.STATS["demotions:sharded->sat"] = 3
    runtime.STATS.reset()
    assert runtime.STATS["demotions"] == 0
    assert runtime.STATS["store-corrupt"] == 0
    assert "demotions:sharded->sat" not in runtime.STATS


def test_batch_cache_reset_counters_keeps_compiled_state():
    workload, alpha = _sat_workload()
    cache = BatchCache()
    cache.bit_models(workload.t_formula, alpha, role="theory")
    assert cache.misses == 1
    cache.reset_counters()
    assert cache.misses == 0 and cache.hits == 0
    assert not cache.tier_counts
    cache.bit_models(workload.t_formula, alpha, role="theory")
    assert cache.hits == 1 and cache.misses == 0  # compiled state survived


def test_hit_counts_survive_in_sidecar(tmp_path):
    alpha = letters_for(8)
    st_obj = store.ArtifactStore(tmp_path)
    key = store.artifact_key("sparse", "hits", alpha)
    assert st_obj.put_sparse(key, SparseModelSet.from_masks(alpha, [7]))
    for _ in range(3):
        assert st_obj.get_sparse(key, alpha) is not None
    assert store.ArtifactStore(tmp_path).hit_counts()[key] == 3


# -- CLI ---------------------------------------------------------------------


def _populated_store(tmp_path):
    alpha = letters_for(8)
    st_obj = store.ArtifactStore(tmp_path)
    for index in range(2):
        st_obj.put_sparse(
            store.artifact_key("sparse", ("cli", index), alpha),
            SparseModelSet.from_masks(alpha, [index]),
        )
    return st_obj


def test_cli_store_ls_and_verify_and_gc(tmp_path, capsys):
    from repro.cli import main

    _populated_store(tmp_path)
    assert main(["store", "ls", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 artifacts" in out and "sparse" in out
    assert main(["store", "verify", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "quarantined : 0" in out
    assert main(
        ["store", "gc", "--dir", str(tmp_path), "--max-bytes", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "evicted   : 2" in out


def test_cli_store_verify_flags_corruption(tmp_path, capsys):
    from repro.cli import main

    st_obj = _populated_store(tmp_path)
    victim = sorted(tmp_path.glob(f"*{store.SUFFIX}"))[0]
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0xFF
    victim.write_bytes(bytes(data))
    assert main(["store", "verify", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "quarantined : 1" in out


def test_cli_store_without_directory_errors(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert main(["store", "ls"]) == 2
    assert "REPRO_STORE" in capsys.readouterr().err
