"""Tests for the content-addressed sweep result store (``repro.sched.store``).

Mirrors ``tests/test_trace_cache_disk.py``: entries are named by a hash
of the cell's identity (:func:`~repro.sched.store.cell_key`: benchmark,
variant, region and outputs mode), survive process boundaries, and any
form of file damage — truncation, garbage, version skew, digest mismatch,
key collision — must read back as a clean counted miss, never a crash.
"""

import multiprocessing
import pickle

import pytest

from repro.sched import RESULT_FORMAT_VERSION, ResultStore, cell_key


def make_key(variant="spec:tage64+none", benchmark="sjeng_06",
             outputs="full", instructions=800, warmup=400):
    return cell_key(benchmark, variant, instructions, warmup, outputs)


def path_of(**key_fields):
    return ResultStore("store").path_for(make_key(**key_fields))


def sample_record(benchmark="sjeng_06", variant="spec:tage64+none"):
    return {"benchmark": benchmark, "variant": variant,
            "payload": {"mpki": 12.5, "ipc": 0.91}}


class TestKeying:
    def test_key_is_deterministic(self):
        assert path_of() == path_of()

    def test_key_varies_by_every_component(self):
        base = path_of()
        assert path_of(benchmark="mcf_06") != base
        assert path_of(variant="spec:gshare+none") != base
        assert path_of(outputs="mpki") != base

    def test_key_varies_by_region(self):
        assert path_of(variant="mini", instructions=800) != \
            path_of(variant="mini", instructions=900)
        assert path_of(warmup=400) != path_of(warmup=500)

    def test_outputs_mode_only_splits_predictor_only_cells(self):
        # a BR cell runs the full simulator under outputs="mpki" too
        assert make_key(variant="mini", outputs="mpki") == \
            make_key(variant="mini", outputs="full")
        with pytest.raises(ValueError):
            make_key(outputs="bogus")


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key()
        assert store.put(key, sample_record()) is True
        record = store.get(key)
        assert record is not None
        assert record["payload"] == {"mpki": 12.5, "ipc": 0.91}
        assert record["key"] == key
        assert store.hits == 1 and store.stores == 1

    def test_fresh_store_reads_prior_writes(self, tmp_path):
        writer = ResultStore(str(tmp_path))
        key = make_key()
        writer.put(key, sample_record())
        reader = ResultStore(str(tmp_path))
        assert reader.get(key) is not None
        assert reader.hits == 1

    def test_missing_key_counts_miss_not_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get(make_key()) is None
        assert store.misses == 1
        assert store.corrupt_entries == 0

    def test_put_skips_existing_entry(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key()
        assert store.put(key, sample_record()) is True
        assert store.put(key, sample_record(variant="other")) is False
        assert store.stores == 1
        assert store.get(key)["variant"] == "spec:tage64+none"

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(make_key(), sample_record())
        assert [p.suffix for p in tmp_path.iterdir()] == [".result"]

    def test_unwritable_dir_counts_store_error(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = ResultStore(str(blocked))
        assert store.put(make_key(), sample_record()) is False
        assert store.stores == 0
        assert store.store_errors == 1


class TestCorruptionHandling:
    def _stored_path(self, tmp_path, key):
        store = ResultStore(str(tmp_path))
        store.put(key, sample_record())
        (path,) = tmp_path.glob("*.result")
        return path

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],          # truncated payload
        lambda blob: b"",                              # empty file
        lambda blob: b"garbage" * 10,                  # wrong magic
        lambda blob: blob[:4]
        + (RESULT_FORMAT_VERSION + 1).to_bytes(2, "little")
        + blob[6:],                                    # version skew
        # header is 38 bytes (magic + u16 version + sha256), so this
        # flips the first payload byte: the digest check must catch it
        lambda blob: blob[:38] + bytes([blob[38] ^ 0xFF]) + blob[39:],
    ])
    def test_damaged_file_is_clean_miss(self, tmp_path, damage):
        key = make_key()
        path = self._stored_path(tmp_path, key)
        path.write_bytes(damage(path.read_bytes()))
        reader = ResultStore(str(tmp_path))
        assert reader.get(key) is None
        assert reader.corrupt_entries == 1
        assert reader.misses == 1
        assert not path.exists()  # offender deleted so resume recomputes

    def test_embedded_key_mismatch_is_corrupt(self, tmp_path):
        # a renamed/copied entry must not resume the wrong cell
        key = make_key()
        other = make_key(benchmark="mcf_06")
        path = self._stored_path(tmp_path, key)
        store = ResultStore(str(tmp_path))
        path.rename(store.path_for(other))
        assert store.get(other) is None
        assert store.corrupt_entries == 1

    def test_valid_pickle_wrong_digest_is_corrupt(self, tmp_path):
        key = make_key()
        path = self._stored_path(tmp_path, key)
        blob = path.read_bytes()
        # splice a different (valid) pickle under the original digest
        forged = pickle.dumps({"key": key, "payload": None},
                              protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(blob[:38] + forged)
        reader = ResultStore(str(tmp_path))
        assert reader.get(key) is None
        assert reader.corrupt_entries == 1


def _race_writer(args):
    directory, key, worker = args
    store = ResultStore(directory)
    record = sample_record()
    record["payload"] = {"mpki": 12.5, "ipc": 0.91, "writer": worker}
    wrote = store.put(key, record)
    got = store.get(key)
    return wrote, got is not None, store.corrupt_entries


class TestConcurrentWriters:
    def test_racing_writers_never_expose_partial_entries(self, tmp_path):
        # many processes hammer the same key: same-directory temp file +
        # atomic rename means every reader sees a whole record, exactly
        # one logical entry survives, and no .tmp.* litter remains
        key = make_key()
        with multiprocessing.Pool(4) as pool:
            outcomes = pool.map(
                _race_writer,
                [(str(tmp_path), key, worker) for worker in range(8)])
        assert all(readable for _, readable, _ in outcomes)
        assert all(corrupt == 0 for _, _, corrupt in outcomes)
        entries = list(tmp_path.iterdir())
        assert [p.suffix for p in entries] == [".result"]
        record = ResultStore(str(tmp_path)).get(key)
        assert record["payload"]["mpki"] == 12.5

    def test_stats_carry_all_counters(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(make_key(), sample_record())
        assert set(store.stats()) == {"hits", "misses", "stores",
                                      "store_errors", "corrupt_entries"}
