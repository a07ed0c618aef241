"""The farm engine: caching, resume on cache hits, uncapped retry of failures."""

import json
import os

import pytest

from repro.ckpt.backends import DirectoryBackend
from repro.errors import FarmJobError, StorageError
from repro.farm import engine
from repro.farm.cache import META_KEY
from repro.farm.engine import Farm, FarmStats

# Module-level jobs, picklable so the parallel case can ship them to workers.

CALL_LOG: list = []


def double(x):
    CALL_LOG.append(x)
    return x * 2


def fail_if_flagged(payload):
    """Fails while the flag file exists — the 'interrupted campaign' stand-in."""
    x, flag = payload
    if x == 3 and os.path.exists(flag):
        raise RuntimeError("cell 3 exploded")
    return x * 10


def always_fails(x):
    CALL_LOG.append(x)
    raise ValueError(f"no dice for {x}")


def log_only(x):
    CALL_LOG.append(x)


def interrupt_at_three(x):
    """Stands in for a campaign killed part-way (Ctrl-C, not a cell error)."""
    if x == 3:
        raise KeyboardInterrupt
    CALL_LOG.append(x)
    return x * 2


@pytest.fixture(autouse=True)
def _clear_log():
    CALL_LOG.clear()


class TestCaching:
    def test_warm_map_executes_nothing(self, tmp_path):
        farm = Farm(str(tmp_path / "farm"))
        cold = farm.map(double, [1, 2, 3], parallel=False)
        assert cold == [2, 4, 6]
        assert farm.last_stats.executed == 3
        # A fresh Farm over the same directory — a new process, in effect.
        warm = Farm(str(tmp_path / "farm"))
        assert warm.map(double, [1, 2, 3], parallel=False) == [2, 4, 6]
        assert warm.last_stats.hits == 3
        assert warm.last_stats.executed == 0
        assert CALL_LOG == [1, 2, 3]  # the warm pass never called double

    def test_partial_overlap_executes_only_new_cells(self, tmp_path):
        farm = Farm(str(tmp_path / "farm"))
        farm.map(double, [1, 2], parallel=False)
        out = farm.map(double, [2, 3], parallel=False)
        assert out == [4, 6]
        assert farm.last_stats.hits == 1
        assert farm.last_stats.executed == 1

    def test_memory_farm_works(self):
        farm = Farm(None)
        assert farm.map(double, [5], parallel=False) == [10]
        assert farm.map(double, [5], parallel=False) == [10]
        assert farm.last_stats.hits == 1

    def test_different_salt_misses(self, tmp_path):
        Farm(str(tmp_path / "farm"), salt="a").map(double, [1], parallel=False)
        other = Farm(str(tmp_path / "farm"), salt="b")
        other.map(double, [1], parallel=False)
        assert other.last_stats.executed == 1

    def test_unpicklable_payload_runs_uncached(self, tmp_path):
        farm = Farm(str(tmp_path / "farm"))
        out = farm.map(lambda p: p[0](), [(lambda: 7,)], parallel=False)
        assert out == [7]
        assert farm.last_stats.uncached == 1
        assert farm.last_stats.hits == farm.last_stats.misses == 0

    def test_cacheable_predicate_exempts_cells(self, tmp_path):
        farm = Farm(str(tmp_path / "farm"))
        farm.map(double, [1, 2], parallel=False, cacheable=lambda x: x != 2)
        assert farm.last_stats.uncached == 1
        farm.map(double, [1, 2], parallel=False, cacheable=lambda x: x != 2)
        assert farm.last_stats.hits == 1       # cell 1 cached
        assert farm.last_stats.uncached == 1   # cell 2 re-ran

    def test_parallel_map_matches_serial_and_caches(self, tmp_path):
        """Misses fan out over Session.map's worker pool; outcomes come
        back in payload order and land in the cache."""
        farm = Farm(str(tmp_path / "farm"))
        assert farm.map(double, [1, 2, 3], parallel=True, max_workers=2) == [2, 4, 6]
        assert farm.last_stats.executed == 3
        assert farm.map(double, [1, 2, 3], parallel=False) == [2, 4, 6]
        assert farm.last_stats.hits == 3

    def test_schema_1_directory_is_refused(self, tmp_path):
        """A directory written by the job-queue farm (schema 1, with a
        codec) is refused whole instead of being half-read."""
        path = str(tmp_path / "farm")
        blob = json.dumps({"codec": "none", "schema": 1}).encode("utf-8")
        DirectoryBackend(path).put(META_KEY, blob)
        with pytest.raises(StorageError, match="schema 1"):
            Farm(path)

    def test_empty_payloads_return_an_empty_list(self):
        farm = Farm(None)
        assert farm.map(double, [], parallel=False) == []
        assert farm.last_stats == FarmStats()
        assert CALL_LOG == []

    def test_none_result_is_a_hit_on_the_next_call(self):
        farm = Farm(None)
        assert farm.map(log_only, [4], parallel=False) == [None]
        assert farm.map(log_only, [4], parallel=False) == [None]
        assert farm.last_stats.hits == 1
        assert CALL_LOG == [4]

    def test_hits_and_misses_interleave_in_payload_order(self, tmp_path, monkeypatch):
        """Misses spanning several batches still land at their own index
        between the hits."""
        monkeypatch.setattr(engine, "DEFAULT_BATCH_SIZE", 2)
        farm = Farm(str(tmp_path / "farm"))
        farm.map(double, [2, 4], parallel=False)
        CALL_LOG.clear()
        assert farm.map(double, [1, 2, 3, 4, 5, 6], parallel=False) == [2, 4, 6, 8, 10, 12]
        assert CALL_LOG == [1, 3, 5, 6]
        assert farm.last_stats.hits == 2
        assert farm.last_stats.executed == 4


class TestStats:
    def test_hit_rate(self):
        assert FarmStats().hit_rate == 0.0
        assert FarmStats(cells=4, hits=3, misses=1).hit_rate == 0.75

    def test_merged_sums_every_field(self):
        a = FarmStats(cells=1, hits=2, misses=3, executed=4, failed=5, uncached=6)
        b = FarmStats(cells=10, hits=20, misses=30, executed=40, failed=50, uncached=60)
        assert a.merged(b) == FarmStats(
            cells=11, hits=22, misses=33, executed=44, failed=55, uncached=66
        )

    def test_total_stats_accumulate_across_calls(self):
        farm = Farm(None)
        farm.map(double, [1, 2], parallel=False)
        farm.map(double, [2, 3], parallel=False)
        assert farm.last_stats == FarmStats(cells=2, hits=1, misses=1, executed=1)
        assert farm.total_stats == FarmStats(cells=4, hits=1, misses=3, executed=3)


class TestFailureReport:
    def test_message_counts_failures_and_truncates_after_five(self):
        with pytest.raises(FarmJobError) as info:
            Farm(None).map(always_fails, list(range(7)), parallel=False)
        assert len(info.value.failures) == 7
        message = str(info.value)
        assert message.startswith("7 farm cell(s) failed:")
        assert "ValueError: no dice for 4" in message
        assert "no dice for 5" not in message
        assert "… and 2 more" in message

    def test_uncached_failure_is_named_by_its_position(self):
        farm = Farm(None)
        with pytest.raises(FarmJobError) as info:
            farm.map(lambda p: p[0](), [(lambda: 1,), (lambda: 1 / 0,)], parallel=False)
        ((key, error),) = info.value.failures
        assert key == "<uncached #1>"
        assert error.startswith("ZeroDivisionError")
        assert farm.last_stats.uncached == 2
        assert farm.last_stats.executed == 1

    def test_parallel_failure_keeps_the_other_cells(self):
        """A cell raising inside a worker is reported, not fatal to the
        pool: its neighbours still execute and are cached."""
        farm = Farm(None)
        payloads = [(x, __file__) for x in (1, 2, 3, 4)]
        with pytest.raises(FarmJobError, match="cell 3 exploded"):
            farm.map(fail_if_flagged, payloads, parallel=True, max_workers=2)
        assert farm.last_stats.executed == 3
        assert farm.last_stats.failed == 1
        with pytest.raises(FarmJobError):
            farm.map(fail_if_flagged, payloads, parallel=False)
        assert farm.last_stats.hits == 3


class TestResume:
    def test_interrupted_run_resumes_where_it_stopped(self, tmp_path):
        flag = str(tmp_path / "flag")
        open(flag, "w").close()
        payloads = [(x, flag) for x in range(1, 6)]
        farm = Farm(str(tmp_path / "farm"))
        # Cell 3 dies; every other cell still executes and is cached.
        with pytest.raises(FarmJobError, match="cell 3 exploded"):
            farm.map(fail_if_flagged, payloads, parallel=False)
        assert farm.last_stats.executed == 4
        assert farm.last_stats.failed == 1
        # "The interruption is fixed" — the next run executes only cell 3.
        os.unlink(flag)
        resumed = Farm(str(tmp_path / "farm"))
        out = resumed.map(fail_if_flagged, payloads, parallel=False)
        assert out == [10, 20, 30, 40, 50]
        assert resumed.last_stats.hits == 4
        assert resumed.last_stats.executed == 1

    def test_killed_campaign_keeps_its_completed_batches(self, tmp_path, monkeypatch):
        """Each batch's results are written before the next batch starts,
        so a campaign killed in batch two resumes on batch one's hits."""
        monkeypatch.setattr(engine, "DEFAULT_BATCH_SIZE", 2)
        farm = Farm(str(tmp_path / "farm"))
        with pytest.raises(KeyboardInterrupt):
            farm.map(interrupt_at_three, [1, 2, 3, 4], parallel=False)
        assert CALL_LOG == [1, 2]
        resumed = Farm(str(tmp_path / "farm"))
        assert resumed.map(interrupt_at_three, [1, 2], parallel=False) == [2, 4]
        assert resumed.last_stats.hits == 2
        assert CALL_LOG == [1, 2]  # served from the cache, not re-run

    def test_failing_cell_runs_again_on_every_call(self, tmp_path):
        """No attempt cap: the cells are deterministic, and a campaign is
        only retried when someone re-invokes it."""
        farm = Farm(str(tmp_path / "farm"))
        for call in range(1, 5):
            with pytest.raises(FarmJobError, match="no dice for 9"):
                farm.map(always_fails, [9], parallel=False)
            assert CALL_LOG == [9] * call
            assert farm.last_stats.executed == 0
            assert farm.last_stats.failed == 1
            assert farm.last_stats.hits == 0

    def test_failed_cell_is_never_cached(self, tmp_path):
        flag = str(tmp_path / "flag")
        open(flag, "w").close()
        farm = Farm(str(tmp_path / "farm"))
        with pytest.raises(FarmJobError):
            farm.map(fail_if_flagged, [(3, flag)], parallel=False)
        os.unlink(flag)
        assert farm.map(fail_if_flagged, [(3, flag)], parallel=False) == [30]
        assert farm.last_stats.misses == 1
        assert farm.last_stats.executed == 1
