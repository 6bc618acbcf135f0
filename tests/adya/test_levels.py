"""Unit tests for isolation-level definitions and the history checker."""

import random
import time

import pytest

from repro.adya.history import HistoryBuilder
from repro.adya.levels import (
    ISOLATION_LEVELS,
    check_all_levels,
    check_history,
    strongest_satisfied,
)
from repro.adya.phenomena import G0, G1C, LOST_UPDATE, OTV, PHENOMENA, WRITE_SKEW
from repro.errors import TaxonomyError


class TestLevelDefinitions:
    def test_all_levels_reference_known_phenomena(self):
        for level in ISOLATION_LEVELS.values():
            for phenomenon in level.prohibits:
                assert phenomenon in PHENOMENA

    def test_read_committed_strictly_stronger_than_read_uncommitted(self):
        assert ISOLATION_LEVELS["RU"].prohibits < ISOLATION_LEVELS["RC"].prohibits

    def test_mav_extends_read_committed_with_otv(self):
        assert ISOLATION_LEVELS["MAV"].prohibits == (
            ISOLATION_LEVELS["RC"].prohibits | {OTV}
        )

    def test_snapshot_isolation_prevents_lost_update_not_write_skew(self):
        si = ISOLATION_LEVELS["SI"].prohibits
        assert LOST_UPDATE in si and WRITE_SKEW not in si

    def test_repeatable_read_prevents_write_skew(self):
        assert WRITE_SKEW in ISOLATION_LEVELS["RR"].prohibits

    def test_serializability_is_the_strongest_isolation(self):
        one_sr = ISOLATION_LEVELS["1SR"].prohibits
        for code in ("RU", "RC", "MAV", "RR", "CS"):
            assert ISOLATION_LEVELS[code].prohibits <= one_sr

    def test_pram_is_union_of_its_parts(self):
        pram = ISOLATION_LEVELS["PRAM"].prohibits
        parts = (ISOLATION_LEVELS["MR"].prohibits
                 | ISOLATION_LEVELS["MW"].prohibits
                 | ISOLATION_LEVELS["RYW"].prohibits)
        assert pram == parts

    def test_causal_is_pram_plus_wfr(self):
        assert ISOLATION_LEVELS["Causal"].prohibits == (
            ISOLATION_LEVELS["PRAM"].prohibits | ISOLATION_LEVELS["WFR"].prohibits
        )


class TestChecker:
    def test_unknown_level_rejected(self):
        with pytest.raises(TaxonomyError):
            check_history(HistoryBuilder().build(), "PL-999")

    def test_empty_history_satisfies_everything(self):
        history = HistoryBuilder().build()
        for name, report in check_all_levels(history).items():
            assert report.satisfied, name

    def test_report_contains_witnesses(self):
        builder = HistoryBuilder()
        t1 = builder.transaction()
        t1.read("x", from_txn=None, value=0).write("x", 1)
        t2 = builder.transaction()
        t2.read("x", from_txn=None, value=0).write("x", 2)
        report = check_history(builder.build(), "SI")
        assert not report.satisfied
        assert report.witness_count() >= 1
        assert "LOST-UPDATE" in str(report)

    def test_strongest_satisfied_shrinks_with_anomalies(self):
        clean = HistoryBuilder()
        c1 = clean.transaction()
        c1.write("x", 1)
        clean_levels = set(strongest_satisfied(clean.build()))

        dirty = HistoryBuilder()
        d1 = dirty.transaction()
        d1.read("x", from_txn=None, value=0).write("x", 1)
        d2 = dirty.transaction()
        d2.read("x", from_txn=None, value=0).write("x", 2)
        dirty_levels = set(strongest_satisfied(dirty.build()))

        assert dirty_levels < clean_levels
        assert "SI" in clean_levels - dirty_levels


def _serial_history(transactions, keys, seed):
    """A seeded serial history: each transaction reads two keys from their
    latest writers, then writes two keys."""
    rng = random.Random(seed)
    builder = HistoryBuilder()
    latest = {}
    for _ in range(transactions):
        txn = builder.transaction(session=rng.randrange(8))
        for key in rng.sample(range(keys), 2):
            writer, value = latest.get(key, (None, None))
            txn.read(f"k{key}", from_txn=writer, value=value)
        for key in rng.sample(range(keys), 2):
            value = rng.randrange(100)
            txn.write(f"k{key}", value)
            latest[key] = (txn.txn_id, value)
    return builder.build()


@pytest.mark.perf
def test_serializability_check_scales_near_linearly():
    # Checking LOST-UPDATE once per key over a per-call copy of the whole
    # DSG made this ~3.5 s on a 2-CPU x86-64 box; one indexed DSG per
    # history takes it to ~0.1 s.
    history = _serial_history(transactions=1_000, keys=2_000, seed=13)
    started = time.perf_counter()
    report = check_history(history, "1SR")
    elapsed = time.perf_counter() - started
    assert report.satisfied, str(report)
    assert elapsed < 1.0, f"1SR check of 1,000 transactions took {elapsed:.2f} s"
