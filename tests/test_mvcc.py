"""MVCC property tests: random interleavings equal a serial-history oracle.

The oracle is a tiny relational model of snapshot isolation: each row
remembers which transaction created it, which tombstoned it, and the
commit sequence number of each event; a transaction sees exactly the rows
whose insert committed before its begin (or its own) and whose tombstone
did not.  Random interleavings of begin/read/write/delete/commit/abort
over a small one-column table must agree with the model after *every*
step — which makes "no dirty reads" and "repeatable snapshot" continuous
invariants rather than spot checks — and write-write overlap must raise
``TransactionConflictError`` exactly when the model says the version is
already stamped by another transaction (first-committer-wins).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionConflictError
from repro.mvcc import ANCIENT_TXID, FIRST_TXID, Snapshot, TxnManager, visible_rows
from repro.storage import ColumnTable, TableSchema
from repro.types import INTEGER


def _table(region_rows: int = 4) -> ColumnTable:
    return ColumnTable(
        TableSchema(name="t", columns=(("v", INTEGER),)),
        region_rows=region_rows,
    )


# --------------------------------------------------------------------------
# The serial-history oracle
# --------------------------------------------------------------------------


class _Model:
    """Pure-Python snapshot-isolation oracle over one INT column.

    Rows are keyed by their (unique) value.  ``seq`` is the commit
    sequence; an event with commit seq ``s`` is visible to a transaction
    that began at seq ``b`` iff ``s <= b``.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}
        self.seq = 0
        self.txns: dict[int, dict] = {}
        self._next_uid = 1

    def begin(self, slot: int) -> None:
        self.txns[slot] = {"uid": self._next_uid, "begin": self.seq}
        self._next_uid += 1

    def _sees_insert(self, row: dict, txn: dict) -> bool:
        if row["inserted_by"] == txn["uid"]:
            return True
        return row["ins_commit"] is not None and row["ins_commit"] <= txn["begin"]

    def _sees_tombstone(self, row: dict, txn: dict) -> bool:
        if row["tombstone_by"] is None:
            return False
        if row["tombstone_by"] == txn["uid"]:
            return True
        return row["del_commit"] is not None and row["del_commit"] <= txn["begin"]

    def visible(self, slot: int) -> list[int]:
        txn = self.txns[slot]
        return sorted(
            value
            for value, row in self.rows.items()
            if self._sees_insert(row, txn) and not self._sees_tombstone(row, txn)
        )

    def insert(self, slot: int, value: int) -> None:
        self.rows[value] = {
            "inserted_by": self.txns[slot]["uid"],
            "ins_commit": None,
            "tombstone_by": None,
            "del_commit": None,
        }

    def delete_conflicts(self, slot: int) -> bool:
        """First-committer-wins: is any visible version foreign-stamped?"""
        txn = self.txns[slot]
        return any(
            self.rows[value]["tombstone_by"] not in (None, txn["uid"])
            for value in self.visible(slot)
        )

    def delete(self, slot: int) -> None:
        uid = self.txns[slot]["uid"]
        for value in self.visible(slot):
            self.rows[value]["tombstone_by"] = uid

    def commit(self, slot: int) -> None:
        uid = self.txns.pop(slot)["uid"]
        self.seq += 1
        for row in self.rows.values():
            if row["inserted_by"] == uid and row["ins_commit"] is None:
                row["ins_commit"] = self.seq
            if row["tombstone_by"] == uid and row["del_commit"] is None:
                row["del_commit"] = self.seq

    def abort(self, slot: int) -> None:
        uid = self.txns.pop(slot)["uid"]
        for value in list(self.rows):
            row = self.rows[value]
            if row["inserted_by"] == uid and row["ins_commit"] is None:
                del self.rows[value]
            elif row["tombstone_by"] == uid and row["del_commit"] is None:
                row["tombstone_by"] = None

    def committed_visible(self) -> list[int]:
        return sorted(
            value
            for value, row in self.rows.items()
            if row["ins_commit"] is not None and row["del_commit"] is None
        )


# --------------------------------------------------------------------------
# History execution: engine and model in lockstep
# --------------------------------------------------------------------------


def _engine_read(txn, table) -> list[int]:
    return sorted(value for (value,) in txn.read(table))


def _run_history(ops, region_rows: int) -> None:
    table = _table(region_rows)
    manager = TxnManager("prop")
    model = _Model()
    engine_txns: dict[int, object] = {}
    next_value = 0

    for slot, action in ops:
        if slot not in engine_txns:
            action = "begin"
        elif action == "begin":
            action = "read"

        if action == "begin":
            engine_txns[slot] = manager.begin()
            model.begin(slot)
        elif action == "read":
            assert _engine_read(engine_txns[slot], table) == model.visible(slot)
        elif action == "write":
            engine_txns[slot].insert(table, [(next_value,)])
            model.insert(slot, next_value)
            next_value += 1
        elif action == "delete":
            txn = engine_txns[slot]
            predicted = model.delete_conflicts(slot)
            mask = table.visible_mask(txn.snapshot)
            try:
                txn.delete(table, mask)
            except TransactionConflictError:
                assert predicted, "engine conflicted where the oracle allows"
                model.abort(slot)  # txn.delete aborted the transaction
                del engine_txns[slot]
            else:
                assert not predicted, "oracle predicted conflict, engine allowed"
                model.delete(slot)
        elif action == "commit":
            engine_txns.pop(slot).commit()
            model.commit(slot)
        elif action == "abort":
            engine_txns.pop(slot).abort()
            model.abort(slot)

        # Continuous invariant: every in-flight snapshot still reads its
        # begin-time state (no dirty read, no non-repeatable read).
        for other, txn in engine_txns.items():
            assert _engine_read(txn, table) == model.visible(other), (
                "txn in slot %d drifted after %r on slot %d"
                % (other, action, slot)
            )

    for slot in sorted(engine_txns):
        engine_txns.pop(slot).abort()
        model.abort(slot)
    final = sorted(v for (v,) in visible_rows(table, manager.snapshot()))
    assert final == model.committed_visible()
    assert manager.report()["active"] == 0


_OPS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(
            # write-heavy weighting keeps histories interesting
            ["begin", "read", "write", "write", "delete", "commit", "commit",
             "abort"]
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestRandomHistories:
    @given(ops=_OPS, region_rows=st.sampled_from([2, 4, 64]))
    @settings(max_examples=120, deadline=None)
    def test_interleavings_match_serial_oracle(self, ops, region_rows):
        _run_history(ops, region_rows)


class TestSnapshotAlgebra:
    @given(
        data=st.data(),
        txids=st.lists(st.integers(0, 60), min_size=0, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_sees_vec_matches_scalar(self, data, txids):
        high = data.draw(st.integers(FIRST_TXID, 50))
        active = data.draw(
            st.lists(st.integers(FIRST_TXID, high - 1), unique=True)
            if high > FIRST_TXID else st.just([])
        )
        own = data.draw(st.sampled_from([0] + sorted(active)))
        snap = Snapshot(high=high, active=tuple(sorted(active)), txid=own)
        arr = np.asarray(txids, dtype=np.int64)
        vec = snap.sees_vec(arr)
        assert list(vec) == [snap.sees(t) for t in txids]


    def test_every_always_committed_stamp_is_a_documented_reserved_one(self):
        # constant@src/repro/mvcc/txn.py:44:13 survived (FIRST_TXID 2 -> 3):
        # ``sees`` treats every stamp below FIRST_TXID as committed long
        # ago, so a gap between the reserved stamps (0 = none, ANCIENT_TXID)
        # and the first id handed out would be a third always-visible stamp
        # nothing documents.
        assert FIRST_TXID == ANCIENT_TXID + 1 == 2
        manager = TxnManager("layout")
        before = manager.snapshot()
        first = manager.begin()
        assert first.txid == FIRST_TXID
        assert before.sees(0) and before.sees(ANCIENT_TXID)
        assert not before.sees(first.txid)
        first.commit()
        assert manager.snapshot().sees(first.txid) and not before.sees(first.txid)

    def test_txids_are_handed_out_densely(self):
        # constant@src/repro/mvcc/txn.py:118:37 survived (``txid + 1`` ->
        # ``+ 2``): nothing looked at a second transaction's id.  A
        # snapshot's ``high`` is the next id to be handed out, so a
        # transaction's own snapshot ends right after its own id.
        manager = TxnManager("dense")
        txns = [manager.begin() for _ in range(3)]
        assert [t.txid for t in txns] == [FIRST_TXID, FIRST_TXID + 1, FIRST_TXID + 2]
        assert [t.snapshot.high for t in txns] == [t.txid + 1 for t in txns]
        assert manager.snapshot().high == FIRST_TXID + 3


# --------------------------------------------------------------------------
# Targeted anomaly tests (the classic names, pinned deterministically)
# --------------------------------------------------------------------------


class TestAnomalies:
    def test_every_begin_commit_and_abort_is_counted_once(self):
        # constant@txn.py:120 survived (`begun += 2`): nothing read the counter.
        manager = TxnManager("counted")
        first, second, third = manager.begin(), manager.begin(), manager.begin()
        first.commit()
        second.abort()
        report = manager.report()
        assert (report["begun"], report["committed"], report["aborted"]) == (3, 1, 1)
        assert report["active"] == 1 and third.status == "active"

    def test_no_dirty_read_and_repeatable_snapshot(self):
        table = _table()
        manager = TxnManager("anomaly")
        writer = manager.begin()
        writer.insert(table, [(1,)])
        reader = manager.begin()
        assert reader.read(table) == []  # uncommitted write invisible
        writer.commit()
        assert reader.read(table) == []  # commit after begin: still invisible
        late = manager.begin()
        assert late.read(table) == [(1,)]
        reader.abort()
        late.abort()

    def test_lost_update_rejected_with_sqlstate(self):
        table = _table()
        manager = TxnManager("anomaly")
        setup = manager.begin()
        setup.insert(table, [(0,)])
        setup.commit()
        t1 = manager.begin()
        t2 = manager.begin()
        t1.delete(table, table.visible_mask(t1.snapshot))
        t1.insert(table, [(1,)])
        t1.commit()
        try:
            t2.delete(table, table.visible_mask(t2.snapshot))
        except TransactionConflictError as exc:
            assert exc.sqlstate == "40001"
        else:
            raise AssertionError("overlapping update did not conflict")
        assert t2.status == "aborted"
        assert manager.stats["conflicts"] == 1
        fresh = manager.begin()
        assert fresh.read(table) == [(1,)]  # the first committer's update
        fresh.abort()

    def test_abort_restores_visibility(self):
        table = _table()
        manager = TxnManager("anomaly")
        setup = manager.begin()
        setup.insert(table, [(7,)])
        setup.commit()
        deleter = manager.begin()
        deleter.delete(table, table.visible_mask(deleter.snapshot))
        assert deleter.read(table) == []
        deleter.abort()
        fresh = manager.begin()
        assert fresh.read(table) == [(7,)]
        fresh.abort()

    def test_visibility_survives_region_seal(self):
        table = _table(region_rows=2)
        manager = TxnManager("anomaly")
        pinned = manager.begin()
        writer = manager.begin()
        writer.insert(table, [(i,) for i in range(5)])  # seals two regions
        assert table.regions, "expected sealed regions mid-transaction"
        assert pinned.read(table) == []
        writer.commit()
        assert pinned.read(table) == []
        late = manager.begin()
        assert late.read(table) == [(i,) for i in range(5)]
        pinned.abort()
        late.abort()
