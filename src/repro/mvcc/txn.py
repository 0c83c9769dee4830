"""Monotonic transaction manager and snapshot visibility rules.

Transaction ids are allocated from a single monotonic counter guarded by
one short critical section; begin/commit "timestamps" are the txid and a
separate commit sequence number.  A :class:`Snapshot` is an immutable
value — ``(high, active, txid)`` — cheap to take and safe to hand to
morsel workers on other threads or pickle to process-pool workers.

Visibility of a row version stamped ``(xmin, xmax)`` under snapshot S:

* the version exists for S iff ``S.sees(xmin)``;
* the version is live for S iff additionally ``not S.sees(xmax)``.

where ``S.sees(t)`` means *t committed before S was taken, or t is S's
own transaction*.  Txid 0 means "no stamp" (ancient, always committed —
rows loaded outside any transaction, e.g. by recovery or bulk import)
and txid 1 (:data:`ANCIENT_TXID`) is an always-committed deleter used
for legacy/tombstone deletes that predate any live snapshot.

First-committer-wins is enforced eagerly at stamp time rather than by a
commit-time validation pass: ``xmax`` acts as a no-wait write lock — a
transaction that finds a foreign nonzero ``xmax`` on a version it wants
to delete raises :class:`~repro.errors.TransactionConflictError`
immediately.  Because aborts revert their stamps, this is equivalent to
first-committer-wins without ever blocking a reader or writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TransactionConflictError
from repro.verify import sanitizer

#: Always-committed deleter txid used for tombstones that predate MVCC
#: bookkeeping (recovery replay, direct core-API deletes, truncation of
#: aborted inserts).  Invisible to every snapshot, including its own.
ANCIENT_TXID = 1

#: First txid handed out by a fresh :class:`TxnManager`.  Ids 0 and 1
#: are reserved (no-stamp and ancient-delete respectively).
FIRST_TXID = 2


@dataclass(frozen=True)
class Snapshot:
    """Immutable visibility horizon: which txids count as committed.

    ``high`` is the next-unallocated txid when the snapshot was taken;
    ``active`` is the (sorted) tuple of txids that were in flight; and
    ``txid`` is the owning transaction's id (0 for pure read snapshots)
    — a transaction always sees its own writes.
    """

    high: int
    active: tuple[int, ...] = ()
    txid: int = 0

    @property
    def lowater(self) -> int:
        """Every txid below this is committed for this snapshot."""
        return self.active[0] if self.active else self.high

    @property
    def horizon(self) -> tuple[int, tuple[int, ...]]:
        """Hashable visibility horizon of this snapshot.

        Two snapshots with equal horizons see exactly the same committed
        state (same ``high`` water mark, same in-flight set), so any pure
        read evaluated under one is byte-identical under the other.  The
        serving result cache stamps entries with this value: a cached
        answer is replayable for any snapshot whose horizon matches the
        producing one, and conservatively discarded otherwise.
        """
        return (self.high, self.active)

    def sees(self, txid: int) -> bool:
        """Scalar visibility: did *txid* commit before this snapshot?"""
        if txid == self.txid:
            return True
        if txid < FIRST_TXID:  # 0 = no stamp, 1 = ancient: always committed
            return True
        return txid < self.high and txid not in self.active

    def sees_vec(self, txids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sees` over an int64 stamp array."""
        out = txids < self.lowater
        if out.all():  # every stamp committed before the oldest in-flight txn
            return out
        out = txids < self.high
        if self.active:
            out &= ~np.isin(txids, np.asarray(self.active, dtype=np.int64))
        if self.txid:
            out |= txids == self.txid
        return out


class TxnManager:
    """Allocates txids, tracks the active set, hands out snapshots.

    All state lives behind one lock of class ``txn`` (ranked after the
    database statement lock in the declared lock order) held only for a
    few counter/set operations — never across user code.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self._lock = sanitizer.make_lock("txn:%s:manager" % name)
        self._next_txid = FIRST_TXID
        self._active: set[int] = set()
        self._commit_seq = 0
        self.stats = {"begun": 0, "committed": 0, "aborted": 0, "conflicts": 0}

    def begin(self) -> "Transaction":
        """Start a transaction: allocate a txid and its snapshot."""
        with self._lock:
            sanitizer.access("txn:%s" % self.name, "next_txid")
            txid = self._next_txid
            self._next_txid = txid + 1
            self._active.add(txid)
            self.stats["begun"] += 1
            snap = Snapshot(
                high=self._next_txid, active=tuple(sorted(self._active)), txid=txid
            )
        return Transaction(self, txid, snap)

    def snapshot(self) -> Snapshot:
        """Take a read-only snapshot without allocating a txid."""
        with self._lock:
            sanitizer.access("txn:%s" % self.name, "next_txid")
            return Snapshot(high=self._next_txid, active=tuple(sorted(self._active)))

    def _commit(self, txid: int) -> int:
        with self._lock:
            sanitizer.access("txn:%s" % self.name, "next_txid")
            self._active.discard(txid)
            self._commit_seq += 1
            self.stats["committed"] += 1
            return self._commit_seq

    def _abort(self, txid: int, conflict: bool) -> None:
        with self._lock:
            sanitizer.access("txn:%s" % self.name, "next_txid")
            self._active.discard(txid)
            self.stats["aborted"] += 1
            if conflict:
                self.stats["conflicts"] += 1

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def report(self) -> dict:
        with self._lock:
            return {
                "next_txid": self._next_txid,
                "active": len(self._active),
                "commit_seq": self._commit_seq,
                **self.stats,
            }


@dataclass
class Transaction:
    """One writer transaction: stamps versions, commits or rolls back.

    The engine wraps every auto-commit write statement in one of these;
    tests drive the same object directly for interleaved histories.
    """

    manager: TxnManager
    txid: int
    snapshot: Snapshot
    status: str = "active"
    commit_seq: int = 0
    _tables: list = field(default_factory=list)

    def note_table(self, table) -> None:
        """Remember *table* so abort can revert our stamps there."""
        for existing in self._tables:
            if existing is table:
                return
        self._tables.append(table)

    def insert(self, table, rows) -> int:
        """Insert *rows* stamped with our txid (invisible until commit).

        A batch is all or nothing (:meth:`ColumnTable.insert_rows` checks
        every value and constraint before anything lands), so a rejected
        insert leaves no stamp behind for :meth:`abort` to revert.
        """
        self.note_table(table)
        return table.insert_rows(rows, txid=self.txid)

    def delete(self, table, mask) -> int:
        """Tombstone rows under *mask*; first-committer-wins on overlap.

        Raises :class:`TransactionConflictError` (after aborting self)
        if any masked version carries a foreign in-flight stamp.
        """
        self.note_table(table)
        try:
            return table.apply_deletes(mask, txid=self.txid)
        except TransactionConflictError:
            self.abort(conflict=True)
            raise

    def read(self, table, columns=None) -> list[tuple]:
        """Rows of *table* visible to this transaction's snapshot."""
        return visible_rows(table, self.snapshot, columns)

    def commit(self) -> int:
        assert self.status == "active", "commit of %s txn" % self.status
        self.commit_seq = self.manager._commit(self.txid)
        self.status = "committed"
        return self.commit_seq

    def abort(self, conflict: bool = False) -> None:
        if self.status != "active":
            return
        # Revert stamps *before* leaving the active set: concurrent
        # snapshots keep treating us as in-flight (invisible) until every
        # stamp is gone, so no reader can observe a half-rolled-back txn.
        for table in self._tables:
            table.rollback_txn(self.txid)
        self.manager._abort(self.txid, conflict)
        self.status = "aborted"


def visible_rows(table, snapshot: Snapshot, columns=None) -> list[tuple]:
    """Materialise the rows of *table* visible under *snapshot*.

    Test/oracle helper (and the row-at-a-time fallback): captures the
    table once, applies the visibility masks, and returns row tuples in
    logical scan order (sealed regions, then the insert tail).
    """
    names = (
        list(columns) if columns is not None else list(table.schema.column_names)
    )
    capture = table.capture(snapshot, columns=names)
    out: list[tuple] = []

    def _value(values, nulls, row):
        if nulls is not None and nulls[row]:
            return None
        value = values[row]
        return value.item() if hasattr(value, "item") else value

    for region in capture.regions:
        mask = region.visible_mask(snapshot)
        decoded = [region.columns[name].decode() for name in names]
        for row in range(region.n_rows):
            if mask is None or mask[row]:
                out.append(tuple(_value(v, m, row) for v, m in decoded))
    tail_mask = capture.tail_mask
    tail = [(capture.tail[name].values, capture.tail[name].nulls) for name in names]
    for row in range(capture.tail_rows):
        if tail_mask is None or tail_mask[row]:
            out.append(tuple(_value(v, m, row) for v, m in tail))
    return out
