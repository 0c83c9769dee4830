"""Cache-conscious partitioned hash join (paper II.B.7).

The build side is partitioned by hash into chunks sized to fit a processor
cache before hash tables are built — the Hybrid-Hash-Join / MonetDB lineage
the paper cites.  The probe side is partitioned the same way, so each probe
touches exactly one cache-sized table.  Join types: inner, left, right,
full, semi, anti.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.expression import Batch, Expr, selection_mask
from repro.engine.operators import Operator
from repro.storage.column import ColumnVector


@dataclass
class JoinStats:
    """Observability counters for one join execution (monitor layer)."""

    build_rows: int = 0
    probe_rows: int = 0
    matched_pairs: int = 0
    output_rows: int = 0
    #: Probe strategy the equi-join took: "direct" (direct-address lookup
    #: on a unique, dense int64 build key) or "sorted" (factorise, sort,
    #: binary-search); None when no probe ran.
    path: str | None = None


_JOIN_TYPES = {"inner", "left", "right", "full", "semi", "anti"}


class HashJoinOp(Operator):
    """Equi-join two operators on lists of key columns.

    Args:
        left / right: child operators (left is the probe side; right is
            built into hash tables).
        left_keys / right_keys: equal-length column name lists.
        join_type: inner / left / right / full / semi / anti (semi and anti
            emit only left columns).
        residual: optional non-equi condition evaluated on joined rows.
        pool: optional :class:`~repro.parallel.pool.WorkerPool`.  The probe
            is one whole-column pass at every DOP; a parallel pool models
            its DOP as a ``join-probe`` run (``parallel_run``).
        nulls_match: NULL equals NULL, as in DISTINCT (INTERSECT / EXCEPT
            plan as semi / anti joins with this set); an ordinary join
            leaves it off and a NULL key part never matches.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        join_type: str = "inner",
        residual: Expr | None = None,
        pool=None,
        nulls_match: bool = False,
    ):
        if join_type not in _JOIN_TYPES:
            raise ValueError("unknown join type %r" % join_type)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("join needs matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.residual = residual
        self.pool = pool
        self.nulls_match = nulls_match
        self.stats = JoinStats()
        self.parallel_run = None

    # -- helpers ---------------------------------------------------------------

    def _probe(self, probe_pass, n: int) -> tuple:
        """``probe_pass()``, the one whole-column probe of ``n`` live rows;
        a parallel pool models its DOP (:meth:`WorkerPool.one_pass`)."""
        if self.pool is None:
            return probe_pass()
        out, self.parallel_run = self.pool.one_pass(probe_pass, n, "join-probe")
        return out

    @staticmethod
    def _encoded_keys(probe: Batch, build: Batch, left_keys, right_keys,
                      nulls_match: bool = False):
        """Factorise both sides' keys into comparable int64 codes.

        Returns (probe_codes, probe_valid, build_codes, build_valid): equal
        codes mean equal key tuples; rows with NULL key parts are invalid —
        unless ``nulls_match``, where NULL is a key value with its own code.
        The factorisation pass is the "partition both sides the same way"
        step of a partitioned join, expressed as vectorised dictionary
        coding.
        """
        n_probe, n_build = probe.n, build.n
        probe_valid = np.ones(n_probe, dtype=bool)
        build_valid = np.ones(n_build, dtype=bool)
        probe_combined = np.zeros(n_probe, dtype=np.int64)
        build_combined = np.zeros(n_build, dtype=np.int64)
        for lk, rk in zip(left_keys, right_keys):
            lv = probe.columns[lk]
            rv = build.columns[rk]
            if not nulls_match:
                probe_valid &= ~lv.null_mask()
                build_valid &= ~rv.null_mask()
            left_vals, right_vals = _align_key_arrays(lv.values, rv.values)
            union = np.concatenate([left_vals, right_vals])
            distinct, inverse = np.unique(union, return_inverse=True)
            lcodes = inverse[:n_probe].astype(np.int64)
            rcodes = inverse[n_probe:].astype(np.int64)
            radix = np.int64(max(1, distinct.size))
            if nulls_match:
                lcodes[lv.null_mask()] = radix
                rcodes[rv.null_mask()] = radix
                radix += 1
            probe_combined = probe_combined * radix + lcodes
            build_combined = build_combined * radix + rcodes
        return probe_combined, probe_valid, build_combined, build_valid

    def _direct_lookup_join(self, probe: Batch, build: Batch,
                            matched_left: np.ndarray):
        """Direct-address probe for unique small-domain int64 build keys.

        The workhorse analytical joins are foreign-key lookups against a
        dimension table: one int64 key column, unique build values in a
        dense-ish range.  For those, a direct lookup table replaces the
        factorise→sort→binary-search pipeline (three ``O(n log n)`` passes)
        with two ``O(n)`` scatter/gather passes.  Returns None when the
        shape does not apply — multi-column keys, non-int64 keys, sparse
        domains, duplicate build keys — leaving the sorted path's multi-
        match ordering untouched.  Output is byte-identical to the sorted
        probe: with unique build keys each probe row has 0 or 1 match, so
        both paths emit matches in probe-row order.
        """
        if len(self.left_keys) != 1:
            return None
        lv = probe.columns[self.left_keys[0]]
        rv = build.columns[self.right_keys[0]]
        if lv.values.dtype != np.int64 or rv.values.dtype != np.int64:
            return None
        if self.nulls_match and not (lv.nulls is None and rv.nulls is None):
            return None  # a NULL key is a value here; the table has no slot for it
        build_rows, bvals = _live_keys(rv.values, None if rv.nulls is None else ~rv.nulls)
        if not build_rows.size:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        bmin = int(bvals.min())
        bmax = int(bvals.max())
        span = bmax - bmin + 1
        if span > 4 * (bvals.size + probe.n) + 65_536:
            return None
        offsets = bvals - bmin
        if int(np.bincount(offsets, minlength=span).max()) > 1:
            return None
        lookup = np.full(span, -1, dtype=np.int64)
        lookup[offsets] = build_rows
        probe_rows, pk_live = _live_keys(lv.values, None if lv.nulls is None else ~lv.nulls)

        def probe_pass():
            in_range = (pk_live >= bmin) & (pk_live <= bmax)
            targets = lookup[np.where(in_range, pk_live - bmin, 0)]
            hit = np.flatnonzero(in_range & (targets >= 0))
            return probe_rows[hit], targets[hit]

        li, ri = self._probe(probe_pass, probe_rows.size)
        matched_left[li] = True
        return li, ri

    def _vector_join(self, probe: Batch, build: Batch, matched_left: np.ndarray):
        """Vectorised equi-join: factorise keys, sort the build side, and
        probe with binary search — whole-column operations only."""
        fast = self._direct_lookup_join(probe, build, matched_left)
        self.stats.path = "sorted" if fast is None else "direct"
        metrics = getattr(self.pool, "metrics", None)
        if metrics is not None:  # the engine's registry, when monitoring is on
            metrics.counter("engine.join.%s" % self.stats.path).inc()
        if fast is not None:
            return fast
        pk, p_valid, bk, b_valid = self._encoded_keys(
            probe, build, self.left_keys, self.right_keys, self.nulls_match
        )
        build_rows, bk_live = _live_keys(bk, b_valid)
        if not build_rows.size:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        order = np.argsort(bk_live, kind="stable")
        sorted_bk = bk_live[order]
        sorted_build_rows = build_rows[order]
        probe_rows, pk_live = _live_keys(pk, p_valid)

        def probe_pass():
            lo = np.searchsorted(sorted_bk, pk_live, side="left")
            hi = np.searchsorted(sorted_bk, pk_live, side="right")
            counts = hi - lo
            hit_rows = probe_rows[np.flatnonzero(counts)]
            total = int(counts.sum())
            if total == 0:
                empty = np.zeros(0, dtype=np.int64)
                return hit_rows, empty, empty
            li = np.repeat(probe_rows, counts)
            starts = np.repeat(lo, counts)
            cumulative = np.repeat(np.cumsum(counts) - counts, counts)
            positions = starts + (np.arange(total) - cumulative)
            ri = sorted_build_rows[positions]
            return hit_rows, li.astype(np.int64), ri.astype(np.int64)

        hit_rows, li, ri = self._probe(probe_pass, probe_rows.size)
        matched_left[hit_rows] = True
        return li, ri

    # -- execution ---------------------------------------------------------------

    def execute(self):
        build = self.right.run()
        probe = self.left.run()
        self.stats = JoinStats(build_rows=build.n, probe_rows=probe.n)
        have_schemas = bool(probe.columns) and bool(build.columns)
        matched_left = np.zeros(probe.n, dtype=bool)
        matched_right = np.zeros(build.n, dtype=bool)
        if have_schemas and probe.n and build.n:
            li, ri = self._vector_join(probe, build, matched_left)
        else:
            li = np.zeros(0, dtype=np.int64)
            ri = np.zeros(0, dtype=np.int64)

        if self.residual is not None and li.size:
            joined = self._stitch(probe, build, li, ri)
            keep = np.flatnonzero(selection_mask(self.residual, joined))
            # Residual failures void the match for outer bookkeeping.
            li, ri = li[keep], ri[keep]
            matched_left[:] = False
            matched_left[li] = True
        if ri.size:
            matched_right[ri] = True
        self.stats.matched_pairs = int(li.size)

        if self.join_type == "semi":
            result = probe.filter(matched_left)
            self.stats.output_rows = result.n
            if result.n:
                yield result
            return
        if self.join_type == "anti":
            # NULL keys never match, and in NOT-IN-style anti joins they
            # still qualify here (planner handles NOT IN null semantics).
            result = probe.filter(~matched_left)
            self.stats.output_rows = result.n
            if result.n:
                yield result
            return

        batches = []
        inner = self._stitch(probe, build, li, ri)
        if inner.n:
            batches.append(inner)
        if self.join_type in ("left", "full"):
            unmatched = ~matched_left
            if unmatched.any():
                batches.append(self._null_extend(probe.filter(unmatched), build, right_null=True))
        if self.join_type in ("right", "full"):
            unmatched = ~matched_right
            if unmatched.any():
                batches.append(self._null_extend(build.filter(unmatched), probe, right_null=False))
        merged = Batch.concat(batches) if batches else Batch(columns={}, n=0)
        self.stats.output_rows = merged.n
        if merged.n:
            yield merged

    def _stitch(self, probe: Batch, build: Batch, li: np.ndarray, ri: np.ndarray) -> Batch:
        # Pairs come in probe-row order, so ``li`` is the identity exactly
        # when every probe row matched once (a foreign key onto a complete
        # dimension): the probe columns then go out as they are.
        n = probe.n
        identity = li.size == n and (
            n == 0 or (li[-1] == n - 1 and bool((li[1:] > li[:-1]).all()))
        )
        columns = dict(probe.columns) if identity else {
            name: vector.take(li) for name, vector in probe.columns.items()
        }
        for name, vector in build.columns.items():
            if name not in columns:
                columns[name] = vector.take(ri)
        return Batch.from_columns(columns)

    def _null_extend(self, kept: Batch, other: Batch, right_null: bool) -> Batch:
        return null_extend(kept, other, right_null)


def _live_keys(keys: np.ndarray, valid: np.ndarray | None):
    """``(row ids, keys at them)`` of the rows ``valid`` keeps (None: all);
    when that is every row the keys are not gathered again."""
    if valid is None or valid.all():
        return np.arange(keys.size), keys
    rows = np.flatnonzero(valid)
    return rows, keys[rows]


def _align_key_arrays(left: np.ndarray, right: np.ndarray):
    """Bring two key arrays to a unifiable dtype for factorisation."""
    if left.dtype == object or right.dtype == object:
        if left.dtype != object:
            boxed = np.empty(left.size, dtype=object)
            boxed[:] = left.tolist()
            left = boxed
        if right.dtype != object:
            boxed = np.empty(right.size, dtype=object)
            boxed[:] = right.tolist()
            right = boxed
        return left, right
    if left.dtype != right.dtype:
        return left.astype(np.float64), right.astype(np.float64)
    return left, right


def null_extend(kept: Batch, other: Batch, right_null: bool) -> Batch:
    """Pad unmatched outer rows with NULLs for the other side's columns."""
    columns = dict(kept.columns)
    n = kept.n
    for name, vector in other.columns.items():
        if name in columns:
            continue
        np_dtype = vector.dtype.numpy_dtype
        filler = "" if np_dtype == object else 0
        values = np.full(n, filler, dtype=np_dtype)
        columns[name] = ColumnVector(vector.dtype, values, np.ones(n, dtype=bool))
    if not right_null:
        # Keep probe-side column ordering stable for right/full joins.
        ordered = {}
        for name in other.columns:
            ordered[name] = columns[name]
        for name in kept.columns:
            if name not in ordered:
                ordered[name] = columns[name]
        columns = ordered
    return Batch.from_columns(columns)


class NestedLoopJoinOp(Operator):
    """Fallback join for arbitrary (non-equi) conditions."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        condition: Expr | None,
        join_type: str = "inner",
    ):
        if join_type not in ("inner", "left", "cross"):
            raise ValueError("nested-loop join supports inner/left/cross")
        self.left = left
        self.right = right
        self.condition = condition
        self.join_type = join_type
        self.stats = JoinStats()

    def execute(self):
        left = self.left.run()
        right = self.right.run()
        self.stats = JoinStats(build_rows=right.n, probe_rows=left.n)
        if left.n == 0 or (right.n == 0 and self.join_type != "left"):
            return
        li = np.repeat(np.arange(left.n), max(right.n, 1))
        ri = np.tile(np.arange(right.n), left.n) if right.n else np.zeros(0, np.int64)
        if right.n == 0:
            cross = None
        else:
            columns = {}
            for name, vector in left.columns.items():
                columns[name] = vector.take(li)
            for name, vector in right.columns.items():
                if name not in columns:
                    columns[name] = vector.take(ri)
            cross = Batch.from_columns(columns)
        if self.condition is not None and cross is not None:
            keep = selection_mask(self.condition, cross)
            matched = np.zeros(left.n, dtype=bool)
            matched[li[keep]] = True
            cross = cross.filter(keep)
        else:
            matched = np.ones(left.n, dtype=bool) if cross is not None else np.zeros(left.n, bool)
        batches = [cross] if cross is not None and cross.n else []
        if self.join_type == "left":
            unmatched = ~matched
            if unmatched.any():
                batches.append(null_extend(left.filter(unmatched), right, right_null=True))
        if batches:
            merged = Batch.concat(batches)
            self.stats.output_rows = merged.n
            yield merged
