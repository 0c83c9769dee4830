"""Property tests: vector evaluation == row-at-a-time evaluation.

Random expression trees over random data must produce identical results
through ``Expr.eval`` (numpy batches) and ``Expr.eval_row`` (Python
scalars) — the two engines' shared contract.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import fused
from repro.engine.expression import (
    Arith,
    Batch,
    Between,
    CaseExpr,
    Cast,
    ColumnRef,
    Compare,
    InList,
    IsNull,
    Literal,
    Logical,
    Not,
    make_arith,
)
from repro.errors import ConversionError, DivisionByZeroError
from repro.storage.column import ColumnVector
from repro.types import BOOLEAN, DATE, DOUBLE, INTEGER, char_type, decimal_type, varchar_type

_COLUMNS = ["A", "B"]


def _expressions(depth: int):
    """Strategy producing (expr, is_boolean) pairs."""
    leaf_numeric = st.one_of(
        st.sampled_from([ColumnRef("A", INTEGER), ColumnRef("B", INTEGER)]),
        st.integers(-20, 20).map(lambda v: Literal(v, INTEGER)),
    )
    if depth == 0:
        return leaf_numeric
    sub = _expressions(depth - 1)
    return st.one_of(
        leaf_numeric,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: make_arith(t[0], t[1], t[2])
        ),
    )


def _predicates(depth: int):
    numeric = _expressions(1)
    base = st.one_of(
        st.tuples(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), numeric, numeric).map(
            lambda t: Compare(t[0], t[1], t[2])
        ),
        numeric.map(lambda e: IsNull(e)),
        st.tuples(numeric, st.lists(st.integers(-20, 20), min_size=1, max_size=4)).map(
            lambda t: InList(t[0], t[1])
        ),
        st.tuples(numeric, st.integers(-20, 0), st.integers(0, 20)).map(
            lambda t: Between(t[0], Literal(t[1], INTEGER), Literal(t[2], INTEGER))
        ),
    )
    if depth == 0:
        return base
    sub = _predicates(depth - 1)
    return st.one_of(
        base,
        sub.map(Not),
        st.tuples(st.sampled_from(["AND", "OR"]), sub, sub).map(
            lambda t: Logical(t[0], [t[1], t[2]])
        ),
    )


def _batch_and_rows(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    columns = {}
    rows = [dict() for _ in range(n)]
    for name in _COLUMNS:
        values = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(-20, 20)), min_size=n, max_size=n
            )
        )
        columns[name] = ColumnVector.from_boundary(values, INTEGER)
        for i, v in enumerate(values):
            rows[i][name] = v
    return Batch.from_columns(columns), rows


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_numeric_expressions_agree(data):
    expr = data.draw(_expressions(2))
    batch, rows = _batch_and_rows(data)
    vector = expr.eval(batch)
    for i, row in enumerate(rows):
        scalar = expr.eval_row(row)
        if vector.null_mask()[i]:
            assert scalar is None
        else:
            assert scalar == vector.values[i]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_predicates_agree(data):
    pred = data.draw(_predicates(2))
    batch, rows = _batch_and_rows(data)
    vector = pred.eval(batch)
    for i, row in enumerate(rows):
        scalar = pred.eval_row(row)
        if vector.null_mask()[i]:
            assert scalar is None, "row %d: vector UNKNOWN, scalar %r" % (i, scalar)
        else:
            assert scalar == vector.values[i], "row %d" % i


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_case_expressions_agree(data):
    condition = data.draw(_predicates(1))
    then = data.draw(_expressions(1))
    default = data.draw(st.one_of(st.none(), _expressions(1)))
    expr = CaseExpr(whens=[(condition, then)], default=default, dtype=then.dtype)
    batch, rows = _batch_and_rows(data)
    vector = expr.eval(batch)
    for i, row in enumerate(rows):
        scalar = expr.eval_row(row)
        if vector.null_mask()[i]:
            assert scalar is None
        else:
            assert scalar == vector.values[i]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_division_agrees_or_raises_identically(data):
    expr = make_arith(
        "/", data.draw(_expressions(1)), data.draw(_expressions(1))
    )
    batch, rows = _batch_and_rows(data)
    try:
        vector = expr.eval(batch)
        vector_error = None
    except DivisionByZeroError:
        vector_error = DivisionByZeroError
    if vector_error is not None:
        # At least one live row must divide by zero in scalar mode too.
        saw = False
        for row in rows:
            try:
                expr.eval_row(row)
            except DivisionByZeroError:
                saw = True
                break
        assert saw
        return
    for i, row in enumerate(rows):
        scalar = expr.eval_row(row)
        if vector.null_mask()[i]:
            assert scalar is None
        else:
            assert scalar == pytest.approx(vector.values[i])


def test_ragged_batches_are_refused_whatever_the_number_of_lengths():
    # constant@src/repro/engine/expression.py:41:24 survived (see
    # BENCH_mutation.json): two different column lengths are already one
    # too many.
    short = ColumnVector(INTEGER, np.array([1], dtype=np.int64), None)
    long = ColumnVector(INTEGER, np.array([1, 2], dtype=np.int64), None)
    with pytest.raises(ValueError, match="ragged"):
        Batch.from_columns({"a": short, "b": long})
    assert Batch.from_columns({"a": long, "b": long}).n == 2


# -- dictionary-coded vectors == their materialised twins -------------------------
#
# A coded string vector (codes + shared dictionary) must be indistinguishable
# from the plain vector holding ``dictionary[codes]`` through everything that
# moves or consumes it.  Dictionaries are drawn with duplicates, the empty
# string and entries no row references; vectors may be empty or all NULL.

_VARCHAR = varchar_type(12)
_WORDS = ["", "a", "aa", "b", "B", "12", "7", " 3", "1.50", "2020-02-29", "zz", "yy"]


def _frozen(entries) -> np.ndarray:
    table = np.empty(len(entries), dtype=object)
    table[:] = entries
    table.flags.writeable = False
    return table


def _twin(vector: ColumnVector) -> ColumnVector:
    """The plain vector a coded one stands for."""
    return ColumnVector(vector.dtype, vector.dictionary[vector.codes], vector.nulls)


@st.composite
def _coded(draw, n=None, words=_WORDS, dictionary=None):
    """A coded vector: 1-6 dictionary entries (maybe duplicated, maybe
    unreferenced), ``n`` rows (drawn 0-30 when None), none / some / all NULL."""
    if dictionary is None:
        dictionary = _frozen(draw(st.lists(st.sampled_from(words), min_size=1, max_size=6)))
    if n is None:
        n = draw(st.integers(0, 30))
    codes = np.asarray(
        draw(st.lists(st.integers(0, dictionary.size - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    null_mode = draw(st.sampled_from(["none", "some", "all"]))
    if null_mode == "none":
        nulls = None
    elif null_mode == "all":
        nulls = np.ones(n, dtype=bool)
    else:
        nulls = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return ColumnVector.coded(_VARCHAR, codes, dictionary, nulls)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coded_take_filter_and_boundary_equal_the_twin(data):
    vector = data.draw(_coded())
    twin = _twin(vector)
    n = len(vector)
    assert len(twin) == n and vector.to_boundary() == twin.to_boundary()
    mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    kept = vector.filter(mask)
    assert kept.codes is not None and kept.dictionary is vector.dictionary
    assert kept.to_boundary() == twin.filter(mask).to_boundary()
    if n:
        picks = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=np.int64
        )
        taken = vector.take(picks)
        assert taken.codes is not None and len(taken) == picks.size
        assert taken.to_boundary() == twin.take(picks).to_boundary()
    assert vector.take(slice(1, 5)).to_boundary() == twin.to_boundary()[1:5]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coded_concat_equals_the_twins(data):
    first = data.draw(_coded())
    shapes = data.draw(
        st.lists(st.sampled_from(["same", "other", "plain"]), min_size=0, max_size=2)
    )
    parts, twins = [first], [_twin(first)]
    for shape in shapes:
        if shape == "same":
            part = data.draw(_coded(dictionary=first.dictionary))
        else:
            part = data.draw(_coded())
        twins.append(_twin(part))
        parts.append(twins[-1] if shape == "plain" else part)
    merged = ColumnVector.concat(parts)
    assert merged.to_boundary() == ColumnVector.concat(twins).to_boundary()
    assert len(merged) == sum(len(p) for p in parts)
    if "other" not in shapes and "plain" not in shapes:
        assert merged.dictionary is first.dictionary  # one dictionary: codes only
    if merged.codes is not None and len(merged):
        assert 0 <= merged.codes.min() and merged.codes.max() < merged.dictionary.size
        assert not merged.dictionary.flags.writeable
        if merged.dictionary is not first.dictionary:
            # A built dictionary never outgrows the rows it serves.
            assert merged.dictionary.size <= len(merged)


def _group_result(keys):
    ids, key_cols, k = fused.group_codes(keys)
    return ids.tolist(), [c.to_boundary() for c in key_cols], k


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_codes_over_coded_keys_equal_the_twins(data):
    """Same ids, same group keys in the same order, whether a string key
    arrives coded (dictionary ranked, with unreferenced and duplicate
    entries) or plain (rows hashed), alone or beside int keys.  (The
    operators never hand ``group_codes`` an empty span.)"""
    n = data.draw(st.integers(1, 30))
    keys, twins = [], []
    for kind in data.draw(
        st.lists(st.sampled_from(["coded", "plain", "int"]), min_size=1, max_size=3)
    ):
        if kind == "int":
            ints = data.draw(
                st.lists(st.one_of(st.none(), st.integers(-3, 3)), min_size=n, max_size=n)
            )
            keys.append(ColumnVector.from_boundary(ints, INTEGER))
            twins.append(keys[-1])
            continue
        vector = data.draw(_coded(n=n))
        twins.append(_twin(vector))
        keys.append(vector if kind == "coded" else twins[-1])
    got = _group_result(keys)
    assert got == _group_result(twins)
    ids, key_cols, k = got
    # ... and that order is NULL first, then ascending, key by key.
    rows = list(zip(*key_cols))
    assert rows == sorted(
        set(rows), key=lambda r: tuple((v is not None, v if v is not None else 0) for v in r)
    ) or not rows
    assert sorted(set(ids)) == list(range(k))


def test_group_codes_ranks_the_dictionary_up_to_the_span_and_not_beyond():
    """The boundary of the rule: a dictionary as long as the span is ranked
    (no row materialised), one entry longer codes the rows — same answer."""
    fits = ColumnVector.coded(_VARCHAR, np.array([2, 0, 2]), _frozen(["b", "a", "c"]))
    assert fused.row_coding_reason(fits) is None
    over = ColumnVector.coded(_VARCHAR, np.array([2, 0, 2]), _frozen(["b", "a", "c", "d"]))
    assert fused.row_coding_reason(over) == "dictionary-larger-than-span"
    assert fused.row_coding_reason(_twin(fits)) == "plain-input"
    assert _group_result([fits]) == _group_result([over]) == ([1, 0, 1], [["b", "c"]], 2)
    assert "values" not in vars(fits) and "values" in vars(over)
    assert fused.key_coding([None, None]) == ("dictionary", ())
    assert fused.key_coding([None, "plain-input"]) == ("mixed", ("plain-input",))
    assert fused.key_coding(["plain-input", "dictionary-larger-than-span"]) == (
        "rows", ("dictionary-larger-than-span", "plain-input"),
    )
    assert fused.key_coding([]) == (None, ())


def test_group_codes_null_rows_of_a_coded_key_form_the_first_group():
    """NULL slots take code 0 whatever dictionary entry sits under them:
    they neither join that entry's group nor split by it."""
    vector = ColumnVector.coded(
        _VARCHAR,
        np.array([1, 0, 1, 0, 1]),
        _frozen(["x", "y"]),
        np.array([False, True, True, False, False]),
    )
    assert _group_result([vector]) == ([2, 0, 0, 1, 2], [[None, "x", "y"]], 3)


_CAST_TARGETS = [
    varchar_type(2), varchar_type(12), char_type(3), char_type(12),
    INTEGER, decimal_type(8, 2), DATE,
]


def _outcome(thunk):
    try:
        vector = thunk()
    except (ConversionError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return vector.to_boundary()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cast_over_coded_input_equals_the_twin(data):
    """Same values — or the same error, the first bad *row's* — converting
    dictionary entries once as converting rows; a bad entry that only NULL
    slots (or no row) reference is never converted."""
    vector = data.draw(_coded())
    to_dt = data.draw(st.sampled_from(_CAST_TARGETS))
    expr = Cast(ColumnRef("S", _VARCHAR), to_dt)
    coded = _outcome(lambda: expr.eval(Batch.from_columns({"S": vector})))
    plain = _outcome(lambda: expr.eval(Batch.from_columns({"S": _twin(vector)})))
    assert coded == plain
    if isinstance(coded, list) and to_dt.is_string:
        out = expr.eval(Batch.from_columns({"S": vector}))
        assert out.codes is vector.codes  # rows keep their codes


def test_cast_over_coded_input_converts_only_what_live_rows_reference():
    expr = Cast(ColumnRef("S", _VARCHAR), DOUBLE)
    dictionary = _frozen(["12", "bad", "7", "worse"])
    # "bad" sits under a NULL slot, "worse" is referenced by no row.
    vector = ColumnVector.coded(
        _VARCHAR, np.array([0, 1, 2, 0]), dictionary,
        np.array([False, True, False, False]),
    )
    out = expr.eval(Batch.from_columns({"S": vector}))
    assert out.to_boundary() == [12, None, 7, 12] and out.values[1] == 0
    # Two bad entries: the one a row references first is the error, not the
    # one that comes first in the dictionary.
    vector = ColumnVector.coded(_VARCHAR, np.array([0, 3, 1, 3]), dictionary)
    with pytest.raises(ConversionError, match="'worse'"):
        expr.eval(Batch.from_columns({"S": vector}))
    with pytest.raises(ConversionError, match="'bad'"):
        expr.eval(Batch.from_columns({"S": vector.take(np.array([2, 1, 0]))}))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_string_case_over_coded_literal_null_and_column_branches(data):
    """A string CASE stays coded and equals row-at-a-time evaluation, with
    coded columns, literals, NULL and plain columns as branches."""
    n = data.draw(st.integers(0, 25))
    coded = data.draw(_coded(n=n))
    plain = _twin(data.draw(_coded(n=n)))
    a = ColumnVector.from_boundary(
        data.draw(st.lists(st.one_of(st.none(), st.integers(-5, 5)), min_size=n, max_size=n)),
        INTEGER,
    )
    batch = Batch.from_columns({"C": coded, "P": plain, "A": a})
    branch = st.sampled_from([
        ColumnRef("C", _VARCHAR), ColumnRef("P", _VARCHAR),
        Literal("lit", _VARCHAR), Literal("", _VARCHAR), Literal(None, _VARCHAR),
    ])
    cond = st.integers(-5, 5).map(
        lambda v: Compare("<", ColumnRef("A", INTEGER), Literal(v, INTEGER))
    )
    whens = data.draw(st.lists(st.tuples(cond, branch), min_size=1, max_size=3))
    default = data.draw(st.one_of(st.none(), branch))
    expr = CaseExpr(whens=whens, default=default, dtype=_VARCHAR)
    out = expr.eval(batch)
    assert out.codes is not None and len(out) == n
    if n:
        assert 0 <= out.codes.min() and out.codes.max() < out.dictionary.size
    rows = [
        dict(zip("CPA", triple))
        for triple in zip(coded.to_boundary(), plain.to_boundary(), a.to_boundary())
    ]
    assert out.to_boundary() == [expr.eval_row(row) for row in rows]
    if n:  # ... and groups like its twin.
        assert _group_result([out]) == _group_result([_twin(out)])


def test_string_case_offsets_each_branch_into_its_own_dictionary():
    """Three literal branches: every row's code lands in the dictionary of
    the branch that decided it (an offset slip would repeat one label)."""
    a = ColumnVector.from_boundary([1, 5, 9, None, 5], INTEGER)
    expr = CaseExpr(
        whens=[
            (Compare("<", ColumnRef("A", INTEGER), Literal(3, INTEGER)), Literal("lo", _VARCHAR)),
            (Compare("<", ColumnRef("A", INTEGER), Literal(7, INTEGER)), Literal("mid", _VARCHAR)),
        ],
        default=Literal("hi", _VARCHAR),
        dtype=_VARCHAR,
    )
    out = expr.eval(Batch.from_columns({"A": a}))
    assert out.to_boundary() == ["lo", "mid", "hi", "hi", "mid"]
    assert out.dictionary.tolist() == ["", "lo", "mid", "hi"]
    assert out.codes.tolist() == [1, 2, 3, 3, 2]
    assert fused.row_coding_reason(out) is None
