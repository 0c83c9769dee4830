"""Vectorised expression evaluation and three-valued logic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import (
    Arith,
    Batch,
    Between,
    CaseExpr,
    Cast,
    ColumnRef,
    Compare,
    InList,
    IsNull,
    Like,
    Literal,
    Logical,
    Not,
)
from repro.engine.expression import make_arith, selection_mask
from repro.errors import ConversionError, DivisionByZeroError
from repro.storage.column import ColumnVector
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    SMALLINT,
    char_type,
    decimal_type,
    varchar_type,
)
from repro.types.datatypes import TypeKind


def make_batch(**cols):
    columns = {}
    for name, (values, dt) in cols.items():
        columns[name] = ColumnVector.from_boundary(values, dt)
    return Batch.from_columns(columns)


@pytest.fixture()
def batch():
    return make_batch(
        a=([1, 2, None, 4], INTEGER),
        b=([10, None, 30, 40], INTEGER),
        s=(["apple", "pear", None, "plum"], varchar_type(10)),
        x=([1.5, 2.5, 3.5, 4.5], DOUBLE),
    )


def col(name, dt=INTEGER):
    return ColumnRef(name, dt)


class TestBatchConcat:
    def test_one_batch_and_several_batches(self, batch):
        # constant@src/repro/engine/expression.py:62:24 survived
        # (``batches[0]`` -> ``batches[1]``): every caller concatenated two
        # or more batches, where the names of any batch will do.
        one = Batch.concat([batch])
        assert one.n == 4 and list(one.columns) == ["a", "b", "s", "x"]
        assert one.columns["s"].to_boundary() == ["apple", "pear", None, "plum"]
        two = Batch.concat([batch, batch.take(np.array([3]))])
        assert two.n == 5 and two.columns["a"].to_boundary() == [1, 2, None, 4, 4]
        assert Batch.concat([]).n == 0


class TestColumnAndLiteral:
    def test_column_ref(self, batch):
        v = col("a").eval(batch)
        assert v.to_boundary() == [1, 2, None, 4]

    def test_literal_broadcast(self, batch):
        v = Literal(7, INTEGER).eval(batch)
        assert v.to_boundary() == [7, 7, 7, 7]

    def test_null_literal(self, batch):
        v = Literal(None, INTEGER).eval(batch)
        assert v.to_boundary() == [None] * 4
        # constant@expression.py:123 survived: like every producer, a NULL
        # literal leaves the physical filler 0 under its mask.
        assert v.values.tolist() == [0] * 4 and v.nulls.all()

    def test_string_literal(self, batch):
        v = Literal("hi", varchar_type(5)).eval(batch)
        assert v.values[0] == "hi"

    def test_missing_column(self, batch):
        from repro.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            col("zzz").eval(batch)


class TestArith:
    def test_add_with_null_propagation(self, batch):
        e = Arith("+", col("a"), col("b"), INTEGER)
        assert e.eval(batch).to_boundary() == [11, None, None, 44]

    def test_subtract_multiply(self, batch):
        assert Arith("-", col("b"), col("a"), INTEGER).eval(batch).to_boundary()[0] == 9
        assert Arith("*", col("a"), col("a"), INTEGER).eval(batch).to_boundary()[3] == 16

    def test_integer_division_truncates(self, batch):
        e = Arith("/", Literal(7, INTEGER), Literal(2, INTEGER), INTEGER)
        assert e.eval(batch).to_boundary()[0] == 3
        e2 = Arith("/", Literal(-7, INTEGER), Literal(2, INTEGER), INTEGER)
        assert e2.eval(batch).to_boundary()[0] == -3

    def test_float_division(self, batch):
        e = Arith("/", col("x", DOUBLE), Literal(2.0, DOUBLE), DOUBLE)
        assert e.eval(batch).to_boundary()[0] == pytest.approx(0.75)

    def test_division_by_zero_raises(self, batch):
        e = Arith("/", col("a"), Literal(0, INTEGER), INTEGER)
        with pytest.raises(DivisionByZeroError):
            e.eval(batch)

    def test_division_by_zero_in_null_rows_tolerated(self, batch):
        # NULL / 0 never evaluates the division for that row.
        e = Arith("/", col("a"), col("a"), INTEGER)
        result = e.eval(batch).to_boundary()
        assert result == [1, 1, None, 1]

    def test_modulo(self, batch):
        e = Arith("%", Literal(7, INTEGER), Literal(3, INTEGER), INTEGER)
        assert e.eval(batch).to_boundary()[0] == 1
        neg = Arith("%", Literal(-7, INTEGER), Literal(3, INTEGER), INTEGER)
        assert neg.eval(batch).to_boundary()[0] == -1  # sign of dividend

    def test_concat(self, batch):
        e = Arith("||", col("s", varchar_type(10)), Literal("!", varchar_type(1)), varchar_type(11))
        assert e.eval(batch).values[0] == "apple!"

    def test_eval_row_matches_vector(self, batch):
        e = Arith("+", col("a"), Literal(5, INTEGER), INTEGER)
        assert e.eval_row({"a": 3}) == 8
        assert e.eval_row({"a": None}) is None

    def test_unknown_op_rejected(self):
        from repro.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            Arith("^", Literal(1, INTEGER), Literal(2, INTEGER), INTEGER)


class TestMakeArith:
    def test_decimal_alignment(self):
        left = Literal(150, decimal_type(10, 2))   # 1.50 physical
        right = Literal(2, decimal_type(10, 0))    # 2 physical
        e = make_arith("+", left, right)
        assert e.dtype.kind is TypeKind.DECIMAL
        assert e.dtype.scale == 2
        batch = make_batch(a=([0], INTEGER))
        assert e.eval(batch).values[0] == 150 + 200

    def test_decimal_division_goes_double(self):
        e = make_arith("/", Literal(150, decimal_type(10, 2)), Literal(100, decimal_type(10, 2)))
        assert e.dtype.kind is TypeKind.DOUBLE

    def test_concat_result_type(self):
        e = make_arith("||", Literal("a", varchar_type(1)), Literal("b", varchar_type(1)))
        assert e.dtype.kind is TypeKind.VARCHAR


class TestCompareAndLogic:
    def test_compare_nulls_are_unknown(self, batch):
        e = Compare(">", col("a"), Literal(1, INTEGER))
        v = e.eval(batch)
        assert list(v.values) == [0, 1, 0, 1]
        assert list(v.null_mask()) == [False, False, True, False]

    def test_mixed_dtype_compare(self, batch):
        e = Compare("<", col("a"), col("x", DOUBLE))
        # Row 2 has NULL a, so only the selection mask is defined there.
        assert list(selection_mask(e, batch)) == [True, True, False, True]

    def test_string_compare(self, batch):
        e = Compare("=", col("s", varchar_type(10)), Literal("pear", varchar_type(10)))
        assert list(e.eval(batch).values) == [0, 1, 0, 0]

    def test_and_three_valued(self, batch):
        # a > 1 AND b > 10 : [F&?, T&NULL, NULL&T, T&T]
        e = Logical("AND", [Compare(">", col("a"), Literal(1, INTEGER)),
                            Compare(">", col("b"), Literal(10, INTEGER))])
        v = e.eval(batch)
        mask = selection_mask(e, batch)
        assert list(mask) == [False, False, False, True]
        # row 0: a>1 is FALSE -> result FALSE (not null) even though b known
        assert not v.null_mask()[0]
        # row 1: TRUE AND NULL -> NULL
        assert v.null_mask()[1]

    def test_or_three_valued(self, batch):
        e = Logical("OR", [Compare(">", col("a"), Literal(3, INTEGER)),
                           Compare(">", col("b"), Literal(100, INTEGER))])
        v = e.eval(batch)
        # row 2: NULL OR FALSE -> NULL ; row 3: TRUE OR FALSE -> TRUE
        assert v.null_mask()[2]
        assert v.values[3] == 1

    def test_false_dominates_null_in_and(self, batch):
        e = Logical("AND", [Compare(">", col("b"), Literal(100, INTEGER)),
                            Compare(">", col("a"), Literal(0, INTEGER))])
        v = e.eval(batch)
        # row 1: b NULL AND a>0 TRUE -> NULL; row 2: b=30>100 FALSE AND NULL -> FALSE
        assert v.null_mask()[1]
        assert not v.null_mask()[2]
        assert v.values[2] == 0

    def test_not(self, batch):
        e = Not(Compare("=", col("a"), Literal(2, INTEGER)))
        v = e.eval(batch)
        assert list(selection_mask(e, batch)) == [True, False, False, True]
        assert v.null_mask()[2]  # NOT NULL-comparison stays UNKNOWN

    def test_row_mode_logic(self):
        e = Logical("AND", [Literal(1, BOOLEAN), Literal(None, BOOLEAN)])
        assert e.eval_row({}) is None
        e2 = Logical("AND", [Literal(0, BOOLEAN), Literal(None, BOOLEAN)])
        assert e2.eval_row({}) == 0
        e3 = Logical("OR", [Literal(1, BOOLEAN), Literal(None, BOOLEAN)])
        assert e3.eval_row({}) == 1


class TestPredicateForms:
    def test_is_null(self, batch):
        assert list(IsNull(col("a")).eval(batch).values) == [0, 0, 1, 0]
        assert list(IsNull(col("a"), negated=True).eval(batch).values) == [1, 1, 0, 1]

    def test_between(self, batch):
        e = Between(col("a"), Literal(2, INTEGER), Literal(4, INTEGER))
        assert list(selection_mask(e, batch)) == [False, True, False, True]

    def test_not_between(self, batch):
        e = Between(col("a"), Literal(2, INTEGER), Literal(4, INTEGER), negated=True)
        assert list(selection_mask(e, batch)) == [True, False, False, False]

    def test_between_row_at_a_time_agrees(self):
        # boolean@src/repro/engine/expression.py:419:19 survived: only the
        # vector form of NOT BETWEEN was ever evaluated.
        for negated in (False, True):
            e = Between(col("a"), Literal(2, INTEGER), Literal(4, INTEGER), negated=negated)
            assert [e.eval_row({"a": v}) for v in (1, 2, 4, 5, None)] == [
                int(negated), int(not negated), int(not negated), int(negated), None
            ]

    def test_in_list(self, batch):
        e = InList(col("a"), [1, 4])
        assert list(selection_mask(e, batch)) == [True, False, False, True]

    def test_not_in_with_null_item_matches_nothing_uncertainly(self, batch):
        e = InList(col("a"), [1, None], negated=True)
        # 2 NOT IN (1, NULL) is UNKNOWN -> filtered out
        assert list(selection_mask(e, batch)) == [False, False, False, False]

    def test_in_row_mode(self):
        e = InList(ColumnRef("a", INTEGER), [1, 2])
        assert e.eval_row({"a": 1}) == 1
        assert e.eval_row({"a": 3}) == 0
        assert e.eval_row({"a": None}) is None

    def test_like(self, batch):
        e = Like(col("s", varchar_type(10)), "p%")
        assert list(e.eval(batch).values) == [0, 1, 0, 1]

    def test_like_underscore_and_escape(self, batch):
        e = Like(col("s", varchar_type(10)), "p_ar")
        assert list(e.eval(batch).values) == [0, 1, 0, 0]
        esc = Like(Literal("50%", varchar_type(3)), r"50\%", escape="\\")
        assert esc.eval(batch).values[0] == 1

    def test_like_row_mode(self):
        e = Like(ColumnRef("s", varchar_type(5)), "%m")
        assert e.eval_row({"s": "plum"}) == 1
        assert e.eval_row({"s": None}) is None


class TestCastAndCase:
    def test_cast_int_to_double(self, batch):
        e = Cast(col("a"), DOUBLE)
        v = e.eval(batch)
        assert v.values.dtype == np.float64
        assert v.to_boundary() == [1.0, 2.0, None, 4.0]

    def test_cast_double_to_int_truncates(self, batch):
        e = Cast(col("x", DOUBLE), INTEGER)
        assert e.eval(batch).to_boundary() == [1, 2, 3, 4]

    def test_cast_between_float_types_keeps_the_fraction(self, batch):
        # boolean@src/repro/engine/expression.py:550:11 survived: truncation
        # belongs to float -> integer casts only (`and`, not `or`).
        from repro.types import REAL

        v = Cast(col("x", DOUBLE), REAL).eval(batch)
        assert v.values.dtype == np.float64
        assert v.to_boundary() == [1.5, 2.5, 3.5, 4.5]
        # ... and an integer -> integer cast stays integral.
        w = Cast(col("a"), BIGINT).eval(batch)
        assert w.values.dtype == np.int64 and w.to_boundary() == [1, 2, None, 4]

    def test_cast_string_to_int(self, batch):
        e = Cast(Literal("42", varchar_type(2)), BIGINT)
        assert e.eval(batch).to_boundary() == [42] * 4

    def test_cast_int_to_string(self, batch):
        e = Cast(col("a"), varchar_type(10))
        assert e.eval(batch).values[0] == "1"

    def test_decimal_rescale(self, batch):
        e = Cast(Literal(150, decimal_type(10, 2)), decimal_type(10, 4), scale_shift=2)
        assert e.eval(batch).values[0] == 15000
        assert e.eval_row({}) == 15000
        down = Cast(Literal(12345, decimal_type(10, 4)), decimal_type(10, 2), scale_shift=-2)
        assert down.eval_row({}) == 123

    def test_case_expr(self, batch):
        e = CaseExpr(
            whens=[
                (Compare("<", col("a"), Literal(2, INTEGER)), Literal("low", varchar_type(4))),
                (Compare("<", col("a"), Literal(4, INTEGER)), Literal("mid", varchar_type(4))),
            ],
            default=Literal("high", varchar_type(4)),
            dtype=varchar_type(4),
        )
        v = e.eval(batch)
        got = [None if v.null_mask()[i] else v.values[i] for i in range(4)]
        # NULL < 2 is UNKNOWN so row 2 falls to the default
        assert got == ["low", "mid", "high", "high"]

    def test_case_without_default_gives_null(self, batch):
        e = CaseExpr(
            whens=[(Compare("=", col("a"), Literal(1, INTEGER)), Literal(10, INTEGER))],
            default=None,
            dtype=INTEGER,
        )
        assert e.eval(batch).to_boundary() == [10, None, None, None]

    def test_case_row_mode(self):
        e = CaseExpr(
            whens=[(Compare("=", ColumnRef("a", INTEGER), Literal(1, INTEGER)), Literal(10, INTEGER))],
            default=Literal(0, INTEGER),
            dtype=INTEGER,
        )
        assert e.eval_row({"a": 1}) == 10
        assert e.eval_row({"a": 9}) == 0


class TestReferences:
    def test_reference_collection(self, batch):
        e = Logical(
            "AND",
            [
                Compare(">", col("a"), Literal(0, INTEGER)),
                Between(col("b"), Literal(0, INTEGER), col("x", DOUBLE)),
            ],
        )
        assert e.references() == {"a", "b", "x"}


class TestPhysicalAlignmentInternals:
    """Kill tests for surviving expression mutants (see BENCH_mutation.json)."""

    def test_align_for_compare_unifies_mixed_numeric_dtypes(self):
        # invert-predicate@src/repro/engine/expression.py:284:7 survived:
        # inverting the dtype-mismatch test makes mixed int64/float64
        # comparisons run on unconverted arrays (and needlessly converts
        # matched ones); the planner usually aligns via Cast first, so no
        # selected test hit the raw helper with mixed dtypes.
        from repro.engine.expression import _align_for_compare

        ints = ColumnVector(BIGINT, np.array([1, 2], dtype=np.int64), None)
        doubles = ColumnVector(DOUBLE, np.array([0.5, 2.0]), None)
        left, right = _align_for_compare(ints, doubles)
        assert left.dtype == np.float64
        assert right.dtype == np.float64
        same_l, same_r = _align_for_compare(ints, ints)
        assert same_l.dtype == np.int64
        assert same_r.dtype == np.int64

    def test_cast_scalar_decimal_to_bigint_goes_through_boundary(self):
        # boolean@src/repro/engine/expression.py:567:7 survived: the
        # decimal fast path guard (DECIMAL *and* DECIMAL) weakening to
        # *or* hijacks DECIMAL -> integer casts into raw scaled-integer
        # passthrough (2.50 cast to BIGINT returns 250, not 3).
        from repro.engine.expression import _cast_physical_scalar

        assert _cast_physical_scalar(250, decimal_type(5, 2), BIGINT, 0) == 3

    def test_decimal_multiply_result_scale_adds_operand_scales(self):
        # off-by-one@src/repro/engine/expression.py:729:53 survived: the
        # product scale (ls + rs, DB2 rule) drifting by one truncates a
        # digit off every decimal multiplication's declared scale.
        from repro.engine.expression import _align_decimals

        tenths = decimal_type(5, 1)
        _, _, result = _align_decimals(
            "*", Literal(15, tenths), Literal(25, tenths), DOUBLE
        )
        assert result.scale == 2
        assert result.precision == 31

    def test_decimal_with_integer_treats_the_integer_as_scale_zero(self):
        # constant@src/repro/engine/expression.py:798:70 survived: an
        # INTEGER operand counted as scale 1 gives DECIMAL * INTEGER one
        # fractional digit too many (1.50 * 2 would read 0.300).
        hundredths = decimal_type(8, 2)
        product = make_arith("*", Literal(150, hundredths), Literal(2, INTEGER))
        assert product.dtype.scale == 2
        assert product.eval(Batch(columns={}, n=1)).values.tolist() == [300]
        expr = make_arith("+", Literal(150, hundredths), Literal(2, INTEGER))
        assert expr.dtype.scale == 2
        assert expr.eval(Batch(columns={}, n=1)).values.tolist() == [350]
        assert expr.eval_row({}) == 350
        flipped = make_arith("-", Literal(2, INTEGER), Literal(150, hundredths))
        assert flipped.eval(Batch(columns={}, n=1)).values.tolist() == [50]

    def test_align_for_compare_leaves_a_string_side_alone(self):
        # boolean@src/repro/engine/expression.py:294:7 survived: with the
        # guard weakened to "both sides are object arrays", a string column
        # against a numeric one is pushed through ``astype(float64)``.
        from repro.engine.expression import _align_for_compare

        strings = ColumnVector(varchar_type(4), np.array(["a", "b"], dtype=object), None)
        ints = ColumnVector(BIGINT, np.array([1, 2], dtype=np.int64), None)
        for lv, rv in ((strings, ints), (ints, strings)):
            left, right = _align_for_compare(lv, rv)
            assert left is lv.values and right is rv.values

    def test_decimal_operands_already_at_the_target_scale_are_not_recast(self):
        # boundary@src/repro/engine/expression.py:800:11 survived: ``<=``
        # wraps an operand that already has the target scale in a Cast that
        # shifts by nothing and re-declares its precision.
        from repro.engine.expression import _align_decimals

        hundredths, tenths = decimal_type(8, 2), decimal_type(5, 1)
        wide, narrow = Literal(150, hundredths), Literal(25, tenths)
        left, right, result = _align_decimals("+", wide, narrow, DOUBLE)
        assert left is wide and isinstance(right, Cast) and result.scale == 2
        left, right, _ = _align_decimals("-", narrow, wide, DOUBLE)
        assert right is wide and isinstance(left, Cast)

    def test_like_escape_character_at_the_end_of_the_pattern_is_literal(self):
        # boundary@src/repro/engine/expression.py:511:39 survived: with the
        # bound relaxed a trailing escape character reads one past the
        # pattern's end instead of matching itself.
        like = Like(col("s", varchar_type(4)), "a!", escape="!")
        assert like.eval_row({"s": "a!"}) == 1
        assert like.eval_row({"s": "a"}) == 0

    def test_in_list_row_form_is_unknown_only_for_a_miss_beside_a_null(self):
        # boolean@src/repro/engine/expression.py:466:11 survived: the row
        # form's three-valued rule — a NULL item makes a *miss* unknown, a
        # hit stays a hit — is invisible while only the vector form runs.
        for negated in (False, True):
            beside_null = InList(col("a"), [1, None], negated=negated)
            assert beside_null.eval_row({"a": 1}) == int(not negated)
            assert beside_null.eval_row({"a": 2}) is None
            assert beside_null.eval_row({"a": None}) is None
            plain = InList(col("a"), [1, 4], negated=negated)
            assert plain.eval_row({"a": 4}) == int(not negated)
            assert plain.eval_row({"a": 2}) == int(negated)


class TestVectorisedBoundaryCast:
    """The boundary path of ``_cast_physical`` converts each distinct raw
    value once and gathers; ``_cast_physical_scalar`` applied row by row is
    the reference, for the values and for which error is raised."""

    _STRINGS = [
        "a", "ab ", "abc   ", "abcdefgh", "", " 12 ", "7", "-3.5", "1e2",
        "99999999999999999999", "2017-04-19", "2017-13-40", "x1",
    ]
    _SOURCES = {
        "string": (varchar_type(24), object, _STRINGS),
        "char": (char_type(4), object, ["a   ", "ab  ", "12  ", "    "]),
        "int": (INTEGER, np.int64, [0, 7, -12, 123456, 2**31 - 1]),
        "bigint": (BIGINT, np.int64, [0, 100000, -5000000000, 2**63 - 1, -(2**63)]),
        "double": (DOUBLE, np.float64, [0.0, -0.0, 1.5, -2.25, 1e20, 1e30, -1e300,
                                        float("nan"), float("inf"), float("-inf")]),
        "date": (DATE, np.int64, [0, 17275, -1, 20000]),
        "decimal": (decimal_type(8, 2), np.int64, [0, 150, 249, -250, -275, 99999999]),
    }
    _STRING_TARGETS = [varchar_type(3), varchar_type(12), char_type(2), char_type(6)]
    _OTHER_TARGETS = [INTEGER, BIGINT, DOUBLE, decimal_type(8, 2), DATE, BOOLEAN, SMALLINT]

    @staticmethod
    def _reference(values, from_dt, to_dt, nulls):
        from repro.engine.expression import _cast_physical_scalar

        target = to_dt.numpy_dtype
        out = np.empty(values.size, dtype=target)
        for i, (raw, null) in enumerate(zip(values.tolist(), nulls.tolist())):
            if null:
                out[i] = "" if target == object else 0
            else:
                out[i] = _cast_physical_scalar(raw, from_dt, to_dt, 0)
        return out

    @st.composite
    def _cases(draw, sources=_SOURCES, string_targets=_STRING_TARGETS,
               other_targets=_OTHER_TARGETS):
        """``(source, to_dt, picks, null_bits)``: one column to cast."""
        source = draw(st.sampled_from(sorted(sources)))
        from_dt, np_dtype, pool = sources[source]
        numeric = np_dtype == object or from_dt.is_numeric
        targets = string_targets + (other_targets if numeric else [])
        to_dt = draw(st.sampled_from(targets))
        picks = draw(st.lists(st.sampled_from(pool), max_size=40))
        null_bits = draw(
            st.lists(st.booleans(), min_size=len(picks), max_size=len(picks))
        )
        return source, to_dt, picks, null_bits

    # A scaled DECIMAL that does not fit int64 used to escape as a raw
    # OverflowError from the reference and as whatever the *next* distinct
    # value raised from the vectorised path (hypothesis seeds 8 and 10).
    @example(case=("string", decimal_type(8, 2),
                   ["99999999999999999999", ""], [False, False]))
    @example(case=("string", decimal_type(8, 2),
                   ["99999999999999999999", "a"], [False, False]))
    # Numeric sources took the array path unchecked: DECIMAL 1.50 -> 150,
    # BIGINT past SMALLINT / INTEGER kept, 1e30 -> INT64_MIN.
    @example(case=("decimal", INTEGER, [150, 249, -250], [False, False, False]))
    @example(case=("bigint", SMALLINT, [0, 100000], [False, False]))
    @example(case=("double", INTEGER, [1.5, 1e30], [False, False]))
    @example(case=("double", decimal_type(8, 2), [1e30], [False]))
    @given(case=_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_cast_row_by_row(self, case):
        from repro.engine.expression import _cast_physical

        source, to_dt, picks, null_bits = case
        from_dt, np_dtype, _pool = self._SOURCES[source]
        values = np.empty(len(picks), dtype=np_dtype)
        values[:] = picks
        nulls = np.asarray(null_bits, dtype=bool)
        mask = nulls if nulls.any() else None
        try:
            expected = self._reference(values, from_dt, to_dt, nulls)
        except (ConversionError, ArithmeticError) as exc:  # decimal.InvalidOperation escapes cast_value
            with pytest.raises(type(exc)) as caught:
                _cast_physical(values, from_dt, to_dt, 0, mask)
            assert str(caught.value) == str(exc)
            return
        got = _cast_physical(values, from_dt, to_dt, 0, mask)
        assert got.dtype == expected.dtype
        assert [(type(v), v) for v in got.tolist()] == [
            (type(v), v) for v in expected.tolist()
        ]
        if got.dtype == np.float64:  # -0.0 == 0.0: compare the bits too
            assert got.tobytes() == expected.tobytes()

    def test_bad_value_raises_wherever_it_sits(self):
        from repro.engine.expression import _cast_physical

        for position in (0, 3, 7):
            values = np.array(["12"] * 8, dtype=object)
            values[position] = "twelve"
            with pytest.raises(ConversionError, match="'twelve'"):
                _cast_physical(values, varchar_type(8), DOUBLE, 0, None)
            values[position] = "much too long"
            with pytest.raises(ConversionError, match="too long"):
                _cast_physical(values, varchar_type(16), varchar_type(4), 0, None)
            # ... and not at all when the bad value sits under a NULL.
            nulls = np.zeros(8, dtype=bool)
            nulls[position] = True
            out = _cast_physical(values, varchar_type(16), varchar_type(4), 0, nulls)
            assert out.tolist() == ["12" if i != position else "" for i in range(8)]

    def test_first_bad_row_decides_the_error(self):
        from repro.engine.expression import _cast_physical

        values = np.array(["1", "zz", "1", "yy", "zz"], dtype=object)
        with pytest.raises(ConversionError, match="'zz'"):
            _cast_physical(values, varchar_type(4), DOUBLE, 0, None)
        with pytest.raises(ConversionError, match="'yy'"):
            _cast_physical(values[::-1][1:], varchar_type(4), DOUBLE, 0, None)

    def test_negative_zero_keeps_its_own_text(self):
        from repro.engine.expression import _cast_physical

        values = np.array([0.0, -0.0, 0.0, -0.0])
        out = _cast_physical(values, DOUBLE, varchar_type(8), 0, None)
        assert out[0] == out[2] and out[1] == out[3] and out[0] != out[1]
