"""SQL normalization for serving-layer cache keys.

The serving caches key on *normalized* statement text so that
dashboard-style repeats — same query, different whitespace, comments or
keyword casing — collapse onto one cache entry, while statements that
differ in any literal or identifier stay distinct (no false merges).

Two normal forms are produced from the repo's own lexer
(:mod:`repro.sql.lexer`), so normalization agrees with the parser about
token boundaries, comments and string escapes:

* :func:`normalize` — whitespace/case folding with literals preserved.
  This is the **result-cache** key: two statements with equal normal
  forms compute the same answer under the same snapshot.
* :func:`parameterize` — additionally replaces every NUMBER and STRING
  literal with ``?`` and returns the extracted parameters.  The template
  is the **prepared-plan** grouping key: point lookups that differ only
  in the bound constant share one plan shape.

:func:`statement_key` lexes the text **once** and classifies it: only pure
read statements (SELECT / WITH / VALUES) free of volatile expressions
(RAND, sequence access, CURRENT DATE/TIMESTAMP, ...) are cacheable —
everything else must reach the engine untouched, and the key names why
(:data:`BYPASS_REASONS`).  The key carries its tokens, so whoever parses
the statement next (:func:`repro.sql.parser.parse_statement`) does not lex
it again.  Given the engine's text memo, a read it has keyed before is not
lexed at all: a key is a pure function of the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SQLSyntaxError
from repro.sql import lexer

#: Functions/pseudocolumns whose value changes between executions even
#: against identical data: caching their results would be wrong.
VOLATILE_IDENTS = frozenset(
    {
        "RAND",
        "RANDOM",
        "SYSDATE",
        "NEXTVAL",
        "CURRVAL",
        "CURRENT_DATE",
        "CURRENT_TIMESTAMP",
        "CURRENT_TIME",
        "SYSTIMESTAMP",
        "NOW",
        "TODAY",
    }
)

#: ``CURRENT DATE`` / ``NEXT VALUE FOR s`` spellings (two-token forms).
_VOLATILE_PAIRS = frozenset(
    {
        ("CURRENT", "DATE"),
        ("CURRENT", "TIMESTAMP"),
        ("CURRENT", "TIME"),
        ("NEXT", "VALUE"),
        ("PREVIOUS", "VALUE"),
    }
)

#: Leading keywords of statements that read without mutating shared state.
_READ_VERBS = frozenset({"SELECT", "WITH", "VALUES"})


#: Why a statement goes around the caches (``StatementKey.bypass``).
BYPASS_REASONS = ("not-a-read", "volatile", "lex-error")


def _literal(token: lexer.Token, parameterized: bool) -> str:
    """Canonical spelling of a token that has no ``key``."""
    if token.kind == lexer.QIDENT:
        # Quoted identifiers are case-significant: keep them verbatim,
        # re-quoted so they can never merge with a plain identifier.
        return '"%s"' % token.value.replace('"', '""')
    if parameterized:
        return "?"
    if token.kind == lexer.NUMBER:
        return token.value
    return "'%s'" % token.value.replace("'", "''")  # STRING


def _normal_form(tokens: tuple[lexer.Token, ...], parameterized: bool) -> str:
    # An IDENT's key is its folded spelling, an OP's the operator itself;
    # the last token is EOF.
    return " ".join(
        [t.key or _literal(t, parameterized) for t in tokens[:-1]]
    )


def _params(tokens: tuple[lexer.Token, ...]) -> tuple:
    return tuple(
        t.value for t in tokens if t.kind in (lexer.NUMBER, lexer.STRING)
    )


def normalize(sql: str) -> str:
    """Whitespace/case-folded normal form with literals preserved.

    ``SELECT  balance from ACCOUNTS where acct_id=5 -- x`` and
    ``select balance FROM accounts WHERE acct_id = 5`` normalize
    identically; changing ``5`` to ``6`` (or ``'a'`` to ``'A'``) yields a
    distinct form.
    """
    return _normal_form(lexer.tokenize(sql), parameterized=False)


def parameterize(sql: str) -> tuple[str, tuple]:
    """``(template, params)``: literals replaced by ``?`` left-to-right."""
    tokens = lexer.tokenize(sql)
    return _normal_form(tokens, parameterized=True), _params(tokens)


def is_volatile(tokens: tuple[lexer.Token, ...]) -> bool:
    """Whether the token stream contains an execution-varying expression."""
    idents = [t.key for t in tokens if t.kind == lexer.IDENT]
    if not VOLATILE_IDENTS.isdisjoint(idents):
        return True
    return any(pair in _VOLATILE_PAIRS for pair in zip(idents, idents[1:]))


@dataclass(frozen=True)
class StatementKey:
    """One statement, lexed once: its tokens and its cache identity.

    Cacheable iff ``bypass`` is None; then ``text`` is the result-cache
    key and keys compare equal exactly when their normal forms do.
    """

    tokens: tuple[lexer.Token, ...] | None = field(compare=False)  # None: lex-error
    bypass: str | None  # one of BYPASS_REASONS, or None
    text: str | None  # literal-preserving normal form (None on bypass)

    @cached_property
    def template(self) -> str:
        """Parameterized normal form (plan grouping key)."""
        return _normal_form(self.tokens, parameterized=True)

    @property
    def params(self) -> tuple:
        return _params(self.tokens)

    @cached_property
    def slots(self) -> tuple[int, ...]:
        """Indexes into ``tokens`` of the NUMBER and STRING literals — the
        ``?`` of :attr:`template`, in order.  A literal's index is its slot:
        the same in every statement of one template."""
        return tuple(
            [
                index for index, token in enumerate(self.tokens)
                if token.kind in (lexer.NUMBER, lexer.STRING)
            ]
        )


def statement_key(sql: str, memo=None) -> StatementKey:
    """Lex *sql* and decide whether the caches may serve it.

    ``bypass`` says why not: not a pure read (any DML/DDL/CALL), contains
    a volatile expression, or does not even lex — the engine deals with it.

    *memo* is the engine's text memo
    (:class:`~repro.database.plancache.PlanCache`: ``recall(text)`` /
    ``remember(text, key)``).  A text it recalls is not lexed; a cacheable
    read is remembered.  Everything else is lexed every time: those texts
    repeat only when a workload replays its writes.
    """
    if memo is not None:
        key = memo.recall(sql)
        if key is not None:
            return key
    try:
        tokens = lexer.tokenize(sql)
    except SQLSyntaxError:
        return StatementKey(None, "lex-error", None)
    if tokens[0].key not in _READ_VERBS:
        return StatementKey(tokens, "not-a-read", None)
    if is_volatile(tokens):
        return StatementKey(tokens, "volatile", None)
    key = StatementKey(tokens, None, _normal_form(tokens, parameterized=False))
    if memo is not None:
        memo.remember(sql, key)
    return key
