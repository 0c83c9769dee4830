"""SQL tokenizer: one compiled master pattern, one ``match()`` per token.

Handles identifiers (plain and double-quoted), numeric and string literals,
single-line (``--``) and block (``/* */``) comments, multi-character
operators (``<=``, ``<>``, ``!=``, ``::``, ``||``), and Oracle's ``(+)``
outer-join marker as a single token.

Each match consumes the noise (whitespace and comments) in front of a token
and the token itself; the per-character work runs in the ``re`` engine.  The
pattern has no backtracking ambiguity: every noise and literal rule matches
exactly one way, and ``-``/``/`` refuse to match where a comment starts, so
a failed match can only mean a lexical error, which :func:`_error` names.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SQLSyntaxError

# Token kinds.
IDENT = "IDENT"
QIDENT = "QIDENT"  # "Quoted Identifier" — case preserved
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
EOF = "EOF"


class Token(NamedTuple):
    """One immutable token; shared by the cache key and the parser.

    ``key`` is the pre-folded spelling keyword and operator tests compare
    against: the upper-cased word of an IDENT, the operator of an OP, None
    for literals, quoted identifiers and EOF (which are never keywords).
    """

    kind: str
    value: str
    key: str | None
    offset: int  # character offset of the token in ``text``
    text: str  # the statement text (for line/column, derived on demand)

    @property
    def line(self) -> int:
        return self.text.count("\n", 0, self.offset) + 1

    @property
    def column(self) -> int:
        return self.offset - self.text.rfind("\n", 0, self.offset)

    def __repr__(self) -> str:
        return "Token(%s, %r)" % (self.kind, self.value)


_NOISE = r"(?:[ \t\r\n]+|--[^\n]*(?=\n|\Z)|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
_MASTER = re.compile(
    _NOISE
    + r"""(?:
      (?P<IDENT>[A-Za-z_][\w$#]*)
    | (?P<NUMBER>(?:\d+(?:\.(?=\d|\Z)\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<STRING>'[^']*(?:''[^']*)*'(?!'))
    | (?P<QIDENT>"[^"]*(?:""[^"]*)*"(?!"))
    | (?P<OP>\(\+\)|<=|>=|<>|!=|::|\|\||\*\*|-(?!-)|/(?!\*)|[+*%(),.;<>=?\[\]:])
    | (?P<EOF>\Z)
    | (?P<WORD>[^\W\d][\w$#]*)  # non-ASCII start: isalpha() decides below
    )""",
    re.VERBOSE,
)
_NOISE_ONLY = re.compile(_NOISE)


def _error(text: str, pos: int) -> SQLSyntaxError:
    """The lexical error at the first non-noise character from *pos*."""
    at = _NOISE_ONLY.match(text, pos).end()
    message = "unexpected character %r" % text[at]
    for opener, what in (
        ("'", "string literal"),
        ('"', "quoted identifier"),
        ("/*", "block comment"),
    ):
        if text.startswith(opener, at):
            # An unterminated construct runs to the end of the text.
            message, at = "unterminated " + what, len(text)
    edge = Token(EOF, "", None, at, text)
    return SQLSyntaxError(message, line=edge.line, column=edge.column)


def tokenize(text: str) -> tuple[Token, ...]:
    """Tokenise one SQL string; the tuple ends with an EOF token."""
    out = []
    append = out.append
    new = tuple.__new__
    match = _MASTER.match
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:
            raise _error(text, pos)
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.end()
        offset = pos - len(value)
        if kind == IDENT:
            key = value.upper()
        elif kind == OP:
            key = value
        elif kind == NUMBER:
            key = None
        elif kind == STRING:
            key, value = None, value[1:-1].replace("''", "'")
        elif kind == QIDENT:
            key, value = None, value[1:-1].replace('""', '"')
        elif kind == EOF:
            append(new(Token, (EOF, "", None, offset, text)))
            return tuple(out)
        elif value[0].isalpha():  # WORD
            kind, key = IDENT, value.upper()
        else:  # "²x": a numeric that is neither a letter nor a decimal digit
            raise _error(text, offset)
        append(new(Token, (kind, value, key, offset, text)))
