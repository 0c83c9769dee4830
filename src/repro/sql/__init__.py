"""SQL front end: lexer, parser, dialects, functions, binder, planner."""

from repro.sql.dialects import DIALECTS, Dialect
from repro.sql.lexer import Token, tokenize
from repro.sql.parser import parse_statement, parse_statements

__all__ = [
    "DIALECTS",
    "Dialect",
    "Token",
    "parse_statement",
    "parse_statements",
    "tokenize",
]
