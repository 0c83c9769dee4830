"""Regenerate ``tests/data/lexer_golden.jsonl`` from a checkout's SQL front end.

The golden file pins what the front end produces for every statement text
the repo ships: tokens with line/column (or the lexical error and where),
both normal forms, cacheability and a checksum of the parsed AST.  It was
generated from the hand-written character-loop lexer that preceded the
regex tokenizer; regenerate it only from a commit whose behaviour is the
reference, by putting *that* checkout first on the path::

    PYTHONPATH=/path/to/reference/src python tests/make_lexer_golden.py

``tests/test_sql_lexer_parser.py::TestGoldenCorpus`` replays the file.
"""

from __future__ import annotations

import ast as pyast
import json
import random
import zlib
from pathlib import Path

from repro.errors import SQLError
from repro.serving.normalize import normalize, parameterize, statement_key
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_statements
from repro.workloads import BDINSIGHT_QUERIES, TPCDS_QUERIES
from repro.workloads.customer import CustomerWorkload

HERE = Path(__file__).parent
GOLDEN = HERE / "data" / "lexer_golden.jsonl"

#: Lexically nasty fragments; random concatenations of them join the corpus.
FUZZ_ATOMS = [
    "a", "B", "_", "x1", "$", "#", "1", "23", ".", "e", "E", "+", "-", "*", "/",
    "'", '"', "''", '""', " ", "\n", "\t", "\r", "--", "/*", "*/", "(", ")", "(+)",
    "<", ">", "=", "!", ":", "|", "||", "<=", "<>", "!=", "::", ",", ";", "?", "[",
    "]", "%", "é", "٣", "\x0c", "@", "select", "1e5", "1.", ".5", "1.2.3", "e+",
]


def corpus() -> list[str]:
    """Every statement text the repo ships, plus seeded lexical fuzz."""
    texts = {sql for _name, sql in TPCDS_QUERIES + BDINSIGHT_QUERIES}
    workload = CustomerWorkload(seed=7)
    texts.update(workload.base_ddl())
    texts.update(s.sql for s in workload.statements())
    texts.update(workload.long_tail_pool())
    for name in ("test_dialects.py", "test_sql_edges.py"):
        tree = pyast.parse((HERE / name).read_text())
        texts.update(
            node.value
            for node in pyast.walk(tree)
            if isinstance(node, pyast.Constant) and isinstance(node.value, str)
        )
    rng = random.Random(16)
    for _ in range(600):
        texts.add("".join(rng.choices(FUZZ_ATOMS, k=rng.randint(1, 14))))
    return sorted(texts)


def _outcome(fn, text):
    """``fn(text)``, or the SQL error it raises with its position."""
    try:
        return fn(text)
    except SQLError as exc:
        return {
            "error": str(exc),
            "line": getattr(exc, "line", None),
            "column": getattr(exc, "column", None),
        }


def describe(text: str) -> dict:
    """What the front end on the path makes of *text*."""
    key = statement_key(text)
    return {
        "sql": text,
        "tokens": _outcome(
            lambda t: [[k.kind, k.value, k.line, k.column] for k in tokenize(t)], text
        ),
        "normal": _outcome(normalize, text),
        "template": _outcome(lambda t: parameterize(t)[0], text),
        "cacheable": key is not None and getattr(key, "bypass", None) is None,
        "ast": _outcome(lambda t: zlib.crc32(repr(parse_statements(t)).encode()), text),
    }


def main() -> None:
    entries = [describe(text) for text in corpus()]
    with GOLDEN.open("w") as out:
        for entry in entries:
            out.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print("wrote %d entries to %s" % (len(entries), GOLDEN))


if __name__ == "__main__":
    main()
