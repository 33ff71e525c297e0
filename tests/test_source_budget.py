"""Every module of polylin stays under 8192 parser tokens.

Compiling a module of more than 8192 tokens peaks about 0.5 MB higher
under CPython 3.11 (tracemalloc: 3.01 MB at 8192 tokens, 3.47 MB at
8193), where the parser's token array grows; a process that imports
polylin from source without cached bytecode pays it for each such module.
The parser's tokens are the `tokenize` tokens without ENCODING, COMMENT
and NL (comments and blank lines never reach it).
"""

import tokenize
from pathlib import Path

import pytest

import polylin

PARSER_TOKEN_ARRAY = 8192
MODULES = sorted(Path(polylin.__file__).parent.glob("*.py"))


def parser_tokens(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL))


def test_every_module_is_listed():
    assert {p.name for p in MODULES} >= {"exact.py", "poly.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_under_the_token_array(path):
    assert parser_tokens(path) < PARSER_TOKEN_ARRAY
