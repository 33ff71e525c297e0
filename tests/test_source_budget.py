"""Every module of polylin stays under 8192 parser tokens, and every
module-level function or class in it is reached.

Compiling a module of more than 8192 tokens peaks about 0.5 MB higher
under CPython 3.11 (tracemalloc: 3.01 MB at 8192 tokens, 3.47 MB at
8193), where the parser's token array grows; a process that imports
polylin from source without cached bytecode pays it for each such module.
The parser's tokens are the `tokenize` tokens without ENCODING, COMMENT
and NL (comments and blank lines never reach it).

A function or class is reached when polylin's own code names it (a call,
an attribute, an import) or `bench/*.py` names it, as the tracer's
`GROUPS` do.  One that only the tests call belongs in the test tree.
"""

import ast
import re
import tokenize
from pathlib import Path

import pytest

import polylin

PARSER_TOKEN_ARRAY = 8192
MODULES = sorted(Path(polylin.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
# reached only from tests, kept on purpose
UNREACHED_ALLOWED = {
    # tests/test_acceptance.py has an acceptance criterion for it
    "degree_elevate",
}


def parser_tokens(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL))


def test_every_module_is_listed():
    assert {p.name for p in MODULES} >= {"exact.py", "poly.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_under_the_token_array(path):
    assert parser_tokens(path) < PARSER_TOKEN_ARRAY


def test_every_function_and_class_is_reached():
    defined, named = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert BENCH, "bench/*.py not found"
    bench = "\n".join(p.read_text(encoding="utf-8") for p in BENCH)
    unreached = {name for name in defined - named
                 if not re.search(rf"\b{re.escape(name)}\b", bench)}
    assert unreached == UNREACHED_ALLOWED
