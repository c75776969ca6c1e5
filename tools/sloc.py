"""Code lines of each `src/kaf` module: docstrings, comments and blank lines excluded.

    python3 tools/sloc.py [SRC]

SRC is the package directory (default: src/kaf beside this script's parent).
Prints one `module lines` row per .py file, sorted by name, and a `total`
row. A line counts when it holds a token of code outside every docstring:
the string that opens a module, class or function body. A line that only
continues a code statement, such as a multi-line call's closing bracket,
counts; a string used as an expression elsewhere counts as code.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in `tree` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code outside its docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    src = argv[0] if argv else os.path.join(os.path.dirname(__file__), os.pardir, "src", "kaf")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            total += count
            print(f"{name[:-3]} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
