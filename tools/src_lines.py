"""Line counts of a Python package, by kind, per module.

    python3 tools/src_lines.py [PACKAGE]      (default: the checkout's src/polywh)

Prints one row per module under PACKAGE (its `*.py` files, recursively,
sorted by path) and a total row.  The columns split each module's physical
lines into four kinds, which add up to the physical count:

- docstring: the lines of a module, class or function docstring (`ast`);
- code: the other lines that hold a token other than a comment (`tokenize`;
  every line of a multi-line string or bracket counts);
- comment: the other lines that hold a comment;
- blank: the rest.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("physical", "docstring", "code", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The COLUMNS counts of one module's source text."""
    physical = len(source.splitlines())
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    return {
        "physical": physical,
        "docstring": len(docstring),
        "code": len(code),
        "comment": len(comment),
        "blank": physical - len(docstring | code | comment),
    }


def table(package: Path) -> list[tuple[str, dict[str, int]]]:
    """(module path relative to the package, counts) per module, and the total last."""
    rows = [(path.relative_to(package).as_posix(), count(path.read_text()))
            for path in sorted(package.rglob("*.py"))]
    rows.append(("total", {key: sum(counts[key] for _, counts in rows) for key in COLUMNS}))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "polywh"
    parser.add_argument("package", nargs="?", default=default, type=Path)
    package = parser.parse_args(argv).package
    if not package.is_dir():
        parser.error(f"no package directory {package}")
    rows = table(package)
    width = max(len("module"), *(len(name) for name, _ in rows))
    print(f"{'module':<{width}}" + "".join(f"{key:>11}" for key in COLUMNS))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[key]:>11}" for key in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
