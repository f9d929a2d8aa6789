"""Line counts of the package source, per file and in total.

Prints two counts for every ``src/streamfem/*.py``:

- ``lines``: physical lines, as ``wc -l`` counts them;
- ``code``: lines on which a token other than a comment, NL, NEWLINE,
  INDENT, DEDENT or ENDMARKER starts or which it spans, with docstrings
  excluded (the leading string statement of a module, class or function
  body, found with ``ast``); the tokens come from ``tokenize``.

Run from anywhere: ``python tools/src_lines.py``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "streamfem"

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text):
    """(physical lines, code lines) of one source text."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs)


def main():
    total = [0, 0]
    print(f"{'file':<20} {'lines':>6} {'code':>6}")
    for path in sorted(SOURCE.glob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
