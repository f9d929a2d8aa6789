"""Line counts of the package source, per file and in total.

Prints three counts for every ``src/streamfem/*.py``:

- ``lines``: physical lines, as ``wc -l`` counts them;
- ``code``: lines on which a token other than a comment, NL, NEWLINE,
  INDENT, DEDENT or ENDMARKER starts or which it spans, with docstrings
  excluded (the leading string statement of a module, class or function
  body, found with ``ast``); the tokens come from ``tokenize``;
- ``defaults``: the parameters with a default of the module-level
  functions named in the module's ``__all__``, the settable values its
  public functions offer.

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


def _exported_defaults(tree):
    """Parameters with a default of the functions in ``__all__``."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in exported)


def count(text):
    """(physical lines, code lines, exported defaults) of one source text."""
    tree = ast.parse(text)
    docs = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs), _exported_defaults(tree)


def main():
    total = [0, 0, 0]
    print(f"{'file':<20} {'lines':>6} {'code':>6} {'defaults':>8}")
    for path in sorted(SOURCE.glob("*.py")):
        counts = count(path.read_text())
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:<20} {counts[0]:>6} {counts[1]:>6} {counts[2]:>8}")
    print(f"{'total':<20} {total[0]:>6} {total[1]:>6} {total[2]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
