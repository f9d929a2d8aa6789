"""Line counts of the package source, per file and in total.

Prints four counts for every ``src/streamfem/*.py``:

- ``lines``: physical lines, as ``wc -l`` counts them;
- ``code``: lines on which a token other than a comment, NL, NEWLINE,
  INDENT, DEDENT or ENDMARKER starts or which it spans, with docstrings
  excluded (the leading string statement of a module, class or function
  body, found with ``ast``); the tokens come from ``tokenize``;
- ``exports``: the names in the module's ``__all__``;
- ``defaults``: the parameters with a default of the module-level
  functions named in the module's ``__all__``, the settable values its
  public functions offer.

A module whose docstring says "do not edit" is written by a generator
(``gauss_table.py`` by ``tools/gauss_table.py``): it is table data, not
hand-written code, so it gets its own row below the total and is not
summed into it.

Run from anywhere: ``python tools/src_lines.py``.  With ``--against
REF`` it prints, per file and in total, the change of each count from
the git ref REF to the working tree instead; the text at REF is read
with ``git show REF:<path>``, and a file missing on either side counts
as 0.
"""

import argparse
import ast
import io
import subprocess
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


def _exports(tree):
    """The names in the ``__all__`` of a parsed module."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return exported


def _exported_defaults(tree, exported):
    """Parameters with a default of the functions named in ``exported``."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in exported)


def generated(text):
    """Whether a source text's module docstring marks it "do not edit"."""
    return "do not edit" in (ast.get_docstring(ast.parse(text)) or "")


def count(text):
    """(physical lines, code lines, exports, exported defaults) of one
    source text."""
    tree = ast.parse(text)
    docs = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    exported = _exports(tree)
    return (text.count("\n"), len(code - docs), len(exported),
            _exported_defaults(tree, exported))


def _at_ref(ref):
    """{file name: source text} of the package at a git ref."""
    root = SOURCE.parent.parent

    def git(*args):
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True)
        if done.returncode:
            sys.exit(f"src_lines: {done.stderr.strip()}")
        return done.stdout
    paths = git("ls-tree", "--name-only", ref, "--",
                SOURCE.relative_to(root).as_posix() + "/").split()
    return {Path(path).name: git("show", f"{ref}:{path}")
            for path in paths if path.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REF",
                        help="print the change of each count since REF")
    args = parser.parse_args(argv)
    texts = {path.name: path.read_text() for path in SOURCE.glob("*.py")}
    now = {name: count(text) for name, text in texts.items()}
    if args.against:
        texts_before = _at_ref(args.against)
        before = {name: count(text) for name, text in texts_before.items()}
        now = {name: tuple(a - b for a, b in
                           zip(now.get(name, (0,) * 4),
                               before.get(name, (0,) * 4)))
               for name in now.keys() | before.keys()}
        texts = {**texts_before, **texts}
    tables = {name for name, text in texts.items() if generated(text)}
    hand = sorted(item for item in now.items() if item[0] not in tables)
    total = tuple(map(sum, zip(*(counts for _, counts in hand))))
    sign = "+" if args.against else ""

    def row(name, counts):
        print(f"{name:<20} " + " ".join(f"{c:>{sign}{width}}" for c, width
                                        in zip(counts, (6, 6, 7, 8))))
    print(f"{'file':<20} {'lines':>6} {'code':>6} {'exports':>7} "
          f"{'defaults':>8}")
    for name, counts in hand + [("total", total)]:
        row(name, counts)
    if tables:
        print("generated, not in the total:")
    for name in sorted(tables):
        row(name, now[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
