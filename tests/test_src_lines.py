import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_MODULE = '''"""A module docstring
over two lines."""

import os  # a comment

__all__ = ["f", "C"]


def f(a, b=1, *, c=2, d):
    """A docstring."""
    return (a +
            b)


def g(x=0):
    return x


class C:
    """A docstring."""

    y = 1
'''


def test_count_of_a_synthetic_module():
    """Physical lines, code lines without docstrings, comments or blank
    lines (a statement over two lines counts twice), the two names of
    ``__all__`` and the defaults of the exported f alone (b and c; d has
    none and g is not exported)."""
    assert src_lines.count(_MODULE) == (22, 9, 2, 2)
    assert not src_lines.generated(_MODULE)
    assert src_lines.generated('"""Written by a tool; do not edit."""\n')
