"""Write ``src/streamfem/gauss_table.py``, the Gauss rules of ``quadrature``.

The module holds, for n = 1, ..., 16, the roots and weights on [-1, 1]
that ``scipy.special.roots_legendre(n)`` and ``roots_jacobi(n, 1.0, 0.0)``
return, each float64 written by ``repr``, which reads back to the same
bits.  So ``streamfem`` gets scipy's rules without importing
``scipy.special``.

Run from anywhere: ``python tools/gauss_table.py`` writes the module.
``tests/test_quadrature.py`` checks every entry against the installed
scipy.special bit for bit.
"""

import textwrap
from pathlib import Path

from scipy.special import roots_jacobi, roots_legendre

TABLE = (Path(__file__).resolve().parent.parent / "src" / "streamfem"
         / "gauss_table.py")

LARGEST = 16

HEADER = f'''\
"""Gauss-Legendre and Gauss-Jacobi (1, 0) rules on [-1, 1], n <= {LARGEST}.

Written by ``python tools/gauss_table.py``; do not edit.  ``LEGENDRE[n]``
and ``JACOBI[n]`` are the (roots, weights) that
``scipy.special.roots_legendre(n)`` and ``roots_jacobi(n, 1.0, 0.0)``
return, each float64 written by ``repr``, which reads back to the same
bits.
"""

__all__ = ["LEGENDRE", "JACOBI"]
'''


def _tuple(values):
    """A tuple literal of ``values``, wrapped at 79 columns, 8 indented."""
    body = ", ".join(repr(float(v)) for v in values)
    if len(values) == 1:
        body += ","
    return textwrap.fill(f"({body}),", width=79, initial_indent=" " * 8,
                         subsequent_indent=" " * 9, break_long_words=False,
                         break_on_hyphens=False)


def render():
    """The text of the table module for the installed scipy."""
    parts = [HEADER]
    for name, rule in (("LEGENDRE", roots_legendre),
                       ("JACOBI", lambda n: roots_jacobi(n, 1.0, 0.0))):
        parts.append(f"\n{name} = {{\n")
        for n in range(1, LARGEST + 1):
            roots, weights = rule(n)
            parts.append(f"    {n}: (\n{_tuple(roots)}\n"
                         f"{_tuple(weights)}\n    ),\n")
        parts.append("}\n")
    return "".join(parts)


if __name__ == "__main__":
    TABLE.write_text(render())
