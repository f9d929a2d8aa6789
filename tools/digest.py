"""SHA-256 digests of the numbers the package produces, for bit-identity.

Prints one ``label digest`` line per artifact:

- ``_assemble_matrices``, full and free (``data``, ``indices``,
  ``indptr`` and the index dtype), at n=8 P2 and P3, n=16 P2 and n=48
  P3, with the normals of no edge, of a random half (seed 0) and of
  every edge flipped;
- ``consistency_pairing(form, phi)`` on the same spaces;
- the ``ritz_projection(form, phi)`` coefficients at n <= 16;
- the CSVs, summaries and stdout of the default ``stationary``,
  ``converge-k``, ``converge-h``, ``compare-mini``, ``diagnostics`` and
  ``converge-k --method mini`` studies, each run in a temporary
  directory.

Run from anywhere: ``python tools/digest.py``.  With ``--against REF``
it extracts the git ref REF with ``git archive`` into a temporary
directory, runs REF's own ``tools/digest.py`` there and prints only the
labels whose digests differ between REF and the working tree (a label
missing on one side differs); it exits 1 when any label differs.  That
checks that a change left every one of these bit-identical.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from streamfem import manufactured as mf  # noqa: E402
from streamfem.cip import (_assemble_matrices, assemble_cip,  # noqa: E402
                           consistency_pairing, default_penalty,
                           ritz_projection)
from streamfem.fem import build_space  # noqa: E402
from streamfem.mesh import build_structured_mesh  # noqa: E402

SPACES = ((8, 2), (8, 3), (16, 2), (48, 3))
STUDIES = (("stationary",), ("converge-k",), ("converge-h",),
           ("compare-mini",), ("diagnostics",),
           ("converge-k", "--method", "mini"))


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _csr_digest(mat):
    return _digest(mat.data, mat.indices, mat.indptr,
                   str(mat.indices.dtype).encode())


def numeric_lines():
    """Digest lines of the matrices, pairings and Ritz projections."""
    for n, degree in SPACES:
        space = build_space(build_structured_mesh(n), degree)
        n_edges = space.mesh.num_edges
        flips = {"none": None,
                 "random": np.random.default_rng(0).random(n_edges) < 0.5,
                 "all": np.ones(n_edges, dtype=bool)}
        for name, flip in flips.items():
            full, free = _assemble_matrices(
                space, default_penalty(degree), flip)
            tag = f"n={n} P{degree} flip={name}"
            yield f"matrix full {tag}", _csr_digest(full)
            yield f"matrix free {tag}", _csr_digest(free)
            del full, free
        form = assemble_cip(space)
        tag = f"n={n} P{degree}"
        yield f"pairing {tag}", _digest(consistency_pairing(form, mf.phi()))
        if n <= 16:
            yield (f"ritz {tag}",
                   _digest(ritz_projection(form, mf.phi()).coefficients))


def study_lines():
    """Digest lines of the outputs of the default studies."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in STUDIES:
        label = " ".join(argv)
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run(
                [sys.executable, "-m", "streamfem.cli", *argv], cwd=tmp,
                env=env, capture_output=True)
            yield f"study {label} exit", str(done.returncode)
            yield f"study {label} stdout", _digest(done.stdout)
            for path in sorted(Path(tmp).iterdir()):
                yield f"study {label} {path.name}", _digest(path.read_bytes())


def _digests_at(ref):
    """{label: digest} printed by the ``tools/digest.py`` of git ref REF."""
    def run(*cmd, **kwargs):
        done = subprocess.run(cmd, capture_output=True, **kwargs)
        if done.returncode:
            sys.exit(f"digest: {done.stderr.decode().strip()}")
        return done.stdout

    with tempfile.TemporaryDirectory() as tmp:
        run("tar", "-x", "-C", tmp,
            input=run("git", "archive", ref, cwd=ROOT))
        out = run(sys.executable, str(Path(tmp) / "tools" / "digest.py"))
    return dict(line.rsplit(": ", 1) for line in out.decode().splitlines())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REF",
                        help="print only the labels whose digests differ "
                             "at REF")
    args = parser.parse_args(argv)
    before = _digests_at(args.against) if args.against else None
    differ = []
    for label, digest in (*numeric_lines(), *study_lines()):
        if before is None:
            print(f"{label}: {digest}", flush=True)
        elif before.pop(label, None) != digest:
            differ.append(label)
    for label in differ + sorted(before or ()):
        print(label)
    return 1 if differ or before else 0


if __name__ == "__main__":
    sys.exit(main())
