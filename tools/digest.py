"""SHA-256 digests of the numbers the package produces, for bit-identity.

Prints one ``label digest`` line per artifact:

- ``_assemble_matrices``, full and free (``data``, ``indices``,
  ``indptr`` and the index dtype), at n=8 P2 and P3, n=16 P2 and n=48
  P3 (labelled ``flip=none``, so that ``--against`` an older ref, whose
  digests also flipped normals by hand, compares them);
- ``consistency_pairing(form, phi)`` on the same spaces;
- the full and free matrices and the pairing on the same spaces built
  on the mesh with its triangles renumbered, in reverse order
  (``triangles=reversed``) and by a random permutation with seed 0
  (``triangles=seed 0``), each read back in the original DOF numbering;
- the outcome of ``ritz_projection(form, phi)`` on the same spaces:
  its coefficients, or the message and residual of the SolverError it
  raises (at n=48 P3, where its refinement stalls);
- the ``fem`` kernels at n=8 P2 and P3: ``assemble_h1_stiffness``, the
  ``term_tables`` of kind ``"load"`` of f and of kinds ``"grad load"``
  and ``"grad"`` of psi_exact, and ``h1_field_error`` of the Ritz
  projection of phi; and the MINI kernels at n=8: ``_mass``,
  ``_divergence``, ``_pressure_integrals`` and ``_velocity_loads`` of g;
- the ``dg_solve`` coefficients at n=8 P2 for r = 0, 1, 2 (data f,
  initial datum phi) on two non-uniform partitions: the nodes^2 grading
  of ``make_partition(10)`` and ``make_partition(8)`` refined by the
  nodes 5/16 and 3/8 (three runs of equal steps); and the
  ``mini_transient_solve`` velocities and pressures at n=8 under g on
  the grading for r = 0, 1, 2.  The mean-pressure multipliers of these
  runs are 0 up to roundoff (2e-15), so a digest of their bits would
  flip with any roundoff change: their line states instead whether
  their largest magnitude stays below ``MULTIPLIER_FLOOR`` (1e-12,
  against pressures of about 100), or else what it is;
- the three ``best_approx_terms(psi_exact, form, partition, r)`` at n=8
  P2 for r = 0, 1, 2 on ``make_partition(7)`` and on the nodes^2
  grading, which cover the time projection at r >= 1;
- the consumers of the time quadrature of the data, called directly:
  ``space_time_h1_error`` of psi_exact for each of the six ``dg_solve``
  runs above and for dG(0) on ``make_partition(1)`` and
  ``make_partition(7)`` (an empty and an odd half of the norm's split),
  ``velocity_error_l2`` of u_exact for the three MINI runs and for a
  dG(0) MINI run on ``make_partition(7)``,
  ``stability_data_norm`` of f on the grading and
  ``time_projection_values`` of psi_exact on the grading for
  r = 0, 1, 2, 3;
- the dG(r) time basis for r = 0, ..., 10, called directly:
  ``radau_points(r)``, ``TimeBasis(r).gram(da, db)`` for (da, db) =
  (0, 0), (1, 0) and (1, 1), ``TimeBasis(r).coupling()`` and the
  eigenvalues and the v and w rows of ``time_modes(r)``;
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
from streamfem.cip import (CipForm, _assemble_matrices,  # noqa: E402
                           assemble_cip, consistency_pairing,
                           default_penalty, ritz_projection)
from streamfem.dg_time import (TimeBasis, TimePartition,  # noqa: E402
                               best_approx_terms, dg_solve, make_partition,
                               radau_points, stability_data_norm,
                               time_modes, time_projection_values)
from streamfem.fem import (assemble_h1_stiffness, build_space,  # noqa: E402
                           h1_field_error, space_time_h1_error, term_tables)
from streamfem.linalg import SolverError  # noqa: E402
from streamfem.mesh import Mesh, build_structured_mesh  # noqa: E402
from streamfem.mini_stokes import (_divergence, _mass,  # noqa: E402
                                   _pressure_integrals, _velocity_loads,
                                   build_mini_space, mini_transient_solve,
                                   velocity_error_l2)

SPACES = ((8, 2), (8, 3), (16, 2), (48, 3))
# bound on the largest |multiplier| of a MINI run that its line accepts
MULTIPLIER_FLOOR = 1e-12
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


def renumbered_lines(space, tag):
    """Digest lines of the matrices and the pairing on ``space``'s mesh
    with its triangles renumbered, read back in ``space``'s DOFs."""
    mesh = space.mesh
    n_tris = mesh.num_triangles
    eta = default_penalty(space.degree)
    for name, order in (("reversed", np.arange(n_tris)[::-1]),
                        ("seed 0", np.random.default_rng(0).permutation(
                            n_tris))):
        other = build_space(Mesh(mesh.vertices, mesh.triangles[order]),
                            space.degree)
        new = np.empty(space.n_dofs, dtype=np.int64)
        new[space.dof_map[order]] = other.dof_map
        full, free = _assemble_matrices(other, eta)
        label = f"{tag} triangles={name}"
        full = full[new][:, new]
        yield f"matrix full {label}", _csr_digest(full)
        yield (f"matrix free {label}", _csr_digest(
            full[space.free_dofs][:, space.free_dofs]))
        # the pairing reads the form's space alone, so it needs no factor
        pairing = consistency_pairing(CipForm(other, eta, free), mf.phi())
        yield f"pairing {label}", _digest(pairing[new])
        del full, free


def _ritz_outcome(form):
    """Digest of the Ritz coefficients of phi, or of the message and the
    residual of the SolverError the solve raises."""
    try:
        return _digest(ritz_projection(form, mf.phi()).coefficients)
    except SolverError as exc:
        return _digest(str(exc).encode(), np.float64(exc.residual))


def numeric_lines():
    """Digest lines of the matrices, pairings and Ritz projections."""
    for n, degree in SPACES:
        space = build_space(build_structured_mesh(n), degree)
        full, free = _assemble_matrices(space, default_penalty(degree))
        yield f"matrix full n={n} P{degree} flip=none", _csr_digest(full)
        yield f"matrix free n={n} P{degree} flip=none", _csr_digest(free)
        del full, free
        tag = f"n={n} P{degree}"
        yield from renumbered_lines(space, tag)
        form = assemble_cip(space)
        yield f"pairing {tag}", _digest(consistency_pairing(form, mf.phi()))
        yield f"ritz {tag}", _ritz_outcome(form)


def kernel_lines():
    """Digest lines of the ``fem`` and MINI kernels, called directly."""
    for degree in (2, 3):
        space = build_space(build_structured_mesh(8), degree)
        tag = f"n=8 P{degree}"
        yield f"h1 stiffness {tag}", _csr_digest(assemble_h1_stiffness(space))
        for fld, kind in ((mf.f_scalar(), "load"),
                          (mf.psi_exact(), "grad load"),
                          (mf.psi_exact(), "grad")):
            yield (f"term_tables {kind} {tag}",
                   _digest(term_tables(space, fld, kind)))
        ritz = ritz_projection(assemble_cip(space), mf.phi()).coefficients
        yield (f"h1_field_error ritz {tag}",
               _digest(np.float64(h1_field_error(space, ritz, mf.phi()))))
    mini = build_mini_space(build_structured_mesh(8))
    yield "mini _mass n=8", _csr_digest(_mass(mini))
    yield "mini _divergence n=8", _csr_digest(_divergence(mini))
    yield "mini _pressure_integrals n=8", _digest(_pressure_integrals(mini))
    yield ("mini _velocity_loads n=8",
           _digest(_velocity_loads(mini, mf.g_field())))


def transient_lines():
    """Digest lines of the transient solves on non-uniform partitions, of
    their space-time errors and of the other time-quadrature consumers."""
    mesh = build_structured_mesh(8)
    form = assemble_cip(build_space(mesh, 2))
    graded = TimePartition(make_partition(10).nodes ** 2)
    refined = TimePartition(np.union1d(make_partition(8).nodes,
                                       [5 / 16, 3 / 8]))
    for name, partition in (("graded", graded), ("refined", refined)):
        for order in (0, 1, 2):
            sol = dg_solve(form, partition, order, f=mf.f_scalar(),
                           psi0=mf.phi())
            yield (f"dg_solve n=8 P2 r={order} {name}",
                   _digest(sol.coefficients))
            yield (f"space_time_h1_error n=8 P2 r={order} {name}",
                   _digest(np.float64(space_time_h1_error(
                       sol, mf.psi_exact()))))
    # the split of the space-time norm in two halves: an empty half (M=1)
    # and unequal halves (M=7)
    for steps in (1, 7):
        sol = dg_solve(form, make_partition(steps), 0, f=mf.f_scalar(),
                       psi0=mf.phi())
        yield (f"space_time_h1_error n=8 P2 r=0 M={steps}",
               _digest(np.float64(space_time_h1_error(sol,
                                                      mf.psi_exact()))))
    mini = build_mini_space(mesh)
    for order in (0, 1, 2):
        sol = mini_transient_solve(mini, graded, order, mf.g_field())
        tag = f" r={order}" if order else ""
        yield (f"mini velocities pressures n=8{tag} graded",
               _digest(sol.velocities, sol.pressures))
        largest = np.abs(sol.multipliers).max()
        yield (f"mini multipliers n=8{tag} graded",
               f"max |lambda| < {MULTIPLIER_FLOOR:.0e}"
               if largest < MULTIPLIER_FLOOR else
               f"max |lambda| = {largest:.3e}, not < {MULTIPLIER_FLOOR:.0e}")
        yield (f"velocity_error_l2 mini n=8{tag} graded",
               _digest(np.float64(velocity_error_l2(sol, mf.u_exact()))))
    sol = mini_transient_solve(mini, make_partition(7), 0, mf.g_field())
    yield ("velocity_error_l2 mini n=8 M=7",
           _digest(np.float64(velocity_error_l2(sol, mf.u_exact()))))
    yield ("stability_data_norm n=8 P2 graded",
           _digest(np.float64(stability_data_norm(form, mf.f_scalar(),
                                                  graded))))
    for order in range(4):
        yield (f"time_projection_values r={order} graded",
               _digest(time_projection_values(order, graded,
                                              mf.psi_exact())))
    for name, partition in (("uniform", make_partition(7)),
                            ("graded", graded)):
        for order in (0, 1, 2):
            yield (f"best_approx_terms n=8 P2 r={order} {name}",
                   _digest(np.array(best_approx_terms(
                       mf.psi_exact(), form, partition, order))))


def basis_lines():
    """Digest lines of the dG(r) time basis, so that a change to it shows
    without going through a solve."""
    for order in range(11):
        basis = TimeBasis(order)
        yield f"radau_points r={order}", _digest(radau_points(order))
        for da, db in ((0, 0), (1, 0), (1, 1)):
            yield (f"TimeBasis gram da={da} db={db} r={order}",
                   _digest(basis.gram(da, db)))
        yield f"TimeBasis coupling r={order}", _digest(basis.coupling())
        yield f"time_modes r={order}", _digest(
            *(part for mode in time_modes(order) for part in mode))


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
    for label, digest in (*numeric_lines(), *kernel_lines(),
                          *transient_lines(), *basis_lines(),
                          *study_lines()):
        if before is None:
            print(f"{label}: {digest}", flush=True)
        elif before.pop(label, None) != digest:
            differ.append(label)
    for label in differ + sorted(before or ()):
        print(label)
    return 1 if differ or before else 0


if __name__ == "__main__":
    sys.exit(main())
