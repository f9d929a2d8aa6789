"""The four benchmark workloads and the correctness gate on their rows.

Each workload runs the levels of one ``streamfem.cli`` study through the
same public calls and arguments as the matching CLI function.  The work
is split at the end of set-up: importing ``streamfem`` and building the
first level's mesh, space and CIP form.  Every level runs on its own, so
a level that raises is recorded and the next level still runs.

Calls go through the module attributes (``dg_time.dg_solve``, not a name
bound at import), so the tracer in ``spans.py`` sees them when installed.
"""

import json
import math
import traceback
from pathlib import Path

from streamfem import cip, cli, dg_time, fem, mesh
from streamfem import manufactured as mf

REFERENCE_PATH = Path(__file__).with_name("reference.json")

END_TIME = 1.0

# values of the diagnostics summary file that describe the solution; the
# check values next to them are roundoff-sized or are the seed defects a
# later change is meant to move, so they are counted, not pinned
DIAGNOSTICS_KEYS = ("total_error", "E_chi", "E_Rh", "E_pik", "S1", "S2",
                    "S3", "data_norm_sq")


class Workload:
    """A set-up step and a list of (label, level) pairs.

    ``setup()`` returns the state every level receives.  A level returns
    its output row as a dict of named floats; a level that runs the
    documented checks appends (name, value, tolerance, ok) tuples to
    ``state["checks"]``.
    """

    def __init__(self, name, setup, levels):
        self.name = name
        self.setup = setup
        self.levels = levels


def _converge_k(name, degree, dg_order, n, steps_list):
    """``cli.converge_k`` for the stream-function method: one assembly."""

    def setup():
        space = fem.build_space(mesh.build_structured_mesh(n), degree)
        return {"form": cip.assemble_cip(space, None), "rhs": mf.f_scalar(),
                "psi": mf.psi_exact()}

    def level(m_steps):
        def run(state):
            partition = dg_time.make_partition(m_steps, END_TIME)
            sol = dg_time.dg_solve(state["form"], partition, dg_order,
                                   f=state["rhs"], psi0=None)
            return {"k": END_TIME / m_steps,
                    "error": float(fem.space_time_h1_error(sol,
                                                           state["psi"]))}
        return f"M={m_steps}", run

    return Workload(name, setup, [level(m) for m in steps_list])


def _stationary(name, degree, mesh_list):
    """``cli.stationary_study``: one assembly and Ritz solve per mesh."""

    def build(n):
        space = fem.build_space(mesh.build_structured_mesh(n), degree)
        return space, cip.assemble_cip(space, None)

    def setup():
        return {"built": {mesh_list[0]: build(mesh_list[0])},
                "phi": mf.phi()}

    def level(n):
        def run(state):
            built = state["built"].pop(n, None)
            space, form = built if built is not None else build(n)
            proj = cip.ritz_projection(form, state["phi"])
            return {"h": math.sqrt(2.0) / n,
                    "error": float(fem.h1_field_error(
                        space, proj.coefficients, state["phi"]))}
        return f"n={n}", run

    return Workload(name, setup, [level(n) for n in mesh_list])


def _diagnostics(name, out_dir):
    """``cli.diagnostics`` at its shipped defaults (P2, n=16, M=32).

    The CLI function builds its own mesh, space and form; set-up builds
    the same ones first so that set-up means the same on every workload.
    """

    def setup():
        space = fem.build_space(mesh.build_structured_mesh(16), 2)
        cip.assemble_cip(space, None)
        return {"checks": []}

    def run(state):
        out = Path(out_dir) / "diagnostics.csv"
        cfg = cli.StudyConfig(mesh_list=(16,), steps_list=(32,),
                              out=str(out))
        report = cli.diagnostics(cfg)
        state["checks"].extend((str(label), float(value), float(tol),
                                bool(ok))
                               for label, value, tol, ok in report)
        summary = dict(line.split("=", 1) for line in
                       out.with_name(out.stem + "_summary.txt")
                       .read_text().splitlines())
        return {key: float(summary[key]) for key in DIAGNOSTICS_KEYS}

    return Workload(name, setup, [("n=16,M=32", run)])


def make(name, out_dir):
    """The workload called ``name``; ``out_dir`` receives CLI output files."""
    if name == "time-sweep":
        return _converge_k(name, 2, 0, 64, (8, 16, 32, 64))
    if name == "high-order":
        return _converge_k(name, 3, 2, 24, (8, 16))
    if name == "stationary-fine":
        return _stationary(name, 3, (16, 32, 48))
    if name == "diagnostics":
        return _diagnostics(name, out_dir)
    raise ValueError(f"unknown workload {name!r}")


def load_reference(path=REFERENCE_PATH):
    return json.loads(Path(path).read_text())


def gate(reference, workload, label, row):
    """Names of the row's values outside the pinned relative tolerance."""
    entry = reference[workload]
    pinned = entry["rows"][label]
    rtol = pinned.get("rtol", entry["rtol"])
    return [key for key, want in pinned["values"].items()
            if not abs(row.get(key, math.nan) - want) <= rtol * abs(want)]


def run_levels(workload, state, reference):
    """Run every level; a raise or a gate miss fails only that level."""
    results = []
    for label, run in workload.levels:
        try:
            row = run(state)
        except Exception as exc:  # a failing level must not stop the study
            results.append({"level": label, "status": "raised",
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": traceback.format_exc()})
            continue
        outside = gate(reference, workload.name, label, row)
        results.append({"level": label,
                        "status": "miss" if outside else "pass",
                        "row": row, "outside": outside})
    return results
