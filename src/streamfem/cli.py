"""Experiment drivers: convergence sweeps, diagnostics and the mixed
versus stream-function comparison, with deterministic CSV output.

Each subcommand is one ``Study`` entry of ``STUDIES``: its runner, its
default refinement lists and output path, the list it fits a rate to,
the inputs it does not read, whether it runs the stream-function method
only and the paths it writes, derived from ``out``.  A refinement list
that is neither swept nor unread takes one entry.  Every runner returns
one ``Record``: the rows of each CSV and the entries of each summary
file, by path, the lines it prints and its checks.  ``main`` parses and
checks the inputs and output paths before any work, runs the study,
writes the record with the one writer ``_write``, prints its lines, then
every check as ``PASS|FAIL: name: value (tolerance tol)``, and, with
``--assert``, exits 1 when a check fails.

Every sweep writes one CSV per series (header ``k,error`` or
``h,error``, 12 significant digits) plus a key=value summary file with
the fitted rate (least-squares slope over the last three refinement
levels, or over both when a sweep has two; 6 significant digits, other
summary values keep 12), the number of levels fitted and, for the
stream-function method, the expected asymptotic rate.
"""

import argparse
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import manufactured as mf
from .cip import (_DEFAULT_PENALTY, CoercivityError, _assemble_matrices,
                  apply_Ah, assemble_cip, ritz_projection)
from .dg_time import (best_approx_terms, bh_analytic_functional, bh_dual,
                      bh_primal_functional, dg_solve, make_partition,
                      stability_data_norm, stability_functional)
from .fem import FeFunction, build_space, h1_field_error, space_time_h1_error
from .linalg import SolverError, largest_entry
from .mesh import Mesh, build_structured_mesh
from .mini_stokes import build_mini_space, mini_transient_solve, \
    velocity_error_l2

__all__ = ["StudyConfig", "Record", "Study", "STUDIES", "converge_k",
           "converge_h", "stationary_study", "diagnostics", "compare_mini",
           "fit_rate", "main"]

_RHS_CHOICES = ("g", "g_tilde", "f")


@dataclass
class StudyConfig:
    """Knobs shared by all studies."""

    method: str = "streamfct"          # a key of _ERRORS
    degree: int = 2
    dg_order: int = 0
    eta: float = None
    mesh_list: tuple = (4, 8, 16, 32)
    steps_list: tuple = (8, 16, 32, 64)
    rhs: str = "g"
    out: str = "study.csv"
    end_time: float = 1.0

    def __post_init__(self):
        if self.method not in _ERRORS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.rhs not in _RHS_CHOICES:
            raise ValueError(f"rhs must be one of {_RHS_CHOICES}")
        if self.method == "mini" and self.rhs == "f":
            raise ValueError("the mixed solver takes vector data g only")
        if not self.mesh_list or not self.steps_list:
            raise ValueError("refinement lists must be nonempty")
        # out-of-range values are refused here, before any work
        if self.degree not in _DEFAULT_PENALTY:
            expected = " or ".join(map(str, _DEFAULT_PENALTY))
            raise ValueError(f"degree: expected {expected}, "
                             f"got {self.degree}")
        if self.dg_order < 0:
            raise ValueError(f"dg_order: expected >= 0, got {self.dg_order}")
        for name in ("mesh_list", "steps_list"):
            if min(getattr(self, name)) < 1:
                raise ValueError(f"{name}: expected entries >= 1, "
                                 f"got {getattr(self, name)}")
        for name in ("eta", "end_time"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name}: expected a positive finite "
                                 f"number, got {value}")


_FIT_LEVELS = 3  # the fitted rate is the slope over the last three levels


def fit_rate(xs, errors):
    """Least-squares slope of log(error) vs log(x) over the last three
    levels, or over all of them when there are fewer."""
    lx = np.log(np.asarray(xs, dtype=float)[-_FIT_LEVELS:])
    le = np.log(np.asarray(errors, dtype=float)[-_FIT_LEVELS:])
    return float(np.polyfit(lx, le, 1)[0])


def _fmt(x):
    return f"{x:.12g}"


def _fmt_value(key, val):
    """Summary values: fitted rates to 6 significant digits (a slope over
    three points; further digits are roundoff), other floats to 12."""
    if not isinstance(val, float):
        return val
    return f"{val:.6g}" if key == "fitted_rate" else _fmt(val)


@dataclass
class Record:
    """What a study run produced: ``csvs`` maps each CSV path to its
    (header, rows), ``summaries`` each summary path to its (key, value)
    entries; ``lines`` are printed, then every one of ``checks``, the
    (name, value, tolerance, ok) tuples that ``--assert`` reads."""

    csvs: dict
    summaries: dict
    lines: list
    checks: list


def _write(record):
    """Write the record's CSVs and summary files, the CLI's one writer."""
    for path, (header, rows) in record.csvs.items():
        lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
        Path(path).write_text("\n".join(lines) + "\n")
    for path, entries in record.summaries.items():
        lines = [f"{key}={_fmt_value(key, val)}" for key, val in entries]
        Path(path).write_text("\n".join(lines) + "\n")


def _summary_path(out):
    p = Path(out)
    return p.with_name(p.stem + "_summary.txt")


def _sweep_paths(out):
    """The CSV and the summary file of a sweep, derived from ``out``."""
    return (Path(out),), (_summary_path(out),)


def _summary_only(out):
    """The paths of a study that writes only its summary file."""
    return (), (_summary_path(out),)


def _sweep(cfg, study, header, rows, entries, expected):
    """The record of a sweep's (x, error) rows: the CSV and the summary,
    which holds the study, ``entries``, the fitted rate, the expected
    asymptotic rate of a stream-function sweep and the levels fitted.
    ``expected`` is r + 1 in k for dG(r), l in h for the H1 error of C0IP
    P_l (l >= 2); the fitted rate at the default levels is pre-asymptotic.
    """
    rate = fit_rate([r[0] for r in rows], [r[1] for r in rows])
    stream = cfg.method == "streamfct"
    summary = [("study", study), *entries, ("fitted_rate", rate),
               *([("expected_rate", str(expected))] if stream else []),
               ("fit_points", str(min(_FIT_LEVELS, len(rows))))]
    (csv,), (summary_path,) = _sweep_paths(cfg.out)
    return Record({csv: (header, rows)}, {summary_path: summary},
                  [f"{study}: fitted rate {rate:.3f}"], [])


def _stream_rhs(cfg):
    # curl is applied analytically, so g and g_tilde induce the same data
    return mf.f_scalar()


def _stream_errors(n, cfg):
    """Space-time H1 errors of the stream-function solve on the n x n mesh,
    one per entry of ``cfg.steps_list``; the form is assembled once."""
    space = build_space(build_structured_mesh(n), cfg.degree)
    form = assemble_cip(space, cfg.eta)
    rhs, psi = _stream_rhs(cfg), mf.psi_exact()
    for m_steps in cfg.steps_list:
        partition = make_partition(m_steps, cfg.end_time)
        sol = dg_solve(form, partition, cfg.dg_order, f=rhs)
        yield space_time_h1_error(sol, psi)


def _mini_errors(n, cfg):
    """Space-time L2 velocity errors of the MINI dG(r) solve on the n x n
    mesh, one per entry of ``cfg.steps_list``; the space is built once."""
    space = build_mini_space(build_structured_mesh(n))
    g = mf.g_tilde() if cfg.rhs == "g_tilde" else mf.g_field()
    u = mf.u_exact()
    for m_steps in cfg.steps_list:
        sol = mini_transient_solve(
            space, make_partition(m_steps, cfg.end_time), cfg.dg_order, g)
        yield velocity_error_l2(sol, u)


_ERRORS = {"streamfct": _stream_errors, "mini": _mini_errors}


def converge_k(cfg):
    """Time-refinement sweep at one fixed mesh; rows (k, error)."""
    (n,) = cfg.mesh_list
    rows = [(cfg.end_time / m_steps, err) for m_steps, err in
            zip(cfg.steps_list, _ERRORS[cfg.method](n, cfg))]
    return _sweep(cfg, "converge-k", "k,error", rows, [
        ("method", cfg.method), ("rhs", cfg.rhs), ("degree", str(cfg.degree)),
        ("dg_order", str(cfg.dg_order)), ("n", str(n))], cfg.dg_order + 1)


def converge_h(cfg):
    """Mesh-refinement sweep at one fixed time step; rows (h, error)."""
    (m_steps,) = cfg.steps_list
    rows = [(math.sqrt(2.0) / n, err) for n in cfg.mesh_list
            for err in _ERRORS[cfg.method](n, cfg)]
    return _sweep(cfg, "converge-h", "h,error", rows, [
        ("method", cfg.method), ("rhs", cfg.rhs), ("degree", str(cfg.degree)),
        ("dg_order", str(cfg.dg_order)), ("steps", str(m_steps))], cfg.degree)


def stationary_study(cfg):
    """Energy-projection error of the static profile under h-refinement."""
    phi = mf.phi()
    rows = []
    for n in cfg.mesh_list:
        mesh = build_structured_mesh(n)
        space = build_space(mesh, cfg.degree)
        form = assemble_cip(space, cfg.eta)
        proj = ritz_projection(form, phi)
        err = h1_field_error(space, proj.coefficients, phi)
        rows.append((math.sqrt(2.0) / n, err))
    return _sweep(cfg, "stationary", "h,error", rows,
                  [("degree", str(cfg.degree))], cfg.degree)


_COMPARE_RUNS = (("mini_g", "mini", "g"), ("mini_gtilde", "mini", "g_tilde"),
                 ("sf_g", "streamfct", "g"),
                 ("sf_gtilde", "streamfct", "g_tilde"))


def _compare_paths(out):
    """The CSV of each compare-mini sweep (suffixes _mini_g, _mini_gtilde,
    _sf_g, _sf_gtilde), then their summary files and its own, last."""
    base = Path(out)
    csvs = tuple(base.with_name(f"{base.stem}_{tag}.csv")
                 for tag, *_ in _COMPARE_RUNS)
    return csvs, (*map(_summary_path, csvs), _summary_path(out))


def compare_mini(cfg):
    """Mixed solver under g and g_tilde next to the stream-function runs.

    Emits four sibling CSVs (``_compare_paths``) over the time-refinement
    sweep at one mesh, both methods at one dG order, and reports the
    error blow-up ratio of the perturbed mixed runs.
    """
    paths, summary_paths = _compare_paths(cfg.out)
    csvs, summaries, errors = {}, {}, {}
    for path, (tag, method, rhs) in zip(paths, _COMPARE_RUNS):
        sub = converge_k(replace(cfg, method=method, rhs=rhs, out=str(path)))
        csvs.update(sub.csvs)
        summaries.update(sub.summaries)
        errors[tag] = [err for _, err in sub.csvs[path][1]]
    ratio = errors["mini_gtilde"][-1] / errors["mini_g"][-1]
    sf_gap = max(abs(a - b) for a, b in zip(errors["sf_g"],
                                            errors["sf_gtilde"]))
    summaries[summary_paths[-1]] = [
        ("study", "compare-mini"),
        ("mini_blowup_ratio", ratio),
        ("streamfct_column_gap", sf_gap),
    ]
    checks = [("mini blow-up ratio >= 10", ratio, 10.0, ratio >= 10.0),
              ("stream-function columns identical", sf_gap, 1e-12,
               sf_gap <= 1e-12)]
    return Record(csvs, summaries, [
        f"compare-mini: blow-up ratio {ratio:.3g}, "
        f"stream-function column gap {sf_gap:.3g}"], checks)


def _diagnose(cfg):
    """Single-run identity and stability checks, with no study line.

    Raises CoercivityError straight from assembly when the penalty is
    too small; all other checks are reported with their measured value
    against the documented tolerance.

    The Galerkin-orthogonality residual compares B(psi, V) of the exact
    psi (``bh_analytic_functional``) with B(U, V) of the discrete
    solution (``bh_primal_functional``), so it carries the space
    quadrature of the data and shrinks as the mesh is refined: its 1e-7
    tolerance is met at the shipped P2 n=16 and not on coarser meshes
    (2.339e-03 at n=4 M=4, 7.219e-07 at n=8 M=32, 1.093e-08 at n=16
    M=32), where ``--assert`` exits 1.  P3 misses it at the shipped
    n=16 M=32 too (1.417e-07), so ``diagnostics --degree 3 --assert``
    exits 1, and meets it at n=24 (2.241e-08) and n=32 (1.343e-09).
    """
    (n,), (m_steps,) = cfg.mesh_list, cfg.steps_list
    r = cfg.dg_order
    rng = np.random.default_rng(7)

    mesh = build_structured_mesh(n)
    space = build_space(mesh, cfg.degree)
    form = assemble_cip(space, cfg.eta)
    partition = make_partition(m_steps, cfg.end_time)
    f = mf.f_scalar()
    psi = mf.psi_exact()
    # the Ritz projections solve with the certifying factor of a_h, which
    # dg_solve releases
    e_chi, e_rh, e_pik = best_approx_terms(psi, form, partition, r)
    sol = dg_solve(form, partition, r, f=f, psi0=None)

    report = []

    def check(name, value, tol):
        report.append((name, value, tol, value <= tol))

    # jump identity on gradient inner products of random coefficients
    k = space.h1_stiffness()
    gap = 0.0
    for _ in range(5):
        wm = rng.standard_normal(space.n_dofs)
        wp = rng.standard_normal(space.n_dofs)
        jump = wp - wm
        lhs = jump @ (k @ wp)
        rhs = 0.5 * (wp @ (k @ wp)) + 0.5 * (jump @ (k @ jump)) \
            - 0.5 * (wm @ (k @ wm))
        scale = abs(wp @ (k @ wp)) + abs(wm @ (k @ wm))
        gap = max(gap, abs(lhs - rhs) / scale)
    check("jump identity", gap, 1e-13)

    a = form.matrix_free
    check("a_h symmetry", largest_entry(a - a.T), 0.0)

    # the same mesh with its triangles in reverse order: the mesh's rule
    # swaps T- and T+ and the normal of every interior edge.  Its a_h is
    # compared only, not certified, and read back in this space's DOFs:
    # new[i] is DOF i's number on the reversed mesh
    other = build_space(Mesh(mesh.vertices, mesh.triangles[::-1]), cfg.degree)
    new = np.empty(space.n_dofs, dtype=np.int64)
    new[space.dof_map[::-1]] = other.dof_map
    idx = new[space.free_dofs]
    flipped = _assemble_matrices(other, form.eta)[0][idx][:, idx]
    check("normal orientation invariance",
          largest_entry(a - flipped) / largest_entry(a), 1e-13)

    adj = 0.0
    for _ in range(3):
        u = np.zeros(space.n_dofs)
        v = np.zeros(space.n_dofs)
        u[space.free_dofs] = rng.standard_normal(space.free_dofs.size)
        v[space.free_dofs] = rng.standard_normal(space.free_dofs.size)
        au = apply_Ah(form, FeFunction(space, u)).coefficients
        av = apply_Ah(form, FeFunction(space, v)).coefficients
        lhs = au @ (k @ v)
        rhs = u @ (k @ av)
        adj = max(adj, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    check("A_h self-adjointness", adj, 1e-9)

    pd_gap = 0.0
    for _ in range(3):
        ub = rng.standard_normal(sol.coefficients.shape)
        vb = rng.standard_normal(sol.coefficients.shape)
        ub[:, :, space.boundary_dofs] = 0.0
        vb[:, :, space.boundary_dofs] = 0.0
        p = bh_primal_functional(form, partition, r, ub)(vb)
        d = bh_dual(form, partition, r, ub, vb)
        pd_gap = max(pd_gap, abs(p - d) / (abs(p) + abs(d)))
    check("primal/dual form agreement", pd_gap, 1e-11)

    # both sides are built once; the draws come one at a time, since
    # stacking them would hold all ten at once
    analytic = bh_analytic_functional(form, psi, partition, r)
    primal = bh_primal_functional(form, partition, r, sol.coefficients)
    go = 0.0
    for _ in range(10):
        vb = rng.standard_normal(sol.coefficients.shape)
        vb[:, :, space.boundary_dofs] = 0.0
        lhs, rhs = analytic(vb), primal(vb)
        go = max(go, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30))
    check("Galerkin orthogonality residual", go, 1e-7)

    s1, s2, s3 = stability_functional(sol, form)
    data = stability_data_norm(form, f, partition)
    # the ratio tends to 1 as k -> 0; its largest value over P2 and P3,
    # n = 8, 16, 32, M = 4, ..., 64 and r <= 2 is 1 + 8.7e-6, and halving
    # the incoming jump of the time basis lifts it to 1.13 at the defaults
    check("stability ratio (S1+S2+S3)/data", (s1 + s2 + s3) / data, 1.001)

    total = space_time_h1_error(sol, psi)
    bound = 10.0 * (e_chi + e_rh + e_pik)
    report.append(("error vs best-approximation bound",
                   total, bound, total <= bound))

    summary = [
        ("study", "diagnostics"), ("n", str(n)), ("steps", str(m_steps)),
        ("dg_order", str(r)),
        ("total_error", total), ("E_chi", e_chi), ("E_Rh", e_rh),
        ("E_pik", e_pik), ("S1", s1), ("S2", s2), ("S3", s3),
        ("data_norm_sq", data),
    ] + [(name.replace(" ", "_"), val) for name, val, _, _ in report]
    (), (summary_path,) = _summary_only(cfg.out)
    return Record({}, {summary_path: summary}, [], report)


def diagnostics(cfg):
    """Run the diagnostics study, write its summary file and return its
    checks, the (name, value, tolerance, ok) tuples: the one study that
    ``perfbench`` runs through this module, which reads both.

    Its Galerkin-orthogonality check holds at the default mesh (n=16)
    and fails on coarser ones, since the residual carries the space
    quadrature of the data (``_diagnose``)."""
    record = _diagnose(cfg)
    _write(record)
    return record.checks


@dataclass(frozen=True)
class Study:
    """One subcommand: its runner, its default refinement lists and
    output path, the list it fits a rate to (None: none), the inputs it
    does not read, whether it runs the stream-function method only and
    ``paths(out)``, the (CSV paths, summary paths) that its runner
    writes, the keys of its record."""

    run: object
    mesh_list: tuple
    steps_list: tuple
    out: str
    swept: str = None
    unread: tuple = ()
    stream_only: bool = False
    paths: object = _sweep_paths


STUDIES = {
    "converge-k": Study(converge_k, (64,), (8, 16, 32, 64), "converge_k.csv",
                        "steps_list"),
    "converge-h": Study(converge_h, (4, 8, 16, 32), (256,), "converge_h.csv",
                        "mesh_list"),
    "stationary": Study(stationary_study, (4, 8, 16, 32), (1,),
                        "stationary.csv", "mesh_list",
                        ("steps_list", "dg_order", "rhs", "end_time"), True),
    "diagnostics": Study(_diagnose, (16,), (32,), "diagnostics.csv",
                         unread=("rhs",), stream_only=True,
                         paths=_summary_only),
    "compare-mini": Study(compare_mini, (8,), (8, 16, 32, 64, 128),
                          "compare.csv", "steps_list", ("method", "rhs"),
                          paths=_compare_paths),
}

# the inputs a method does not read
_METHOD_UNREAD = {"mini": ("degree", "eta")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamfem",
        description="Convergence and robustness studies for the "
                    "stream-function Stokes solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STUDIES:
        p = sub.add_parser(name)
        p.add_argument("--method", default=None, choices=list(_ERRORS))
        p.add_argument("--degree", default=None)
        p.add_argument("--dg-order", default=None)
        p.add_argument("--eta", default=None)
        p.add_argument("--mesh-list", default=None,
                       help="comma-separated cell counts, e.g. 4,8,16,32")
        p.add_argument("--steps-list", default=None,
                       help="comma-separated interval counts")
        p.add_argument("--rhs", default=None, choices=list(_RHS_CHOICES))
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="key=value file overriding the built-in "
                            "defaults (explicit flags win)")
        p.add_argument("--assert", dest="assert_checks", action="store_true",
                       help="exit nonzero when a documented check fails")
    return parser


def _check_inputs(name, values, given):
    """Refuse an input the study would not use and a swept list it cannot
    fit a rate to; ``given`` maps each key set by a flag or the config
    file to the name it was set by."""
    study = STUDIES[name]
    for key in ("mesh_list", "steps_list"):
        fixed = key != study.swept and key not in study.unread
        if fixed and len(values[key]) != 1:
            raise ValueError(f"{given[key]}: {name} takes one entry, "
                             f"got {len(values[key])}")
    method = values["method"]
    if study.stream_only and method != "streamfct":
        raise ValueError(f"{given['method']}: {name} runs the "
                         f"stream-function method only")
    for unread, where in ((study.unread, name),
                          (_METHOD_UNREAD.get(method, ()),
                           f"{name} with method {method}")):
        for key in unread:
            if key in given:
                raise ValueError(f"{given[key]}: not read by {where}")
    if study.swept in given:
        levels = values[study.swept]
        if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"{given[study.swept]}: {name} fits a rate to "
                             f"at least two strictly increasing entries, "
                             f"got {','.join(map(str, levels))}")


def _parse_int_list(text):
    return tuple(int(part) for part in text.split(","))


# the cast of each flag and config key, from the StudyConfig field types
_CASTS = {f.name: {tuple: _parse_int_list}.get(f.type, f.type)
          for f in fields(StudyConfig)}
_EXPECTED = {_parse_int_list: "comma-separated integers", int: "an integer",
             float: "a number"}


def _cast(cast, raw, name):
    """cast(raw); a bad value names the option or key and its format."""
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{name}: expected {_EXPECTED[cast]}, "
                         f"got {raw!r}") from None


def _load_config_file(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ValueError(f"{key}: given twice in the config file")
        out[key] = value
    return out


def _config_from_args(args):
    # precedence: explicit flags > config file > built-in defaults
    study = STUDIES[args.command]
    values = asdict(StudyConfig(mesh_list=study.mesh_list,
                                steps_list=study.steps_list, out=study.out))
    given = {}
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key not in _CASTS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _cast(_CASTS[key], raw, key)
            given[key] = key
    # end_time has no flag; a flag's string is cast like its config key
    for key, cast in _CASTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = "--" + key.replace("_", "-")
            values[key] = _cast(cast, flag, given[key])
    _check_inputs(args.command, values, given)
    # outputs are written after the study has run: check where they go now
    out, name = Path(values["out"]), given.get("out", "--out")
    if not out.name:
        raise ValueError(f"{name}: expected a file to write, "
                         f"got {values['out']!r}")
    csvs, summaries = study.paths(out)
    for path in (out, *csvs, *summaries):
        if path.is_dir():
            raise ValueError(f"{name}: expected a file to write, "
                             f"got {str(path)!r}")
    if not out.parent.is_dir():
        raise ValueError(f"{name}: no such directory {str(out.parent)!r}")
    return StudyConfig(**values)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:  # bad flag, config file or key
        parser.error(str(exc))
    try:
        record = STUDIES[args.command].run(cfg)
    except CoercivityError as exc:  # a penalty only the exact check refuses
        parser.error(str(exc))
    except SolverError as exc:      # a solve that missed its contract
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    _write(record)
    for line in record.lines:
        print(line)
    for name, value, tol, ok in record.checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}: {value:.3e} "
              f"(tolerance {tol:.3e})")
    failed = not all(ok for *_, ok in record.checks)
    return int(args.assert_checks and failed)


if __name__ == "__main__":
    sys.exit(main())
