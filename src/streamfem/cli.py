"""Experiment drivers: convergence sweeps, diagnostics and the mixed
versus stream-function comparison, with deterministic CSV output.

Every study writes one CSV per series (header ``k,error`` or
``h,error``, 12 significant digits) plus a key=value summary file with
the fitted rate (least-squares slope over the last three refinement
levels, 6 significant digits; other summary values keep 12) and, for
the stream-function method, the expected asymptotic rate.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import manufactured as mf
from .cip import assemble_cip, ritz_projection
from .dg_time import (best_approx_terms, bh_analytic, bh_primal, dg_solve,
                      make_partition, stability_data_norm,
                      stability_functional)
from .fem import build_space, h1_field_error, space_time_h1_error
from .mesh import build_structured_mesh
from .mini_stokes import build_mini_space, mini_transient_solve, \
    velocity_error_l2

__all__ = ["StudyConfig", "converge_k", "converge_h", "stationary_study",
           "diagnostics", "compare_mini", "fit_rate", "main"]

_RHS_CHOICES = ("g", "g_tilde", "f")


@dataclass
class StudyConfig:
    """Knobs shared by all studies."""

    method: str = "streamfct"          # "streamfct" or "mini"
    degree: int = 2
    dg_order: int = 0
    eta: float = None
    mesh_list: tuple = (4, 8, 16, 32)
    steps_list: tuple = (8, 16, 32, 64)
    rhs: str = "g"
    out: str = "study.csv"
    end_time: float = 1.0
    assert_checks: bool = False

    def __post_init__(self):
        if self.method not in ("streamfct", "mini"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.rhs not in _RHS_CHOICES:
            raise ValueError(f"rhs must be one of {_RHS_CHOICES}")
        if self.method == "mini" and self.rhs == "f":
            raise ValueError("the mixed solver takes vector data g only")
        if not self.mesh_list or not self.steps_list:
            raise ValueError("refinement lists must be nonempty")


def fit_rate(xs, errors, points=3):
    """Least-squares slope of log(error) vs log(x) over the last levels."""
    xs = np.asarray(xs, dtype=float)[-points:]
    errors = np.asarray(errors, dtype=float)[-points:]
    lx = np.log(xs)
    le = np.log(errors)
    slope = np.polyfit(lx, le, 1)[0]
    return float(slope)


def _fmt(x):
    return f"{x:.12g}"


def _fmt_value(key, val):
    """Summary values: fitted rates to 6 significant digits (a slope over
    three points; further digits are roundoff), other floats to 12."""
    if not isinstance(val, float):
        return val
    return f"{val:.6g}" if key == "fitted_rate" else _fmt(val)


def _write_csv(path, header, rows):
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_summary(path, entries):
    lines = [f"{key}={_fmt_value(key, val)}" for key, val in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def _summary_path(out):
    p = Path(out)
    return p.with_name(p.stem + "_summary.txt")


def _expected_rate(cfg, rate):
    """The asymptotic rate of a stream-function sweep, as a summary entry:
    r + 1 in k for dG(r), l in h for the H1 error of C0IP P_l (l >= 2).
    The fitted rate at the default levels is pre-asymptotic."""
    return [("expected_rate", str(rate))] if cfg.method == "streamfct" else []


def _stream_rhs(cfg):
    # curl is applied analytically, so g and g_tilde induce the same data
    return mf.f_scalar()


def _stream_error(n, m_steps, cfg):
    mesh = build_structured_mesh(n)
    space = build_space(mesh, cfg.degree)
    form = assemble_cip(space, cfg.eta)
    partition = make_partition(m_steps, cfg.end_time)
    sol = dg_solve(form, partition, cfg.dg_order, f=_stream_rhs(cfg),
                   psi0=None)
    return space_time_h1_error(sol, mf.psi_exact())


def _mini_error(n, m_steps, cfg):
    mesh = build_structured_mesh(n)
    space = build_mini_space(mesh)
    partition = make_partition(m_steps, cfg.end_time)
    g = mf.g_tilde() if cfg.rhs == "g_tilde" else mf.g_field()
    sol = mini_transient_solve(space, partition, g)
    return velocity_error_l2(sol, mf.u_exact())


def converge_k(cfg):
    """Time-refinement sweep at fixed fine mesh; rows (k, error)."""
    n = cfg.mesh_list[0] if len(cfg.mesh_list) == 1 else cfg.mesh_list[-1]
    rows = []
    if cfg.method == "streamfct":
        mesh = build_structured_mesh(n)
        space = build_space(mesh, cfg.degree)
        form = assemble_cip(space, cfg.eta)
        rhs = _stream_rhs(cfg)
        psi = mf.psi_exact()
        for m_steps in cfg.steps_list:
            partition = make_partition(m_steps, cfg.end_time)
            sol = dg_solve(form, partition, cfg.dg_order, f=rhs, psi0=None)
            rows.append((cfg.end_time / m_steps,
                         space_time_h1_error(sol, psi)))
    else:
        for m_steps in cfg.steps_list:
            rows.append((cfg.end_time / m_steps,
                         _mini_error(n, m_steps, cfg)))
    rate = fit_rate([r[0] for r in rows], [r[1] for r in rows])
    _write_csv(cfg.out, "k,error", rows)
    _write_summary(_summary_path(cfg.out), [
        ("study", "converge-k"), ("method", cfg.method),
        ("rhs", cfg.rhs), ("degree", str(cfg.degree)),
        ("dg_order", str(cfg.dg_order)), ("n", str(n)),
        ("fitted_rate", rate), *_expected_rate(cfg, cfg.dg_order + 1),
        ("fit_points", "3"),
    ])
    return rows, rate


def converge_h(cfg):
    """Mesh-refinement sweep at fixed fine time step; rows (h, error)."""
    m_steps = (cfg.steps_list[0] if len(cfg.steps_list) == 1
               else cfg.steps_list[-1])
    rows = []
    for n in cfg.mesh_list:
        mesh_h = math.sqrt(2.0) / n
        if cfg.method == "streamfct":
            err = _stream_error(n, m_steps, cfg)
        else:
            err = _mini_error(n, m_steps, cfg)
        rows.append((mesh_h, err))
    rate = fit_rate([r[0] for r in rows], [r[1] for r in rows])
    _write_csv(cfg.out, "h,error", rows)
    _write_summary(_summary_path(cfg.out), [
        ("study", "converge-h"), ("method", cfg.method),
        ("rhs", cfg.rhs), ("degree", str(cfg.degree)),
        ("dg_order", str(cfg.dg_order)), ("steps", str(m_steps)),
        ("fitted_rate", rate), *_expected_rate(cfg, cfg.degree),
        ("fit_points", "3"),
    ])
    return rows, rate


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
    rate = fit_rate([r[0] for r in rows], [r[1] for r in rows])
    _write_csv(cfg.out, "h,error", rows)
    _write_summary(_summary_path(cfg.out), [
        ("study", "stationary"), ("degree", str(cfg.degree)),
        ("fitted_rate", rate), ("expected_rate", str(cfg.degree)),
        ("fit_points", "3"),
    ])
    return rows, rate


def compare_mini(cfg):
    """Mixed solver under g and g_tilde next to the stream-function runs.

    Emits four sibling CSVs (suffixes _mini_g, _mini_gtilde, _sf_g,
    _sf_gtilde) over the time-refinement sweep at one mesh, and reports
    the error blow-up ratio of the perturbed mixed runs.
    """
    base = Path(cfg.out)
    series = {}
    for tag, method, rhs in (("mini_g", "mini", "g"),
                             ("mini_gtilde", "mini", "g_tilde"),
                             ("sf_g", "streamfct", "g"),
                             ("sf_gtilde", "streamfct", "g_tilde")):
        sub = replace(cfg, method=method, rhs=rhs,
                      out=str(base.with_name(f"{base.stem}_{tag}.csv")))
        rows, rate = converge_k(sub)
        series[tag] = rows
    finest = -1
    ratio = series["mini_gtilde"][finest][1] / series["mini_g"][finest][1]
    sf_gap = max(abs(a[1] - b[1]) for a, b in
                 zip(series["sf_g"], series["sf_gtilde"]))
    _write_summary(_summary_path(cfg.out), [
        ("study", "compare-mini"),
        ("mini_blowup_ratio", ratio),
        ("streamfct_column_gap", sf_gap),
    ])
    checks = [("mini blow-up ratio >= 10", ratio >= 10.0),
              ("stream-function columns identical", sf_gap <= 1e-12)]
    return series, ratio, sf_gap, checks


def diagnostics(cfg):
    """Single-run identity and stability report with pass/fail lines.

    Raises CoercivityError straight from assembly when the penalty is
    too small; all other checks are reported with their measured value
    against the documented tolerance.
    """
    n = cfg.mesh_list[0]
    m_steps = cfg.steps_list[0]
    r = cfg.dg_order
    rng = np.random.default_rng(7)

    mesh = build_structured_mesh(n)
    space = build_space(mesh, cfg.degree)
    form = assemble_cip(space, cfg.eta)
    partition = make_partition(m_steps, cfg.end_time)
    f = mf.f_scalar()
    psi = mf.psi_exact()
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

    from .linalg import symmetry_gap
    check("a_h symmetry", symmetry_gap(form.matrix), 0.0)

    # only the matrix is kept, so the flipped form's factor dies at once
    flipped = assemble_cip(space, cfg.eta,
                           flip_normals=np.ones(mesh.num_edges,
                                                dtype=bool)).matrix
    diff = (form.matrix - flipped).tocoo()
    orient = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    scale = float(np.abs(form.matrix.data).max())
    check("normal orientation invariance", orient / scale, 1e-13)

    from .cip import apply_Ah
    from .fem import FeFunction
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
    from .dg_time import bh_dual
    for _ in range(3):
        ub = rng.standard_normal(sol.coefficients.shape)
        vb = rng.standard_normal(sol.coefficients.shape)
        ub[:, :, space.boundary_dofs] = 0.0
        vb[:, :, space.boundary_dofs] = 0.0
        p = bh_primal(form, partition, r, ub, vb)
        d = bh_dual(form, partition, r, ub, vb)
        pd_gap = max(pd_gap, abs(p - d) / (abs(p) + abs(d)))
    check("primal/dual form agreement", pd_gap, 1e-11)

    go = 0.0
    for _ in range(10):
        vb = rng.standard_normal(sol.coefficients.shape)
        vb[:, :, space.boundary_dofs] = 0.0
        lhs = bh_analytic(form, psi, partition, r, vb)
        rhs = bh_primal(form, partition, r, sol.coefficients, vb)
        go = max(go, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30))
    check("Galerkin orthogonality residual", go, 1e-7)

    s1, s2, s3 = stability_functional(sol, form)
    data = stability_data_norm(form, f, partition)
    report.append(("stability ratio (S1+S2+S3)/data", (s1 + s2 + s3) / data,
                   float("inf"), True))

    total = space_time_h1_error(sol, psi)
    e_chi, e_rh, e_pik = best_approx_terms(psi, space, form, partition, r)
    bound = 10.0 * (e_chi + e_rh + e_pik)
    report.append(("error vs best-approximation bound",
                   total, bound, total <= bound))

    _write_summary(_summary_path(cfg.out), [
        ("study", "diagnostics"), ("n", str(n)), ("steps", str(m_steps)),
        ("dg_order", str(r)),
        ("total_error", total), ("E_chi", e_chi), ("E_Rh", e_rh),
        ("E_pik", e_pik), ("S1", s1), ("S2", s2), ("S3", s3),
        ("data_norm_sq", data),
    ] + [(name.replace(" ", "_"), val) for name, val, _, _ in report])
    return report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamfem",
        description="Convergence and robustness studies for the "
                    "stream-function Stokes solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("converge-k", "converge-h", "stationary", "diagnostics",
                 "compare-mini"):
        p = sub.add_parser(name)
        p.add_argument("--method", default=None,
                       choices=["streamfct", "mini"])
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--dg-order", type=int, default=None)
        p.add_argument("--eta", type=float, default=None)
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


_DEFAULTS = {
    "converge-k": {"mesh_list": (64,), "steps_list": (8, 16, 32, 64),
                   "out": "converge_k.csv"},
    "converge-h": {"mesh_list": (4, 8, 16, 32), "steps_list": (256,),
                   "out": "converge_h.csv"},
    "stationary": {"mesh_list": (4, 8, 16, 32), "steps_list": (1,),
                   "out": "stationary.csv"},
    "diagnostics": {"mesh_list": (16,), "steps_list": (32,),
                    "out": "diagnostics.csv"},
    "compare-mini": {"mesh_list": (8,), "steps_list": (8, 16, 32, 64, 128),
                     "out": "compare.csv"},
}


def _parse_int_list(text):
    return tuple(int(part) for part in text.split(",") if part)


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
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _config_from_args(args):
    # precedence: explicit flags > config file > built-in defaults
    values = {"method": "streamfct", "degree": 2, "dg_order": 0, "eta": None,
              "rhs": "g", "end_time": 1.0}
    values.update(_DEFAULTS[args.command])
    if args.config:
        file_cfg = _load_config_file(args.config)
        casts = {"mesh_list": _parse_int_list, "steps_list": _parse_int_list,
                 "degree": int, "dg_order": int, "eta": float,
                 "end_time": float, "method": str, "rhs": str, "out": str}
        for key, raw in file_cfg.items():
            if key not in casts:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _cast(casts[key], raw, key)
    for key in ("method", "degree", "dg_order", "eta", "rhs", "out"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.mesh_list:
        values["mesh_list"] = _cast(_parse_int_list, args.mesh_list,
                                    "--mesh-list")
    if args.steps_list:
        values["steps_list"] = _cast(_parse_int_list, args.steps_list,
                                     "--steps-list")
    # outputs are written after the study has run: check where they go now
    out_dir = Path(values["out"]).parent
    if not out_dir.is_dir():
        raise ValueError(f"--out: no such directory {str(out_dir)!r}")
    return StudyConfig(
        method=values["method"], degree=values["degree"],
        dg_order=values["dg_order"], eta=values["eta"],
        mesh_list=tuple(values["mesh_list"]),
        steps_list=tuple(values["steps_list"]), rhs=values["rhs"],
        out=values["out"], end_time=values["end_time"],
        assert_checks=args.assert_checks,
    )


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:  # bad flag, config file or key
        parser.error(str(exc))
    failed = False
    if args.command == "converge-k":
        rows, rate = converge_k(cfg)
        print(f"converge-k: fitted rate {rate:.3f}")
    elif args.command == "converge-h":
        rows, rate = converge_h(cfg)
        print(f"converge-h: fitted rate {rate:.3f}")
    elif args.command == "stationary":
        rows, rate = stationary_study(cfg)
        print(f"stationary: fitted rate {rate:.3f}")
    elif args.command == "compare-mini":
        _, ratio, sf_gap, checks = compare_mini(cfg)
        print(f"compare-mini: blow-up ratio {ratio:.3g}, "
              f"stream-function column gap {sf_gap:.3g}")
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'}: {name}")
            failed |= not ok
    else:
        report = diagnostics(cfg)
        for name, value, tol, ok in report:
            print(f"{'PASS' if ok else 'FAIL'}: {name}: {value:.3e} "
                  f"(tolerance {tol:.3e})")
            failed |= not ok
    if cfg.assert_checks and failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
