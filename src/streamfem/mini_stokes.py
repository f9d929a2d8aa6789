"""Velocity-pressure reference discretization with the MINI element.

Per scalar velocity component the space is P1 plus a cubic bubble per
triangle, with homogeneous velocity boundary values; the pressure is
continuous P1 constrained to zero mean through one Lagrange multiplier.
Time stepping is the lowest-order discontinuous scheme (one implicit
step per interval with the data integrated over the interval), which is
the pressure-coupled baseline the stream-function solver is measured
against.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .fem import (_space_weights, sample_time_factors, separable_load,
                  space_time_squares)
from .linalg import Factorized, SolverError, build_csr
from .mesh import affine_geometry
from .quadrature import interval_rule, triangle_rule

__all__ = ["MiniSpace", "build_mini_space", "mini_transient_solve",
           "MiniSolution", "velocity_error_l2", "divergence_residual",
           "pressure_mean"]


def _bubble_tables(points):
    """Values and gradients of (hat0..hat2, bubble) on the reference cell."""
    x = points[..., 0]
    y = points[..., 1]
    lam = np.stack([1.0 - x - y, x, y], axis=-1)
    bubble = 27.0 * lam[..., 0] * lam[..., 1] * lam[..., 2]
    vals = np.concatenate([lam, bubble[..., None]], axis=-1)

    glam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    gb = 27.0 * (glam[0] * (lam[..., 1] * lam[..., 2])[..., None]
                 + glam[1] * (lam[..., 0] * lam[..., 2])[..., None]
                 + glam[2] * (lam[..., 0] * lam[..., 1])[..., None])
    grads = np.concatenate([np.broadcast_to(glam, points.shape[:-1] + (3, 2)),
                            gb[..., None, :]], axis=-2)
    return vals, grads


@dataclass
class MiniSpace:
    """DOF bookkeeping for the MINI pair on one mesh.

    Scalar velocity DOFs are the interior vertices followed by one
    bubble per triangle; the two components are stacked.  Pressure DOFs
    are all vertices.
    """

    mesh: object
    vertex_dof: np.ndarray      # vertex id -> scalar dof (-1 on boundary)
    n_scalar: int
    _cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def n_velocity(self):
        return 2 * self.n_scalar

    @property
    def n_pressure(self):
        return self.mesh.num_vertices

    def local_dofs(self):
        """Scalar velocity dofs per triangle, (F, 4), -1 where eliminated."""
        mesh = self.mesh
        loc = np.empty((mesh.num_triangles, 4), dtype=np.int64)
        loc[:, :3] = self.vertex_dof[mesh.triangles]
        nv_int = int((self.vertex_dof >= 0).sum())
        loc[:, 3] = nv_int + np.arange(mesh.num_triangles)
        return loc

    def tables(self, rule):
        # the entry holds the rule, so its id cannot pass to another rule
        # while the entry exists
        key = id(rule)
        if key not in self._cache:
            origin, jac, inv, det = affine_geometry(self.mesh)
            vals, gref = _bubble_tables(np.broadcast_to(
                rule.points, rule.points.shape))
            grads = np.einsum("qld,fdi->fqli", gref, inv)
            pts = origin[:, None, :] + np.einsum("fij,qj->fqi", jac,
                                                 rule.points)
            self._cache[key] = (rule, (vals, grads, pts, det))
        return self._cache[key][1]


def build_mini_space(mesh):
    """MINI velocity/pressure bookkeeping over a mesh."""
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[mesh.boundary_vertices()] = True
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    interior = np.flatnonzero(~boundary)
    vertex_dof[interior] = np.arange(interior.size)
    n_scalar = interior.size + mesh.num_triangles
    return MiniSpace(mesh, vertex_dof, n_scalar)


def _scalar_matrices(space, rule):
    """Mass and stiffness for one velocity component, plus divergence rows."""
    mesh = space.mesh
    vals, grads, _, det = space.tables(rule)
    loc = space.local_dofs()
    keep = loc >= 0

    mass_el = np.einsum("q,ql,qm,f->flm", rule.weights, vals, vals, det)
    stiff_el = np.einsum("q,fqli,fqmi,f->flm", rule.weights, grads, grads, det)
    mass_el = 0.5 * (mass_el + mass_el.transpose(0, 2, 1))
    stiff_el = 0.5 * (stiff_el + stiff_el.transpose(0, 2, 1))

    rows = np.repeat(loc, 4, axis=1)
    cols = np.tile(loc, (1, 4))
    ok = (rows >= 0) & (cols >= 0)
    n = space.n_scalar
    mass = build_csr(rows[ok], cols[ok], mass_el.reshape(rows.shape)[ok],
                     (n, n))
    stiff = build_csr(rows[ok], cols[ok], stiff_el.reshape(rows.shape)[ok],
                      (n, n))

    # divergence rows: (q_j, d_c w_i) with P1 pressure over all vertices
    p1 = vals[:, :3]
    div_el = np.einsum("q,qj,fqli,f->fjli", rule.weights, p1, grads, det)
    prows = np.repeat(mesh.triangles, 4, axis=1)
    vcols = np.tile(loc, (1, 3))
    ok2 = vcols >= 0
    div = []
    for c in range(2):
        div.append(build_csr(prows[ok2], vcols[ok2],
                             div_el[:, :, :, c].reshape(prows.shape)[ok2],
                             (mesh.num_vertices, n)))
    return mass, stiff, div


def _pressure_integrals(space, rule):
    vals, _, _, det = space.tables(rule)
    contrib = np.einsum("q,qj,f->fj", rule.weights, vals[:, :3], det)
    return np.bincount(space.mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=space.mesh.num_vertices)


def _velocity_load(space, g, t, rule):
    """Vector load (g(t), v) over the stacked velocity DOFs."""
    vals, _, pts, det = space.tables(rule)
    gv = g.value(t, pts)
    loc = space.local_dofs()
    keep = loc >= 0
    out = np.zeros(space.n_velocity)
    for c in range(2):
        contrib = np.einsum("q,fq,ql,f->fl", rule.weights, gv[..., c], vals,
                            det)
        np.add.at(out, loc[keep] + c * space.n_scalar, contrib[keep])
    return out


@dataclass
class MiniSolution:
    space: MiniSpace
    partition: object
    velocities: np.ndarray   # (M+1, 2 n_scalar); row 0 is the projected u0
    pressures: np.ndarray    # (M, n_pressure)
    multipliers: np.ndarray  # (M,)


def mini_transient_solve(space, partition, g, u0=None, rule=None,
                         time_points=3, rtol=1e-10):
    """One implicit step per interval of the mixed saddle-point system.

    Per step: (u_m - u_{m-1}, v) + k_m (grad u_m, grad v)
    - k_m (p_m, div v) + k_m (q, div u_m) = int_{I_m} (g, v) dt,
    with a one-multiplier zero-mean constraint on the pressure.
    """
    rule = rule or triangle_rule(8)
    mat_rule = triangle_rule(6)
    mass1, stiff1, div1 = _scalar_matrices(space, mat_rule)
    nv = space.n_scalar
    mass = sp.block_diag([mass1, mass1], format="csr")
    stiff = sp.block_diag([stiff1, stiff1], format="csr")
    div = sp.hstack([div1[0], div1[1]], format="csr")
    cvec = _pressure_integrals(space, mat_rule)

    lengths = partition.lengths
    uniform = np.allclose(lengths, lengths[0], rtol=1e-12, atol=0.0)
    trule = interval_rule(time_points)
    load = separable_load(g, lambda w: _velocity_load(space, w, 0.0, rule))

    m_count = partition.num_intervals
    n_p = space.n_pressure
    velocities = np.zeros((m_count + 1, space.n_velocity))
    pressures = np.zeros((m_count, n_p))
    multipliers = np.zeros(m_count)

    if u0 is not None:
        b0 = _velocity_load(space, u0, 0.0, rule)
        mfac = Factorized(mass, rtol=rtol)
        velocities[0] = mfac(b0)

    factor = None
    csp = sp.csr_matrix(cvec.reshape(-1, 1))
    for m in range(m_count):
        km = lengths[m]
        if factor is None or not uniform:
            saddle = sp.bmat([
                [mass + km * stiff, -km * div.T, None],
                [km * div, None, km * csp],
                [None, km * csp.T, None],
            ], format="csr")
            try:
                factor = Factorized(saddle, rtol=rtol)
            except SolverError as exc:
                raise _at_step(exc, m) from exc
        t0 = partition.nodes[m]
        rhs_u = mass @ velocities[m]
        for tau, wq in zip(trule.points, trule.weights):
            rhs_u = rhs_u + (wq * km) * load(t0 + km * tau)
        rhs = np.concatenate([rhs_u, np.zeros(n_p), [0.0]])
        try:
            x = factor(rhs)
        except SolverError as exc:
            raise _at_step(exc, m) from exc
        velocities[m + 1] = x[:space.n_velocity]
        pressures[m] = x[space.n_velocity:space.n_velocity + n_p]
        multipliers[m] = x[-1]

    return MiniSolution(space, partition, velocities, pressures, multipliers)


def _at_step(exc, m):
    """The solver error of 0-based step m, tagged with the step."""
    return SolverError(f"step {m + 1}: {exc}", residual=exc.residual,
                       interval=m + 1)


def velocity_error_l2(sol, u_exact, time_points=3, rule=None):
    """|| u - u_kh ||_{L2(I x Omega)} for the piecewise-constant steps."""
    space = sol.space
    rule = rule or triangle_rule(8)
    vals, _, pts, det = space.tables(rule)
    loc = space.local_dofs()
    keep = loc >= 0
    trule = interval_rule(time_points)
    exact = np.stack([term.value(pts) for _, term in u_exact.terms])
    sig, _ = sample_time_factors(u_exact, sol.partition, trule)
    minus_one = -np.ones((len(trule), 1))

    def blocks():
        tables = np.concatenate([exact, np.empty((1,) + exact.shape[1:])])
        for m, velocity in enumerate(sol.velocities[1:]):
            for c in range(2):
                coef = np.where(keep, velocity[
                    np.clip(loc, 0, None) + c * space.n_scalar], 0.0)
                tables[-1, ..., c] = coef @ vals.T
            yield np.hstack([sig[m], minus_one]), tables

    total = space_time_squares(_space_weights(det, rule), trule,
                               sol.partition.lengths, blocks())
    return float(np.sqrt(max(total, 0.0)))


def divergence_residual(sol, step, rule=None):
    """max_j |(q_j, div u_m)|: satisfaction of the constraint rows."""
    space = sol.space
    mat_rule = rule or triangle_rule(6)
    _, _, div1 = _scalar_matrices(space, mat_rule)
    div = sp.hstack([div1[0], div1[1]], format="csr")
    return float(np.abs(div @ sol.velocities[step + 1]).max())


def pressure_mean(sol, step, rule=None):
    """Mean value of the step pressure (zero up to solver tolerance)."""
    space = sol.space
    mat_rule = rule or triangle_rule(6)
    cvec = _pressure_integrals(space, mat_rule)
    area = float(cvec.sum())
    return float(cvec @ sol.pressures[step]) / area
