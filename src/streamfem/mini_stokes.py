"""Velocity-pressure reference discretization with the MINI element.

Per scalar velocity component the space is P1 plus a cubic bubble per
triangle, with homogeneous velocity boundary values; the pressure is
continuous P1 constrained to zero mean through one Lagrange multiplier.
Time stepping is dG(r) at the right Radau points, the scheme of the
stream-function solver at the same order, and this is the
pressure-coupled baseline that solver is measured against.  It is the
sweep of ``dg_time`` that also serves the stream function, here on
(u, p, lambda) with the singular mass diag(M, M, 0, 0): the mode
factors, the residual refinement and the interval-tagged errors are the
same code, and the solution is held in the same (M, r+1, .) blocks of
nodal values.

The scalar velocity space is an ``FeSpace`` (``MiniSpace``) that sets
only its DOF layout and its monomial coefficients (the 10 x 4
``_COEFFICIENTS`` of the three hats and the bubble, tabulated by
``fem._tabulate`` as the Lagrange bases are), so the mass, stiffness,
pressure integrals, loads and error tables come from the shared
reference-table kernels of ``fem``, each with the rule the space gives
it: the matrix rule for the mass and stiffness, the data rule for the
rest.  The velocity error is ``fem.space_time_error`` with the dG(r)
basis, so ``fem`` builds its time rule and weighs its norm, as it does
for the stream function.  The divergence rows are this module's own
kernel: one reference tensor sum_q w_q lambda_j d_a w_l at the matrix
rule times det J J^-T per cell.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dg_time import TimeBasis, _forward_sweep, _tested_data
from .fem import (FeSpace, _scatter_matrix, _tabulate, assemble_tested,
                  element_matrices, space_time_error, table_writer,
                  term_tables)
from .linalg import build_csr

__all__ = ["MiniSpace", "build_mini_space", "mini_transient_solve",
           "MiniSolution", "velocity_error_l2"]

# the monomial coefficients (1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3)
# of lambda_0 = 1 - x - y, lambda_1 = x, lambda_2 = y and the bubble
# 27 lambda_0 lambda_1 lambda_2 = 27 (xy - x^2 y - x y^2), one column each
_COEFFICIENTS = np.array([[1, -1, -1, 0, 0, 0, 0, 0, 0, 0],
                          [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                          [0, 0, 0, 0, 27, 0, 0, -27, -27, 0]], float).T


class MiniSpace(FeSpace):
    """The scalar MINI velocity space: P1 plus one cubic bubble per triangle.

    DOFs are all vertices, then one bubble per triangle; the free DOFs
    are the interior vertices and then every bubble, and the two
    velocity components stack them.  Pressure DOFs are all vertices.
    ``degree`` is 3, the bubble's, so the default matrix rule (degree 6)
    integrates the bubble mass exactly.  The local basis is the columns
    of ``_COEFFICIENTS``, so values, gradients and Hessians are all
    tabulated.
    """

    def __init__(self, mesh):
        super().__init__(mesh, 3)

    def _entity_dofs(self):
        return 0, 1

    def reference(self, points, order=0):
        """Hats lambda_0..2 and the bubble 27 lambda_0 lambda_1 lambda_2 on
        the reference cell: values, gradients or Hessians."""
        return _tabulate(_COEFFICIENTS, self.degree, points, order)

    @property
    def n_scalar(self):
        return self.free_dofs.size

    @property
    def n_velocity(self):
        return 2 * self.n_scalar

    @property
    def n_pressure(self):
        return self.mesh.num_vertices


def build_mini_space(mesh):
    """The MINI velocity space over a mesh."""
    return MiniSpace(mesh)


def _mass(space):
    """Mass matrix of one velocity component on the free DOFs."""
    free = space.free_dofs
    mass = _scatter_matrix(space, element_matrices(space, 0))
    return mass[free][:, free]


def _divergence(space):
    """Rows (q_j, div v) over the P1 pressures and the stacked velocities.

    On an affine cell (q_j, d_c w_l) = det J sum_a R[j, l, a] J^-1[a, c]
    with the reference tensor R = sum_q w_q lambda_j d_a w_l.
    """
    rule = space.default_matrix_rule()
    hats = space.basis_table(rule, 0)[:, :3]
    grads = space.basis_table(rule, 1).reshape(len(rule), 2, -1)
    ref = np.einsum("q,qj,qal->jla", rule.weights, hats, grads)
    elem = ref.reshape(-1, 2) @ (space.jac_det[:, None, None]
                                 * space.jac_inv)              # (F, 3 L, 2)
    rows = np.repeat(space.mesh.triangles, space.dof_map.shape[1], axis=1)
    cols = np.tile(space.dof_map, (1, 3))
    shape = (space.n_pressure, space.n_dofs)
    return sp.hstack([build_csr(rows, cols, elem[..., c], shape)[
        :, space.free_dofs] for c in range(2)], format="csr")


def _pressure_integrals(space):
    """(q_j, 1) for every P1 pressure DOF, with the data rule (exact for
    the hats)."""
    ones = np.ones(space.phys_points().shape[:2])
    return assemble_tested(space, ones, 0)[:space.n_pressure]


def _velocity_loads(space, g):
    """Vector loads (g_i, v) of every term over the stacked velocity DOFs.

    Each component of the cached value table of g_i (``term_tables``) is
    tested against the scalar space; returns (I, n_velocity).
    """
    return np.array([np.concatenate([assemble_tested(
        space, values[..., c], 0)[space.free_dofs] for c in range(2)])
        for values in term_tables(space, g, "value")])


def _time_points(order):
    """Gauss points per interval of the data and error time integrals of
    dG(r): r + 3, exact for polynomials of degree 2r + 5.

    The squared error of a degree-r trajectory then keeps, at every
    order, the five degrees of margin for the data's time factors that
    the 3 points of r = 0 give; r = 0 keeps the baseline's shipped rule.
    """
    return order + 3


@dataclass
class MiniSolution:
    space: MiniSpace
    partition: object
    order: int
    # nodal values at the right Radau points of every interval
    velocities: np.ndarray   # (M, r+1, 2 n_scalar)
    pressures: np.ndarray    # (M, r+1, n_pressure)
    multipliers: np.ndarray  # (M, r+1)


def mini_transient_solve(space, partition, order, g):
    """dG(r) in time for the mixed saddle-point system, from u = 0.

    On interval m the velocity u, the pressure p and the multiplier
    lambda are polynomials of degree r, held by their values at the
    right Radau points, with
    int_{I_m} (u', v) + (grad u, grad v) - (p, div v) dt
    + (u(t_{m-1}^+) - u(t_{m-1}^-), v(t_{m-1}^+)) = int_{I_m} (g, v) dt
    and (q, div u) + lambda (q, 1) = 0, (p, 1) = 0 at every node: the
    zero-mean constraint on the pressure.  r = 0 is one implicit step per
    interval.  This is the sweep of ``dg_time`` at order r with the
    singular mass diag(M, M, 0, 0) and the operator [[S, -B^T, 0],
    [B, 0, c], [0, c^T, 0]] over (u, p, lambda), whose lambda_i K + k A
    are the mode factors; the data is tested against the dG(r) basis at
    ``_time_points(order)`` Gauss points per interval.
    """
    n_p = space.n_pressure
    mass = sp.block_diag([_mass(space)] * 2
                         + [sp.csr_matrix((n_p + 1, n_p + 1))], format="csr")
    stiff = sp.block_diag([space.h1_free()] * 2, format="csr")
    div = _divergence(space)
    cvec = sp.csr_matrix(_pressure_integrals(space).reshape(-1, 1))
    oper = sp.bmat([[stiff, -div.T, None], [div, None, cvec],
                    [None, cvec.T, None]], format="csr")

    loads = np.pad(_velocity_loads(space, g), ((0, 0), (0, n_p + 1)))
    weights = _tested_data(g, partition, order, _time_points(order))
    x = np.empty((partition.num_intervals, order + 1, mass.shape[0]))
    for m, block in enumerate(_forward_sweep(
            mass, oper, loads, weights, partition.lengths,
            np.zeros(mass.shape[0]), order)):
        x[m] = block
    n_v = space.n_velocity
    return MiniSolution(space, partition, order, x[..., :n_v],
                        x[..., n_v:-1], x[..., -1])


def velocity_error_l2(sol, u_exact):
    """|| u - u_kh ||_{L2(I x Omega)} for the dG(r) velocity, with the
    data rule in space and ``_time_points(r)`` Gauss points per interval
    (``fem.space_time_error`` with the dG(r) basis)."""
    space = sol.space

    def discrete(work):
        # row 2a + c: component c of the velocity at Radau node a
        rows = np.zeros((2 * sol.order + 2, space.n_dofs))
        shape, values = table_writer(space, 0, len(rows))
        table = work[:np.prod(shape)].reshape((-1, 2) + shape[1:])

        def write(m, out):
            rows[:, space.free_dofs] = sol.velocities[m].reshape(len(rows), -1)
            values(rows, table.reshape(shape), None)
            np.copyto(out, np.moveaxis(table, 1, -1))
        return write

    return space_time_error(space, u_exact, "value", sol.partition,
                            TimeBasis(sol.order), discrete,
                            _time_points(sol.order))
