"""Discontinuous Galerkin time stepping for the penalized biharmonic flow.

Each interval carries a degree-r polynomial in the Lagrange basis at
right Gauss-Radau points, so the value at the right endpoint is a nodal
coefficient and no extrapolation is needed.  The transient solve is an
interval-by-interval forward sweep: interval m couples to the past only
through the gradient inner product with the outgoing value at t_{m-1},
seeded at m=1 by the H1_0 projection of the initial datum.

The interval system C (K X) + k M (A X) = R couples the r+1 nodal values
through the time matrices C (derivative plus incoming jump) and M
(mass); it is never assembled.  With M^-1 C = V Lambda V^-1
(``time_modes``) it splits into one n_free-sized system lambda K + k A
per eigenvalue: a real factor per real eigenvalue and a complex one per
conjugate pair (Richter, Springer and Vexler, Numer. Math. 124 (2013);
Smears, IMA J. Numer. Anal. 37 (2017)).  dG(0) is Lambda = V = [1].
The 2-norm condition number of V (unit columns) grows with r:

====  ====  ====  ====  ====  ====  ====  =======
r     0     1     2     3     4     5     6
cond  1     3.23  8.99  28.3  95.3  331   1.17e3
====  ====  ====  ====  ====  ====  ====  =======

so every interval's residual is checked on the coupled system, not on
the diagonalized one.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .fem import (FeFunction, _space_weights, assemble_load_gradient,
                  assemble_load_scalar, gradient_tables, h1_projection,
                  load_provider, sample_time_factors, space_time_squares)
from .linalg import Factorized, SolverError, refine
from .quadrature import interval_rule

__all__ = ["TimePartition", "make_partition", "radau_points", "TimeBasis",
           "time_modes", "DgSolution", "data_time_points", "dg_solve",
           "time_projection_values",
           "stability_functional", "stability_data_norm",
           "best_approx_terms", "bh_primal", "bh_dual", "bh_analytic"]


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing nodes 0 = t_0 < ... < t_M = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least one interval")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must increase strictly from 0")
        object.__setattr__(self, "nodes", nodes)
        nodes.setflags(write=False)

    @property
    def num_intervals(self):
        return self.nodes.size - 1

    @property
    def lengths(self):
        return np.diff(self.nodes)

    @property
    def k_max(self):
        return float(self.lengths.max())

    @property
    def end_time(self):
        return float(self.nodes[-1])


def make_partition(num_intervals, end_time=1.0):
    """Uniform partition of (0, T] into M intervals."""
    if num_intervals < 1:
        raise ValueError("need at least one interval")
    if end_time <= 0.0:
        raise ValueError("end time must be positive")
    return TimePartition(np.linspace(0.0, end_time, num_intervals + 1))


@lru_cache(maxsize=None)
def radau_points(order):
    """Right Gauss-Radau points on (0, 1], the last one equal to 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    s = order + 1
    if s == 1:
        pts = np.array([1.0])
    else:
        # interior nodes: roots of (P_s - P_{s-1}) / (x - 1) on [-1, 1]
        leg = np.polynomial.legendre
        coef = leg.legsub([0.0] * (s - 1) + [0.0, 1.0],
                          [0.0] * (s - 1) + [1.0])
        poly = np.polynomial.Polynomial(leg.leg2poly(coef))
        quotient = poly // np.polynomial.Polynomial([-1.0, 1.0])
        roots = np.sort(quotient.roots().real)
        pts = np.concatenate([0.5 * (roots + 1.0), [1.0]])
    pts.setflags(write=False)
    return pts


class TimeBasis:
    """Lagrange polynomials at the right Radau points of [0, 1]."""

    def __init__(self, order):
        self.order = order
        self.nodes = radau_points(order)
        n = order + 1
        vand = np.vander(self.nodes, n, increasing=True)
        self.coef = np.linalg.inv(vand)  # column a: monomials of ell_a
        dcoef = self.coef[1:] * np.arange(1, n)[:, None]
        self.dcoef = np.vstack([dcoef, np.zeros((1, n))])
        self.left_values = self.values(0.0)

    def values(self, tau):
        tau = np.asarray(tau, dtype=float)
        powers = np.vander(np.atleast_1d(tau), self.order + 1, increasing=True)
        out = powers @ self.coef
        return out[0] if tau.ndim == 0 else out

    def derivatives(self, tau):
        tau = np.asarray(tau, dtype=float)
        powers = np.vander(np.atleast_1d(tau), self.order + 1, increasing=True)
        out = powers @ self.dcoef
        return out[0] if tau.ndim == 0 else out

    def gram(self, da=0, db=0):
        """G[b, a] = int_0^1 ell_a^(da) ell_b^(db) d tau."""
        rule = interval_rule(self.order + 2)
        fa = self.derivatives(rule.points) if da else self.values(rule.points)
        fb = self.derivatives(rule.points) if db else self.values(rule.points)
        return np.einsum("q,qa,qb->ba", rule.weights, fa, fb)

    def coupling(self):
        """C = G' + l(0) l(0)^T: the time derivative and the incoming jump."""
        return self.gram(da=1) + np.outer(self.left_values, self.left_values)


@lru_cache(maxsize=None)
def time_modes(order):
    """Diagonalization M^-1 C = V Lambda V^-1 of the dG(r) time matrices.

    Returns one (lambda, v, w) per real eigenvalue and per conjugate
    pair (the member with positive imaginary part): v is the column of
    V and w the row of W = (M V)^-1 = V^-1 M^-1.  A pair's partner
    solves the conjugate system, so its term is the conjugate one and
    v is doubled: C (K X) + k M (A X) = R becomes X = sum Re(v y^T)
    with (lambda K + k A) y = w R.  Real eigenvalues keep real lambda,
    v and w; r + 1 odd has one.  V has unit columns (cond(V) in the
    module notes).
    """
    basis = TimeBasis(order)
    mass = basis.gram()
    tmat = np.linalg.solve(mass, basis.coupling())
    # a 1 x 1 matrix is its own eigen-decomposition; not calling the
    # LAPACK eigensolver keeps its code pages out of the resident
    # memory of dG(0) runs
    lam, vec = np.linalg.eig(tmat) if order else (tmat[0], np.eye(1))
    wmat = np.linalg.inv(mass @ vec)
    modes = []
    for i in range(order + 1):
        if lam[i].imag == 0.0:
            mode = (lam[i].real, vec[:, i].real, wmat[i].real)
        elif lam[i].imag > 0.0:
            mode = (lam[i], 2.0 * vec[:, i], wmat[i])
        else:
            continue
        for arr in mode[1:]:
            arr.setflags(write=False)
        modes.append(mode)
    return tuple(modes)


class DgSolution:
    """Per-interval coefficient blocks of a dG(r) trajectory."""

    def __init__(self, partition, space, order, coefficients):
        self.partition = partition
        self.space = space
        self.order = order
        self.basis = TimeBasis(order)
        self.coefficients = coefficients  # (M, r+1, n_dofs)

    def value_minus(self, m):
        """Outgoing value at t_{m+1} taken from interval index m (0-based)."""
        return self.coefficients[m, -1]

    def value_plus(self, m):
        """Incoming value at t_m^+ taken from interval index m (0-based)."""
        return self.basis.left_values @ self.coefficients[m]

    def value_at(self, m, t):
        t0 = self.partition.nodes[m]
        km = self.partition.lengths[m]
        return self.basis.values((t - t0) / km) @ self.coefficients[m]

    def as_fefunction(self, m, t):
        return FeFunction(self.space, self.value_at(m, t))


def data_time_points(order):
    """Gauss points per interval for the data integrals of dG(r): r + 2.

    The transient solve and the analytic side of the space-time form
    share this rule, so Galerkin orthogonality holds up to the space
    quadrature alone.
    """
    return order + 2


def _initial_coefficients(space, psi0):
    if psi0 is None:
        return np.zeros(space.n_dofs)
    return h1_projection(space, psi0).coefficients


def dg_solve(form, partition, order, f=None, psi0=None, load_points=None,
             load_rule=None, rtol=1e-10):
    """Forward sweep for the fully discrete transient problem.

    Interval m solves C (K X) + k_m M (A X) = R for its (r+1, n_free)
    block X of nodal values (C = ``TimeBasis.coupling()``, M =
    ``TimeBasis.gram()``) through the factors of ``time_modes``, shared
    by all intervals of a uniform partition.  Each interval is refined
    (``linalg.refine``) until ||R - C(KX) - k_m M(AX)|| <= rtol ||R||, a
    residual from C, M, K and A alone; a failure raises a
    ``SolverError`` carrying the 1-based ``interval`` and ``residual``.

    Parameters
    ----------
    form : CipForm
    partition : TimePartition
    order : int
        Polynomial degree r >= 0 in time.
    f : field, callable or None
        Scalar data; fields are expanded into one precomputed load per
        separable term, a callable t -> full load vector is used as
        given, None means a vanishing right-hand side.
    psi0 : FeFunction, field or None
        Initial datum, entering through its H1_0 projection.
    load_points : int, optional
        Gauss points per interval for the data integral (default
        ``data_time_points(order)``).
    load_rule : QuadratureRule, optional
        Space rule for the data loads (default: the data rule).
    rtol : float
        Relative residual of every interval solve.

    The sweep never solves with A alone, so its first step releases the
    form's cached factor of A (``CipForm.release_factor``), before K, the
    loads or any mode factor exist: the previous factors go before the
    next exist.  A later ``form.factor()`` factors A again.
    """
    form.release_factor()
    space = form.space
    free = space.free_dofs
    basis = TimeBasis(order)
    k_free = space.h1_free()
    a_free = form.matrix_free

    if f is None:
        load = None
    elif hasattr(f, "terms"):
        load = load_provider(space, f, rule=load_rule)
    else:
        load = f

    rule = interval_rule(load_points or data_time_points(order))
    coupling, mass = basis.coupling(), basis.gram()

    u_prev = _initial_coefficients(space, psi0)[free]
    lengths = partition.lengths
    uniform = np.allclose(lengths, lengths[0], rtol=1e-12, atol=0.0)
    nb = order + 1
    coeffs = np.zeros((partition.num_intervals, nb, space.n_dofs))

    modes = None
    for m in range(partition.num_intervals):
        km = lengths[m]
        if modes is None or not uniform:
            modes = None  # the previous factors go before the next exist
            try:
                modes, system = _interval_system(order, coupling, mass,
                                                 k_free, a_free, km)
            except SolverError as exc:
                raise _at_interval(exc, m) from exc

        rhs = np.zeros((nb, free.size))
        if load is not None:
            t0 = partition.nodes[m]
            for tau, wq in zip(rule.points, rule.weights):
                bvec = load(t0 + km * tau)[free]
                rhs += (wq * km) * np.outer(basis.values(tau), bvec)
        rhs += np.outer(basis.left_values, k_free @ u_prev)

        try:
            block = refine(system, partial(_diagonal_solve, modes), rhs,
                           rtol)
        except SolverError as exc:
            raise _at_interval(exc, m) from exc
        coeffs[m][:, free] = block
        u_prev = block[-1]

    return DgSolution(partition, space, order, coeffs)


def _interval_system(order, coupling, mass, k_free, a_free, km):
    """The mode factors and the coupled operator of an interval.

    The operator X -> C (K X) + k M (A X) on (r+1, n_free) blocks is
    built from the time matrices, K and A alone, never from the
    eigen-decomposition, so a wrong one fails the residual check.  At
    dG(0), C = M = Lambda = [1], so the operator is the factor's own
    assembled K + k A: summed as K x + k A x instead, a residual at the
    roundoff floor can round over rtol and cost a refinement step.
    """
    modes = [(Factorized(lam * k_free + km * a_free, rtol=None), v, w)
             for lam, v, w in time_modes(order)]
    if order == 0:
        mat = modes[0][0].a
        return modes, lambda x: (mat @ x[0])[None]
    return modes, lambda x: (coupling @ (k_free @ x.T).T
                             + km * (mass @ (a_free @ x.T).T))


def _diagonal_solve(modes, rhs):
    """Re(V Y) with (lambda_i K + k A) y_i = (W rhs)_i for every mode."""
    x = np.zeros(rhs.shape)
    for factor, v, w in modes:
        x += np.outer(v, factor(w @ rhs)).real
    return x


def _at_interval(exc, m):
    """The solver error of 0-based interval m, tagged with the interval."""
    return SolverError(f"interval {m + 1}: {exc}", residual=exc.residual,
                       interval=m + 1)


def time_projection_values(order, partition, fn, samples=12):
    """Interval-wise polynomial projection of a scalar function of time.

    Matches the right endpoint on every interval and, for r >= 1, the
    moments against polynomials of degree < r.  Returns the nodal
    values at the right Radau points, shape (M, r+1); polynomials of
    degree <= r are reproduced exactly.
    """
    basis = TimeBasis(order)
    nodes = partition.nodes
    out = np.zeros((partition.num_intervals, order + 1))
    if order == 0:
        out[:, 0] = [fn(t) for t in nodes[1:]]
        return out

    rule = interval_rule(max(samples, order + 2))
    powers = np.vander(rule.points, order, increasing=True)   # (Q, r)
    lvals = basis.values(rule.points)                         # (Q, r+1)
    gmat = np.einsum("q,qj,qa->ja", rule.weights, powers, lvals)
    for m in range(partition.num_intervals):
        t0, t1 = nodes[m], nodes[m + 1]
        km = t1 - t0
        fvals = np.array([fn(t0 + km * tau) for tau in rule.points])
        moments = np.einsum("q,qj,q->j", rule.weights, powers, fvals)
        right = fn(t1)
        out[m, :-1] = np.linalg.solve(gmat[:, :-1],
                                      moments - gmat[:, -1] * right)
        out[m, -1] = right
    return out


def stability_functional(sol, form, psi0=None):
    """Energy diagnostics (S1, S2, S3) of a dG trajectory.

    S1 sums the squared gradient norms of the time derivative, S2
    integrates the lifted operator action, S3 accumulates the jumps
    scaled by 1/k_m, the first jump taken against the projected initial
    datum.  S1 vanishes identically for r = 0.
    """
    space = sol.space
    free = space.free_dofs
    k_free = space.h1_free()
    a_free = form.matrix_free
    k_factor = space.h1_factor()
    basis = sol.basis
    mass = basis.gram()
    dgram = basis.gram(da=1, db=1)
    lengths = sol.partition.lengths

    s1 = s2 = s3 = 0.0
    u_prev = _initial_coefficients(space, psi0)[free]
    for m in range(sol.partition.num_intervals):
        km = lengths[m]
        block = sol.coefficients[m][:, free]
        if sol.order > 0:
            kb = (k_free @ block.T).T
            s1 += float(np.einsum("ba,af,bf->", dgram, block, kb)) / km
        lifted = np.array([k_factor(a_free @ ba) for ba in block])
        klift = (k_free @ lifted.T).T
        s2 += km * float(np.einsum("ba,af,bf->", mass, lifted, klift))
        jump = basis.left_values @ block - u_prev
        s3 += float(jump @ (k_free @ jump)) / km
        u_prev = block[-1]
    return s1, s2, s3


def stability_data_norm(form, f, partition, psi0=None, time_points=8):
    """Squared data norm bounding the stability functional.

    The functional data is rewritten in gradient form term by term: the
    spatial factor w_i of each separable term is lifted to g_i with
    (grad g_i, grad v) = <w_i, v> for all discrete v, which leaves the
    discrete trajectory unchanged.  Returns
    ||grad g||^2_{I x Omega} + |||P_h psi0|||_h^2.
    """
    space = form.space
    free = space.free_dofs
    k_free = space.h1_free()

    lifts = [space.h1_factor()(assemble_load_scalar(space, static)[free])
             for _, static in f.static_terms()]
    gram = np.array([[gi @ (k_free @ gj) for gj in lifts] for gi in lifts])

    rule = interval_rule(time_points)
    sig, _ = sample_time_factors(f, partition, rule)
    quad = np.einsum("mpi,ij,mpj->mp", sig, gram, sig)
    total = float(partition.lengths @ (quad @ rule.weights))

    if psi0 is not None:
        from .cip import triple_norm
        total += triple_norm(form, h1_projection(space, psi0)) ** 2
    return total


def best_approx_terms(psi, space, form, partition, order, time_points=5,
                      rule=None):
    """The three projection errors of the best-approximation bound.

    Returns (E_chi, E_Rh, E_pik): the gradient-norm distances of the
    exact field to its combined space-time comparator (the H1_0
    projection composed with the interval-wise time projection), to its
    energy-form projection, and to its time projection.  Separable
    structure is exploited: each spatial factor is projected once.
    """
    from .cip import ritz_projection

    rule = rule or space.default_data_rule()
    trule = interval_rule(time_points)
    pts = space.phys_points(rule)
    statics = [static for _, static in psi.static_terms()]
    exact = np.stack([w.grad(0.0, pts) for w in statics])
    ritz = gradient_tables(space, rule, [
        ritz_projection(form, w).coefficients for w in statics])
    h1p = gradient_tables(space, rule, [
        h1_projection(space, w, rule=rule).coefficients for w in statics])
    exact_minus_ritz = exact - ritz
    exact_and_h1p = np.concatenate([exact, h1p])

    # sigma_i and its interval-wise time projection at the Gauss points
    sig, _ = sample_time_factors(psi, partition, trule)
    lv = TimeBasis(order).values(trule.points)                 # (P, r+1)
    pik = np.stack([time_projection_values(order, partition, tf.fn)
                    for tf, _ in psi.terms], axis=-1)           # (M, r+1, I)
    psig = lv @ pik                                             # (M, P, I)

    wdet = _space_weights(space.jac_det, rule)

    def norm(coefficients, tables):
        blocks = ((c, tables) for c in coefficients)
        total = space_time_squares(wdet, trule, partition.lengths, blocks)
        return float(np.sqrt(max(total, 0.0)))

    return (norm(np.concatenate([sig, -psig], axis=-1), exact_and_h1p),
            norm(sig, exact_minus_ritz),
            norm(sig - psig, exact))


# -- the space-time bilinear form on coefficient blocks -----------------


def bh_primal(form, partition, order, ucoef, vcoef):
    """Space-time form in its forward shape on coefficient blocks.

    Both arguments have shape (M, r+1, n_dofs).  The initial term pairs
    the incoming values at t_0; the jump terms couple each interval to
    the previous one.
    """
    space = form.space
    k = space.h1_stiffness()
    a = form.matrix
    basis = TimeBasis(order)
    g10 = basis.gram(da=1)
    mass = basis.gram()
    left = basis.left_values
    lengths = partition.lengths

    total = 0.0
    for m in range(partition.num_intervals):
        ub = ucoef[m]
        vb = vcoef[m]
        ku = (k @ ub.T).T
        au = (a @ ub.T).T
        total += float(np.einsum("ba,af,bf->", g10, ku, vb))
        total += lengths[m] * float(np.einsum("ba,af,bf->", mass, au, vb))
        v_plus = left @ vb
        u_plus = left @ ub
        if m == 0:
            total += float(u_plus @ (k @ v_plus))
        else:
            jump = u_plus - ucoef[m - 1][-1]
            total += float(jump @ (k @ v_plus))
    return total


def bh_dual(form, partition, order, ucoef, vcoef):
    """Space-time form in its backward shape (integrated by parts)."""
    space = form.space
    k = space.h1_stiffness()
    a = form.matrix
    basis = TimeBasis(order)
    g01 = basis.gram(db=1)
    mass = basis.gram()
    left = basis.left_values
    lengths = partition.lengths
    m_count = partition.num_intervals

    total = 0.0
    for m in range(m_count):
        ub = ucoef[m]
        vb = vcoef[m]
        ku = (k @ ub.T).T
        au = (a @ ub.T).T
        total -= float(np.einsum("ba,af,bf->", g01, ku, vb))
        total += lengths[m] * float(np.einsum("ba,af,bf->", mass, au, vb))
        u_minus = ub[-1]
        if m < m_count - 1:
            jump = left @ vcoef[m + 1] - vb[-1]
            total -= float(u_minus @ (k @ jump))
        else:
            total += float(u_minus @ (k @ vb[-1]))
    return total


def bh_analytic(form, psi, partition, order, vcoef, time_points=None,
                volume_rule=None, edge_points=8):
    """Space-time form applied to a smooth clamped field against blocks.

    Realizes the extension of the form to continuous-in-time arguments:
    the field's jumps vanish, its elliptic pairing is the consistency
    pairing, and the initial term pairs the field at t = 0.  The time
    rule defaults to that of ``dg_solve``, ``data_time_points(order)``.
    """
    from .cip import consistency_pairing

    space = form.space
    basis = TimeBasis(order)
    rule = interval_rule(time_points or data_time_points(order))

    statics = [static for _, static in psi.static_terms()]
    gloads = np.stack([assemble_load_gradient(space, w, rule=volume_rule)
                       for w in statics])                       # (I, n)
    cpairs = np.stack([consistency_pairing(form, w, volume_rule=volume_rule,
                                           edge_points=edge_points)
                       for w in statics])

    # pairings of every load with v at every Gauss point, (M, P, I)
    lv = basis.values(rule.points)
    g_v = lv @ (vcoef @ gloads.T)
    c_v = lv @ (vcoef @ cpairs.T)
    sig, dsig = sample_time_factors(psi, partition, rule)
    per_point = (dsig * g_v + sig * c_v).sum(axis=-1)           # (M, P)
    total = float(partition.lengths @ (per_point @ rule.weights))

    sig0 = np.array([tf.fn(0.0) for tf, _ in psi.terms])
    total += float((sig0 @ gloads) @ (basis.left_values @ vcoef[0]))
    return total
