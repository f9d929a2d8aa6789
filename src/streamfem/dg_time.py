"""Discontinuous Galerkin time stepping for the penalized biharmonic flow.

Each interval carries a degree-r polynomial in the Lagrange basis at
right Gauss-Radau points, so the value at the right endpoint is a nodal
coefficient and no extrapolation is needed.  The points are the roots
of the Jacobi polynomial P_r^(1,0) that ``quadrature.gauss_jacobi``
gives (scipy.special's, from a table up to r = 16) followed by 1, and
the basis is held in Legendre coefficients (``TimeBasis``), never in
monomials, so it stays exact to roundoff as r grows.  The transient
solve is an interval-by-interval forward sweep: interval m couples to
the past only through K applied to the outgoing value at t_{m-1},
seeded at m=1 by the H1_0 projection of the initial datum.  One sweep
(``_forward_sweep``) serves dG(r) for the stream function (K the
gradient stiffness, A the eliminated a_h) and for the MINI saddle,
whose mass diag(M, M, 0, 0) is singular (``mini_stokes``): its complex
mode factors lambda K + k A factor at pivot threshold 0 like the real
ones.

The interval system C (K X) + k M (A X) = R couples the r+1 nodal values
through the time matrices C (derivative plus incoming jump) and M
(mass); it is never assembled.  With M^-1 C = V Lambda V^-1
(``time_modes``) it splits into one n_free-sized system lambda K + k A
per eigenvalue: a real factor per real eigenvalue and a complex one per
conjugate pair (Richter, Springer and Vexler, Numer. Math. 124 (2013);
Smears, IMA J. Numer. Anal. 37 (2017)).  dG(0) is Lambda = V = [1].
The factors are built again only where the step length changes, so a
run of equal steps, such as a whole uniform partition, shares one set.
The 2-norm condition number of V (unit columns) grows with r, about
3.6 times per degree:

====  ====  ====  ====  ====  ====  ====
r     0     1     2     3     4     5
cond  1     3.23  8.99  28.3  95.3  331
====  ====  ====  ====  ====  ====  ====

====  ======  ======  ======  ======  ======
r     6       7       8       9       10
cond  1.17e3  4.19e3  1.51e4  5.48e4  1.99e5
====  ======  ======  ======  ======  ======

so every interval's residual is checked on the coupled system, not on
the diagonalized one.  The time basis itself is exact to roundoff at
every r, so the growth of that residual with r comes from V alone.

The space-time forms (``bh_primal``, ``bh_dual``, ``stability_functional``)
pair all intervals at once on (M, r+1, n) coefficient blocks; their jump
terms are shifts of the blocks by one interval.

The space discretization enters only through a form with six members:
``space``; ``matrix_free``, a_h on the free DOFs (every discrete
argument lies in V_h, whose boundary DOFs are zero, so no other part of
a_h is read); ``factor()`` and ``release_factor()``, the cached LU of
``matrix_free``; ``pairings(psi)``, a_h(w_i, .) of every spatial factor
of a clamped field; and ``triple_norm(v)``, sqrt(a_h(v, v)).
``cip.CipForm`` is one such form, and this module imports nothing from
``cip``.

Every integral names its own quadrature and ``fem`` builds it:
space integrals take the space's own rule inside the ``fem`` kernels,
so this module names no triangle rule, and each time integral of the
data names only its number of Gauss points, from which
``fem.sample_time_factors`` builds the rule; the norms of
``best_approx_terms`` are weighed by ``fem.space_time_norm``.  No rule
is built here: the Gram matrices of ``TimeBasis.gram`` are exact sums
over Legendre coefficients.  ``_tested_data`` tests the time factors that
``sample_time_factors`` samples against the dG basis; the loads of both
sweeps and the data side of ``bh_analytic`` are these arrays times
static tables, for ``dg_solve`` and ``bh_analytic`` at the same
``data_time_points(r)`` points, so Galerkin orthogonality holds up to
the space quadrature alone.  Only ``bh_analytic`` reads sigma_i', as
the time factors of ``_time_derivative``.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .fem import (_h1_lift, gradient_tables, h1_projection,
                  sample_time_factors, space_time_norm, term_tables)
from .linalg import Factorized, SolverError, refine
from .quadrature import cached_by_size, gauss_jacobi

__all__ = ["TimePartition", "make_partition", "radau_points", "TimeBasis",
           "time_modes", "DgSolution", "data_time_points", "dg_solve",
           "time_projection_values",
           "stability_functional", "stability_data_norm",
           "best_approx_terms", "bh_primal", "bh_dual", "bh_analytic"]


@dataclass(frozen=True)
class TimePartition:
    """Finite, strictly increasing nodes 0 = t_0 < ... < t_M = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least one interval")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
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


def make_partition(num_intervals, end_time=1.0):
    """Uniform partition of (0, T] into M intervals."""
    if num_intervals < 1:
        raise ValueError("need at least one interval")
    if end_time <= 0.0:
        raise ValueError("end time must be positive")
    return TimePartition(np.linspace(0.0, end_time, num_intervals + 1))


@cached_by_size("order", 0)
def radau_points(order):
    """Right Gauss-Radau points on (0, 1], the last one equal to 1.

    The r interior points are the roots of the Jacobi polynomial
    P_r^(1,0), mapped from [-1, 1]: ``quadrature.gauss_jacobi`` reads
    them from its table of scipy.special's roots for r <= 16 and imports
    scipy.special only for larger r.
    """
    roots = gauss_jacobi(order)[0] if order else np.zeros(0)
    pts = np.append(0.5 * (roots + 1.0), 1.0)
    pts.setflags(write=False)
    return pts


class TimeBasis:
    """Lagrange polynomials at the right Radau points of [0, 1].

    Each ell_a is held by its coefficients in the Legendre polynomials
    P_i(2 tau - 1), i <= r: column a of ``coef`` (the inverse of their
    Vandermonde matrix at the nodes) and, for ell_a', of ``dcoef``.  So
    the Gram matrices are exact sums, from int_0^1 P_i P_j d tau =
    delta_ij / (2i + 1), no quadrature rule is built and ell_a' is never
    evaluated.
    """

    def __init__(self, order):
        self.order = order
        self.nodes = radau_points(order)
        self.coef = np.linalg.inv(_legendre(self.nodes, order))
        # d/d tau = 2 d/dx; a zero top row keeps r + 1 rows after legder
        self.dcoef = 2.0 * np.polynomial.legendre.legder(
            np.vstack([self.coef, np.zeros(order + 1)]))
        self.left_values = self.values(0.0)

    def values(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = _legendre(np.atleast_1d(tau), self.order) @ self.coef
        return out[0] if tau.ndim == 0 else out

    def gram(self, da=0, db=0):
        """G[b, a] = int_0^1 ell_a^(da) ell_b^(db) d tau."""
        ca = self.dcoef if da else self.coef
        cb = self.dcoef if db else self.coef
        return cb.T @ (ca / (2.0 * np.arange(self.order + 1) + 1.0)[:, None])

    def coupling(self):
        """C = G' + l(0) l(0)^T: the time derivative and the incoming jump."""
        return self.gram(da=1) + np.outer(self.left_values, self.left_values)


def _legendre(tau, degree):
    """P_i(2 tau - 1) for i <= degree, one row per point of tau."""
    return np.polynomial.legendre.legvander(2.0 * tau - 1.0, degree)


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


def data_time_points(order):
    """Gauss points per interval for the data integrals of dG(r): r + 2.

    The transient solve and the analytic side of the space-time form
    share this rule, so Galerkin orthogonality holds up to the space
    quadrature alone.
    """
    return order + 2


def _tested_data(fld, partition, order, points):
    """The time factors of a field tested against the dG(r) basis.

    Returns W, (M, r+1, I) for the I terms of ``fld``, with
    W_m[a, i] = k_m sum_q w_q ell_a(tau_q) sigma_i(t_mq), from one
    ``sample_time_factors`` call at a Gauss rule of ``points`` points
    per interval.
    """
    rule, sig = sample_time_factors(fld, partition, points)
    tested = rule.weights[:, None] * TimeBasis(order).values(rule.points)
    return partition.lengths[:, None, None] * (tested.T @ sig)


def _time_derivative(fld):
    """The field sum_i sigma_i' w_i of a separable field, the one place
    the time layer reads ``dfn``; its own time factors carry no
    derivative."""
    return type(fld)([(type(tf)(tf.dfn, None), w) for tf, w in fld.terms])


def _initial_coefficients(space, psi0):
    if psi0 is None:
        return np.zeros(space.n_dofs)
    return h1_projection(space, psi0).coefficients


def dg_solve(form, partition, order, f=None, psi0=None):
    """Forward sweep for the fully discrete transient problem.

    Interval m solves C (K X) + k_m M (A X) = R for its (r+1, n_free)
    block X of nodal values, with K the gradient stiffness and A the
    eliminated a_h (``_forward_sweep``); a failure raises a
    ``SolverError`` carrying the 1-based ``interval`` and ``residual``.

    Parameters
    ----------
    form : the space form (module notes), e.g. ``cip.CipForm``
    partition : TimePartition
    order : int
        Polynomial degree r >= 0 in time.
    f : field or None
        Scalar data, None for a vanishing right-hand side.  Its time
        factors are tested at ``data_time_points(order)`` Gauss points
        per interval (``_tested_data``) and its separable terms load
        once each with the data rule (``term_tables``).
    psi0 : FeFunction, field or None
        Initial datum, entering through its H1_0 projection.

    The sweep never solves with A alone, so its first step releases the
    form's cached factor of A (``form.release_factor``), before K, the
    loads or any mode factor exist: the previous factors go before the
    next exist.  A later ``form.factor()`` factors A again.
    """
    form.release_factor()
    space = form.space
    free = space.free_dofs
    if f is None:  # no terms
        loads = np.zeros((0, free.size))
        weights = np.zeros((partition.num_intervals, order + 1, 0))
    else:
        loads = term_tables(space, f, "load")[:, free]
        weights = _tested_data(f, partition, order, data_time_points(order))
    coeffs = np.zeros((partition.num_intervals, order + 1, space.n_dofs))
    for m, block in enumerate(_forward_sweep(
            space.h1_free(), form.matrix_free, loads, weights,
            partition.lengths, _initial_coefficients(space, psi0)[free],
            order)):
        coeffs[m][:, free] = block
    return DgSolution(partition, space, order, coeffs)


def _forward_sweep(k_mat, a_mat, loads, weights, lengths, u0, order):
    """The dG(r) interval sweep C (K X) + k_m M (A X) = R from u0.

    K and A act on the unknowns of one time node and K may be singular
    (the MINI saddle has mass diag(M, M, 0, 0)).  The load of interval m
    is R = W_m b + ell(0) (K u_{m-1}): the tested data ``weights`` W
    (M, r+1, I) of ``_tested_data``, the stacked loads b (I, n) and the
    outgoing value of the previous interval.  Each interval is solved
    through the mode factors of ``time_modes`` and refined
    (``linalg.refine``) until ||R - C(KX) - k M(AX)|| <= _RTOL ||R||, a
    residual from C, M, K and A alone.  A run of intervals whose lengths
    agree with the first one's, k, to 1e-12 relative shares the factors
    and the operator built with k; both are dropped before the next
    run's exist.  A failure is tagged
    with its 1-based interval.  Yields the (r+1, n) block of each interval
    in turn, so the caller stores it where it belongs and no second copy of
    the trajectory exists.
    """
    basis = TimeBasis(order)
    coupling, mass = basis.coupling(), basis.gram()
    u_prev, k_run = u0, 0.0
    for m, km in enumerate(lengths):
        try:
            if abs(km - k_run) > 1e-12 * k_run:  # a new run of steps
                # the previous factors, and the operator that may hold
                # their matrix (r = 0), go before the next exist
                modes = system = None
                modes, system = _interval_system(order, coupling, mass,
                                                 k_mat, a_mat, km)
                k_run = km
            rhs = (weights[m] @ loads
                   + np.outer(basis.left_values, k_mat @ u_prev))
            block = refine(system, partial(_diagonal_solve, modes), rhs)
        except SolverError as exc:
            raise SolverError(f"interval {m + 1}: {exc}",
                              residual=exc.residual,
                              interval=m + 1) from exc
        yield block
        u_prev = block[-1]


def _interval_system(order, coupling, mass, k_mat, a_mat, km):
    """The mode factors and the coupled operator of an interval.

    The operator X -> C (K X) + k M (A X) on (r+1, n) blocks is built
    from the time matrices, K and A alone, never from the
    eigen-decomposition, so a wrong one fails the residual check.  At
    dG(0), C = M = Lambda = [1], so the operator is the factor's own
    assembled K + k A: summed as K x + k A x instead, a residual at the
    roundoff floor can round over rtol and cost a refinement step.
    """
    modes = [(Factorized(lam * k_mat + km * a_mat, refined=False), v, w)
             for lam, v, w in time_modes(order)]
    if order == 0:
        mat = modes[0][0].a
        return modes, lambda x: (mat @ x[0])[None]
    return modes, lambda x: (coupling @ (k_mat @ x.T).T
                             + km * (mass @ (a_mat @ x.T).T))


def _diagonal_solve(modes, rhs):
    """Re(V Y) with (lambda_i K + k A) y_i = (W rhs)_i for every mode."""
    x = np.zeros(rhs.shape)
    for factor, v, w in modes:
        x += np.outer(v, factor(w @ rhs)).real
    return x


def time_projection_values(order, partition, fld):
    """Interval-wise polynomial projection of the time factors of a field.

    Matches each sigma_i at the right endpoint of every interval and,
    for r >= 1, its moments against the Legendre polynomials
    P_j(2 tau - 1) of degree j < r, taken with 12 Gauss points (r + 2
    when more) sampled by ``sample_time_factors``.  Every interval and
    term is projected at once, with one r x r matrix for all of them:
    the moments of the basis, taken with the same rule, so that the
    roundoff of both sides cancels for a polynomial (against the exact
    moments, t^10 would land 2.1e-14 off instead of 5e-16).  Returns the
    nodal values at the right Radau points, shape (M, r+1, I) for the I
    terms of ``fld``; polynomials of degree <= r are reproduced to
    roundoff (2e-15 relative for t^r, r <= 12).
    """
    rule, sig = sample_time_factors(fld, partition, max(12, order + 2))
    legendre = _legendre(rule.points, order)[:, :order]        # (Q, r)
    gmat = np.einsum("q,qj,qa->ja", rule.weights, legendre,
                     TimeBasis(order).values(rule.points))     # (r, r+1)
    right = np.array([[tf.fn(t) for tf, _ in fld.terms]
                      for t in partition.nodes[1:]])           # (M, I)
    moments = np.einsum("q,qj,mqi->mji", rule.weights, legendre, sig)
    inner = np.linalg.solve(gmat[:, :-1],
                            moments - gmat[:, -1, None] * right[:, None])
    return np.concatenate([inner, right[:, None]], axis=1)


def stability_functional(sol, form, psi0=None):
    """Energy diagnostics (S1, S2, S3) of a dG trajectory.

    S1 sums the squared gradient norms of the time derivative, S2
    integrates the lifted operator action, S3 accumulates the jumps
    scaled by 1/k_m, the first jump taken against the projected initial
    datum.  S1 vanishes identically for r = 0.  Each row of the lift
    K^-1 A X is its own solve with its own residual check.
    """
    space = sol.space
    free = space.free_dofs
    k_free = space.h1_free()
    basis = sol.basis
    lengths = sol.partition.lengths
    x = sol.coefficients[..., free]                             # (M, r+1, n)
    ax = (form.matrix_free @ x.reshape(-1, free.size).T).T
    lifted = np.array([space.h1_factor()(row) for row in ax]).reshape(x.shape)
    prev = np.concatenate([_initial_coefficients(space, psi0)[free][None],
                           x[:-1, -1]])
    jumps = (basis.left_values @ x - prev)[:, None]
    return (_pair_blocks(basis.gram(da=1, db=1), k_free, x, x, 1.0 / lengths),
            _pair_blocks(basis.gram(), k_free, lifted, lifted, lengths),
            _pair_blocks(_ONE, k_free, jumps, jumps, 1.0 / lengths))


def stability_data_norm(form, f, partition, psi0=None):
    """Squared data norm bounding the stability functional.

    The functional data is rewritten in gradient form term by term: the
    spatial factor w_i of each separable term is lifted to g_i with
    (grad g_i, grad v) = <w_i, v> for all discrete v, which leaves the
    discrete trajectory unchanged.  The loads <w_i, v> are those of
    ``dg_solve`` (``term_tables``), the time integral takes 8
    Gauss points per interval.  Returns
    ||grad g||^2_{I x Omega} + |||P_h psi0|||_h^2.
    """
    space = form.space
    free = space.free_dofs
    k_free = space.h1_free()

    lifts = [space.h1_factor()(load[free])
             for load in term_tables(space, f, "load")]
    gram = np.array([[gi @ (k_free @ gj) for gj in lifts] for gi in lifts])

    rule, sig = sample_time_factors(f, partition, 8)
    quad = np.einsum("mpi,ij,mpj->mp", sig, gram, sig)
    total = float(partition.lengths @ (quad @ rule.weights))

    if psi0 is not None:
        total += form.triple_norm(h1_projection(space, psi0)) ** 2
    return total


def best_approx_terms(psi, form, partition, order):
    """The three projection errors of the best-approximation bound.

    Returns (E_chi, E_Rh, E_pik): the gradient-norm distances of the
    exact field to its combined space-time comparator (the H1_0
    projection composed with the interval-wise time projection), to its
    energy-form projection, and to its time projection.  Separable
    structure is exploited: each spatial factor is projected once, its
    gradient load and consistency pairing shared with ``bh_analytic``
    and its Ritz projection solved with ``form.factor()``.  The norms
    take 5 Gauss points per interval and the data rule in space.
    """
    space = form.space
    free = space.free_dofs
    exact = term_tables(space, psi, "grad")
    ritz = np.zeros((len(psi.terms), space.n_dofs))
    ritz[:, free] = [form.factor()(pair[free])
                     for pair in form.pairings(psi)]
    ritz = gradient_tables(space, ritz)
    h1p = gradient_tables(space, [
        _h1_lift(space, b) for b in term_tables(space, psi, "grad load")])
    exact_minus_ritz = exact - ritz
    exact_and_h1p = np.concatenate([exact, h1p])

    # sigma_i and its interval-wise time projection at the Gauss points
    trule, sig = sample_time_factors(psi, partition, 5)
    lv = TimeBasis(order).values(trule.points)                 # (P, r+1)
    pik = time_projection_values(order, partition, psi)         # (M, r+1, I)
    psig = lv @ pik                                             # (M, P, I)

    def norm(coefficients, tables):
        return space_time_norm(space, partition, trule, coefficients, tables,
                               None)

    return (norm(np.concatenate([sig, -psig], axis=-1), exact_and_h1p),
            norm(sig, exact_minus_ritz),
            norm(sig - psig, exact))


# -- the space-time bilinear form on coefficient blocks -----------------


_ONE = np.ones((1, 1))  # the Gram matrix of one-node blocks (jump terms)


def _pair_blocks(gram, mat, x, y, scale=None):
    """sum_m scale_m sum_ab G[b, a] (S x_ma) . y_mb over all intervals.

    x and y are (M, r+1, n) blocks (r+1 = 1 for values at one time) and
    S an (n, n) matrix; scale_m = 1 when ``scale`` is None.
    """
    sx = (mat @ x.reshape(-1, x.shape[-1]).T).T.reshape(x.shape)
    per = np.einsum("ba,maf,mbf->m", gram, sx, y)
    return float(per.sum() if scale is None else scale @ per)


def bh_primal(form, partition, order, ucoef, vcoef):
    """Space-time form in its forward shape on coefficient blocks.

    Both arguments have shape (M, r+1, n_dofs) and lie in V_h; a_h is
    read on their free DOFs.  The initial term pairs the incoming values
    at t_0; the jump terms couple each interval to the previous one.
    """
    k = form.space.h1_stiffness()
    basis = TimeBasis(order)
    u_prev = np.concatenate([np.zeros_like(ucoef[:1, -1]), ucoef[:-1, -1]])
    jumps = (basis.left_values @ ucoef - u_prev)[:, None]
    free = form.space.free_dofs
    return (_pair_blocks(basis.gram(da=1), k, ucoef, vcoef)
            + _pair_blocks(basis.gram(), form.matrix_free, ucoef[..., free],
                           vcoef[..., free], partition.lengths)
            + _pair_blocks(_ONE, k, jumps,
                           (basis.left_values @ vcoef)[:, None]))


def bh_dual(form, partition, order, ucoef, vcoef):
    """Space-time form in its backward shape (integrated by parts).

    Both arguments lie in V_h, as for ``bh_primal``.
    """
    k = form.space.h1_stiffness()
    basis = TimeBasis(order)
    # v_{m+1}^+ - v_m^-, with v_{M+1}^+ = 0 closing the final term
    v_next = np.concatenate([basis.left_values @ vcoef[1:],
                             np.zeros_like(vcoef[:1, -1])])
    jumps = (v_next - vcoef[:, -1])[:, None]
    free = form.space.free_dofs
    return (-_pair_blocks(basis.gram(db=1), k, ucoef, vcoef)
            + _pair_blocks(basis.gram(), form.matrix_free, ucoef[..., free],
                           vcoef[..., free], partition.lengths)
            - _pair_blocks(_ONE, k, ucoef[:, -1:], jumps))


def bh_analytic(form, psi, partition, order, vcoef):
    """Space-time form applied to a smooth clamped field against blocks.

    Realizes the extension of the form to continuous-in-time arguments:
    the field's jumps vanish, its elliptic pairing is the consistency
    pairing, and the initial term pairs the field at t = 0.  The data
    term is sum W' (V b) + sum W (V c) over the gradient loads b_i and
    the consistency pairings c_i of the terms, with the tested data W of
    ``_tested_data`` at ``data_time_points(order)``, the array that
    loads ``dg_solve``, and W' the same of ``_time_derivative(psi)``.
    Its space rule is the data rule, so Galerkin orthogonality holds up
    to the space quadrature of the two sides.
    """
    space = form.space
    basis = TimeBasis(order)
    gloads = term_tables(space, psi, "grad load")               # (I, n)
    cpairs = form.pairings(psi)
    points = data_time_points(order)
    weights = _tested_data(psi, partition, order, points)
    dweights = _tested_data(_time_derivative(psi), partition, order, points)
    total = float(np.vdot(dweights, vcoef @ gloads.T)
                  + np.vdot(weights, vcoef @ cpairs.T))

    sig0 = np.array([tf.fn(0.0) for tf, _ in psi.terms])
    total += float((sig0 @ gloads) @ (basis.left_values @ vcoef[0]))
    return total
