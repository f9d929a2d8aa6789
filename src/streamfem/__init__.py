"""Stream-function solver for the time-dependent Stokes problem.

The velocity is represented through a scalar stream function whose
evolution satisfies a fourth-order parabolic equation; space is
discretized with the C0 interior-penalty method on Lagrange elements,
time with discontinuous Galerkin of arbitrary order.  A MINI-element
mixed solver serves as the pressure-coupled baseline for the
robustness comparison.
"""

from .mesh import Mesh, build_structured_mesh
from .quadrature import QuadratureRule, triangle_rule, interval_rule
from .fem import (FeSpace, FeFunction, build_space, reference_basis,
                  assemble_h1_stiffness, assemble_load_scalar,
                  assemble_load_gradient, h1_projection, h1_field_error,
                  space_time_h1_error)
from .linalg import SolverError, Factorized
from .cip import (CipForm, CoercivityError, assemble_cip,
                  consistency_pairing, ritz_projection, apply_Ah)
from .dg_time import (TimePartition, DgSolution, make_partition, dg_solve,
                      time_projection_values, stability_functional,
                      stability_data_norm, best_approx_terms)
from .mini_stokes import (MiniSpace, build_mini_space, mini_transient_solve,
                          velocity_error_l2)
from . import manufactured

__version__ = "0.1.0"
