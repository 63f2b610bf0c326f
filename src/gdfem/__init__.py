"""Finite element discretizations of the grad-div / streamline-derivative
model problem  -grad(c_s^2 div u) + d_b d_b u - |b|_inf^2 u = f  with
u.n = 0 on the curved unit disc, for the rotational background flow
b = b_inf (-y, x) and rho = 1 (a constant rho only rescales f to f/rho).

Four discretizations of the same weak problem are provided:

* M1 -- H1-conforming vector Lagrange elements, normal trace imposed weakly.
* M2 -- H1-conforming velocity with an auxiliary continuous pseudo-pressure
  (a Taylor-Hood-type saddle system).
* M3 -- H(div)-conforming BDM elements with an interior-penalty treatment of
  the streamline-derivative term; normal trace imposed strongly.
* M4 -- fully discontinuous vector elements with interior penalties for both
  the streamline-derivative and the grad-div term.

Submodules: `quadrature`, `reference`, `mesh`, `fespace`, `forms`, `linalg`,
`problems`, `cli`.
"""

__version__ = "0.1.0"

from .mesh import make_unit_disc_mesh, make_unit_square_mesh, mesh_size, refine
from .fespace import build_space, DiscreteField
from .forms import (METHODS, CoefficientSet, assemble_method, error_norms,
                    method_spaces, paper_coefficients)
from .linalg import LinearSystem, solve, estimate_control_constant
from .problems import (ManufacturedProblem, convergence_problem,
                       gradrob_problem, locking_problem)

__all__ = [
    "__version__",
    "make_unit_disc_mesh", "make_unit_square_mesh", "mesh_size", "refine",
    "build_space", "DiscreteField",
    "METHODS", "CoefficientSet", "assemble_method", "error_norms",
    "method_spaces", "paper_coefficients",
    "LinearSystem", "solve", "estimate_control_constant",
    "ManufacturedProblem", "convergence_problem", "gradrob_problem",
    "locking_problem",
]
