"""Library API tour: assemble, solve, and measure one discretization.

Solves the smooth manufactured problem with the H(div)-conforming method
(M3) at degree 2 on a curved disc mesh and prints the error norms.

Run:  python3 demos/quickstart.py
"""

from gdfem import assemble_method, error_norms, make_unit_disc_mesh, solve
from gdfem.mesh import mesh_size
from gdfem.problems import convergence_problem

# A quadratically curved mesh resolves the circular boundary well enough
# for every degree used here.
mesh = make_unit_disc_mesh(level=2, geom_order=2)
print(f"mesh: {mesh.num_triangles} triangles, h = {mesh_size(mesh):.4f}")

# Manufactured solution u = sin(pi x) cos(pi y) (-y, x) with matching f;
# coefficients rho = c_s = 1, b = 0.1 (-y, x) (amplitude b_inf = 0.1),
# penalties 10 p^2 / 100 p^2.
prob = convergence_problem(p=2)

system = assemble_method("M3", mesh, 2, prob.coeffs, prob.f)
print(f"assembled M3: {system.system.matrix.shape[0]} dofs, "
      f"{len(system.system.constrained)} constrained (boundary normal)")

u_h, _ = system.split(solve(system.system))   # M3 has no pseudo-pressure
res, = error_norms(u_h, prob, prob.coeffs, method="M3")   # one solution
print(f"L2 error:          {res['l2_error']:.4e}")
print(f"energy-norm error: {res['xh_error']:.4e}")
print(f"solution L2 norm:  {res['l2_norm']:.4e}")
