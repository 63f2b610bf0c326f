"""Reference-triangle polynomial machinery shared by geometry and FE bases.

The reference triangle has vertices V0=(0,0), V1=(1,0), V2=(0,1).
Local edges are numbered by their vertex pairs: edge 0 = (0,1),
edge 1 = (1,2), edge 2 = (2,0).
"""

import functools
import math

import numpy as np

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EDGE_VERTICES = [(0, 1), (1, 2), (2, 0)]
# outward unit normals of the reference edges
EDGE_NORMALS = np.array([[0.0, -1.0],
                         [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                         [-1.0, 0.0]])


def monomial_exponents(p):
    """Exponent pairs (a, b) of all monomials x^a y^b with a + b <= p."""
    return [(a, b) for deg in range(p + 1) for a in range(deg, -1, -1)
            for b in [deg - a]]


def eval_monomials(exps, pts, order=0):
    """Values (order 0), gradients (1) or Hessians (2) of monomials at pts.

    Shape (npts, nmono) + (2,) * order.  Each entry is the derivative
    d_x^i d_y^j (x^a y^b) = a!/(a-i)! b!/(b-j)! x^(a-i) y^(b-j), taken as
    zero where i > a or j > b.
    """
    x, y = pts[:, 0], pts[:, 1]
    out = np.zeros((len(pts), len(exps)) + (2,) * order)
    for m, (a, b) in enumerate(exps):
        for axes in np.ndindex(out.shape[2:]):
            j = sum(axes)
            i = order - j
            c = math.perm(a, i) * math.perm(b, j)
            if c:
                out[(slice(None), m) + axes] = c * x ** (a - i) * y ** (b - j)
    return out


def lattice_multiindices(p):
    """Barycentric integer triples (a0, a1, a2), a0+a1+a2 = p, of the P^p lattice.

    The point of node (a0, a1, a2) is (a1/p, a2/p).  Ordering is
    deterministic: vertices first, then edge nodes (walked from the lower
    local vertex of each edge), then interior nodes.
    """
    nodes = [(p, 0, 0), (0, p, 0), (0, 0, p)]
    for va, vb in EDGE_VERTICES:
        for s in range(1, p):
            tri = [0, 0, 0]
            tri[va] = p - s
            tri[vb] = s
            nodes.append(tuple(tri))
    for a1 in range(1, p):
        for a2 in range(1, p - a1):
            nodes.append((p - a1 - a2, a1, a2))
    return nodes


def lattice_points(p):
    return np.array([[a1 / p, a2 / p]
                     for (_, a1, a2) in lattice_multiindices(p)])


class LagrangeBasis:
    """Nodal Lagrange basis of degree p on the reference triangle.

    Built by inverting the monomial Vandermonde at the lattice nodes;
    fine for the moderate degrees (p <= 4, geometry orders alike) used here.
    """

    def __init__(self, p):
        self.exps = monomial_exponents(p)
        self.nodes = lattice_points(p)
        V = eval_monomials(self.exps, self.nodes)
        self.coeffs = np.linalg.inv(V)  # column j: monomial coeffs of basis j

    def eval(self, pts):
        """Basis values, shape (npts, ndof)."""
        return eval_monomials(self.exps, pts) @ self.coeffs

    def grad(self, pts):
        """Reference gradients, shape (npts, ndof, 2)."""
        G = eval_monomials(self.exps, pts, 1)
        return np.einsum("nmd,mj->njd", G, self.coeffs)

    def hess(self, pts):
        """Reference second derivatives, shape (npts, ndof, 2, 2)."""
        H = eval_monomials(self.exps, pts, 2)
        return np.einsum("nmde,mj->njde", H, self.coeffs)


@functools.cache
def lagrange_basis(p):
    return LagrangeBasis(p)


def shifted_legendre(j, t):
    """Legendre polynomial of degree j shifted to [0, 1]."""
    return np.polynomial.legendre.legval(2.0 * np.asarray(t) - 1.0,
                                         [0.0] * j + [1.0])
