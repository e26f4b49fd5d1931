"""Reference computations the tests check the library against.

Each one recomputes a value the library derives another way: the closed
form of <A^n u, tau> evaluated term by term, and a maximum over a
polyhedron solved as one LP over its generators.
"""

from __future__ import annotations

from math import comb

from ltireach.exactnum import ALG_ZERO, RealAlg
from ltireach.geometry import GenPolyhedron, LpResult, constraint, lp_solve
from ltireach.linalg import SpectralData, Vec, vec_add, vec_dot, vec_scale, zero_vec


def inner_product_at(s: SpectralData, coeffs: list[list[RealAlg]], n: int) -> RealAlg:
    """Evaluate the expanded form sum_{i,j} C(n,j) lam_i^n c[i][j] of
    `linalg.expand_inner_product` at integer n >= 0."""
    acc = ALG_ZERO
    for i, lam in enumerate(s.eigenvalues):
        lam_n = lam ** n
        for j in range(s.dim):
            c = coeffs[i][j]
            if c.sign() != 0 and comb(n, j) != 0:
                acc = acc + c * comb(n, j) * lam_n
    return acc


def maximize_over(p: GenPolyhedron, direction: Vec) -> LpResult:
    """Maximize <direction, x> over the polyhedron via its generators."""
    if p.is_empty:
        return LpResult("infeasible")
    nv, nr, nl = len(p.vertices), len(p.rays), len(p.lines)
    n = nv + nr + nl
    cons = [constraint([1] * nv + [0] * (nr + nl), "==", 1)]
    obj = [vec_dot(direction, g) for g in p.vertices + p.rays + p.lines]
    nonneg = [True] * (nv + nr) + [False] * nl
    res = lp_solve(obj, cons, n, nonneg=nonneg)
    if res.status != "optimal":
        return res
    coeffs = res.point
    x = zero_vec(p.dim)
    for c, g in zip(coeffs, p.vertices + p.rays + p.lines):
        x = vec_add(x, vec_scale(g, c))
    return LpResult("optimal", res.value, x)
