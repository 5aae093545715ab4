"""Stokes verification for simplices, chains, and oriented triangulations.

The residual of a simplex is |int sigma^*(d omega) - int_boundary sigma^*(omega)|
with the boundary integral taken as the alternating sum over face
restrictions.  For a triangulation, interior faces are identified
combinatorially and their paired contributions are checked to cancel; the
leftover faces form the boundary chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import Chain, SingularSimplex
from .expr import domain_site
from .forms import Form, exterior_derivative
from .quad import QuadConfig, QuadResult, integrate_simplex

__all__ = [
    "StokesReport",
    "ChainStokesReport",
    "TriangulatedStokesReport",
    "stokes_residual",
    "check_chain",
    "triangulated_stokes",
    "NonManifoldError",
]


class NonManifoldError(Exception):
    """A (d-1)-face met more than two top simplices."""


def _verdict(residual, lhs, rhs, all_converged, floor, tol):
    if not all_converged:
        return "inconclusive"
    bound = max(floor, tol * (abs(lhs) + abs(rhs)))
    return "pass" if residual <= bound else "fail"


@dataclass
class StokesReport:
    lhs: QuadResult
    rhs_faces: list
    rhs: float
    residual: float
    verdict: str

    def to_dict(self):
        return {
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs,
            "rhs_faces": [r.to_dict() for r in self.rhs_faces],
            "residual": self.residual,
            "verdict": self.verdict,
        }


def stokes_residual(
    sigma: SingularSimplex,
    omega: Form,
    tol: float = 1e-6,
    config: QuadConfig | None = None,
) -> StokesReport:
    """Check int sigma^*(d omega) == sum_i (-1)^i int (sigma o face_i)^*(omega).

    ``tol`` is the verdict threshold; the component quadratures run at
    tol/100 so quadrature noise stays below it.
    """
    d = sigma.dim
    if omega.degree != d - 1:
        raise ValueError("stokes_residual needs deg(omega) == dim(sigma) - 1")
    lhs = integrate_simplex(sigma, exterior_derivative(omega), tol / 100.0, config)
    rhs_faces = []
    rhs = 0.0
    for i in range(d + 1):
        with domain_site(f"face {i}"):
            r = integrate_simplex(sigma.face(i), omega, tol / 100.0, config)
        rhs_faces.append(r)
        rhs += (-1) ** i * r.value
    residual = abs(lhs.value - rhs)
    ok = lhs.converged and all(r.converged for r in rhs_faces)
    return StokesReport(lhs, rhs_faces, rhs, residual, _verdict(residual, lhs.value, rhs, ok, tol, tol))


@dataclass
class ChainStokesReport:
    per_term: list
    lhs: float
    rhs: float
    residual: float
    sum_abs_residuals: float
    verdict: str

    def to_dict(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "sum_abs_residuals": self.sum_abs_residuals,
            "verdict": self.verdict,
            "per_term": [{"coeff": c, "report": r.to_dict()} for c, r in self.per_term],
        }


def check_chain(
    c: Chain, omega: Form, tol: float = 1e-6, config: QuadConfig | None = None
) -> ChainStokesReport:
    """Termwise Stokes residuals, combined linearly over the chain."""
    if omega.degree != c.degree - 1:
        raise ValueError(f"check_chain needs a degree-{c.degree - 1} form, got degree {omega.degree}")
    per_term = []
    lhs = rhs = sum_abs = 0.0
    ok = True
    for sigma, n in c.items():
        rep = stokes_residual(sigma, omega, tol, config)
        per_term.append((n, rep))
        lhs += n * rep.lhs.value
        rhs += n * rep.rhs
        sum_abs += abs(n) * rep.residual
        ok = ok and rep.verdict != "inconclusive"
    residual = abs(lhs - rhs)
    n_terms = max(1, len(per_term))
    verdict = _verdict(residual, lhs, rhs, ok, tol * n_terms, tol)
    return ChainStokesReport(per_term, lhs, rhs, residual, sum_abs, verdict)


@dataclass
class TriangulatedStokesReport:
    total_lhs: float
    interior_residuals: dict
    boundary_terms: list  # (face key, top simplex key index, sign, integral)
    boundary_integral: float
    verdict: str


def triangulated_stokes(
    tops: list,
    omega: Form,
    tol: float = 1e-6,
    config: QuadConfig | None = None,
) -> TriangulatedStokesReport:
    """Stokes over an oriented triangulation given as a list of
    (vertex_tuple, evaluator) pairs with consistently oriented top simplices.

    Computes the summed left and right sides, verifies that the two
    contributions of every interior (d-1)-face cancel, and returns the
    uncancelled faces (the boundary chain) with their summed integral.
    """
    total_lhs = 0.0
    contributions: dict[tuple, list] = {}
    ok = True
    for verts, sigma in tops:
        rep = stokes_residual(sigma, omega, tol, config)
        ok = ok and rep.verdict != "inconclusive"
        total_lhs += rep.lhs.value
        for i, r in enumerate(rep.rhs_faces):
            fkey = tuple(sorted(v for k, v in enumerate(verts) if k != i))
            contributions.setdefault(fkey, []).append((verts, (-1) ** i, r.value))
    interior = {}
    boundary_terms = []
    boundary_integral = 0.0
    for fkey, group in sorted(contributions.items()):
        if len(group) > 2:
            raise NonManifoldError(f"face {fkey} lies in {len(group)} top simplices")
        if len(group) == 2:
            interior[fkey] = abs(group[0][1] * group[0][2] + group[1][1] * group[1][2])
        else:
            verts, s, v = group[0]
            boundary_terms.append((fkey, verts, s, v))
            boundary_integral += s * v
    residual = abs(total_lhs - boundary_integral)
    cancel_ok = all(v <= max(tol, tol * abs(total_lhs)) for v in interior.values())
    verdict = _verdict(residual, total_lhs, boundary_integral, ok and cancel_ok, tol, tol)
    return TriangulatedStokesReport(total_lhs, interior, boundary_terms, boundary_integral, verdict)
