"""Differential forms on R^N: exterior derivative and pullback.

A degree-p form is a merged list of (strictly increasing multi-index,
coefficient expression) terms; coefficients are DSL expressions in the ambient
coordinates ``a1..aN``.  Pullback along a simplex evaluator is computed from
exact symbolic Jacobians, taken with the values in one evaluator call
(``evaluate_with_jacobian_many``), one minor determinant per term.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import expr as ex
from .chains import SingularSimplex

__all__ = [
    "Form",
    "exterior_derivative",
    "pullback_many",
    "pullback_top_many",
]


def _merge_terms(raw, degree, ambient):
    """Combine signed coefficient contributions per multi-index, dropping
    terms whose combined coefficient cancels structurally."""
    pools: dict[tuple, list] = {}
    for idx, sign, coeff in raw:
        idx = tuple(idx)
        if len(idx) != degree or list(idx) != sorted(set(idx)):
            raise ValueError(f"multi-index {idx} must be strictly increasing")
        if idx and not (1 <= idx[0] and idx[-1] <= ambient):
            raise ValueError(f"multi-index {idx} out of range for ambient {ambient}")
        pool = pools.setdefault(idx, [])
        for k, (s2, c2) in enumerate(pool):
            if c2 == coeff:
                pool[k] = (s2 + sign, c2)
                break
        else:
            pool.append((sign, coeff))
    terms = []
    for idx in sorted(pools):
        addends = [(s, c) for s, c in pools[idx] if s != 0]
        if not addends:
            continue
        acc = None
        for s, c in addends:
            piece = ex.mul(ex.const(s), c) if s != 1 else c
            acc = piece if acc is None else ex.add(acc, piece)
        if ex.is_structurally_zero(acc):
            continue
        terms.append((idx, acc))
    return tuple(terms)


class Form:
    """Differential form of fixed degree on R^ambient."""

    def __init__(self, degree: int, ambient: int, terms):
        if not 0 <= degree <= ambient:
            raise ValueError("form degree must lie between 0 and the ambient dimension")
        self.degree = degree
        self.ambient = ambient
        parsed = []
        for idx, coeff in terms:
            if isinstance(coeff, str):
                coeff = ex.parse(coeff, ambient)
            parsed.append((idx, 1, coeff))
        self.terms = _merge_terms(parsed, degree, ambient)
        self._vfns = [ex.compile_vec(c) for _, c in self.terms]

    @classmethod
    def _from_signed(cls, degree, ambient, raw):
        f = cls.__new__(cls)
        f.degree = degree
        f.ambient = ambient
        f.terms = _merge_terms(raw, degree, ambient)
        f._vfns = [ex.compile_vec(c) for _, c in f.terms]
        return f

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients_many(self, points: np.ndarray) -> np.ndarray:
        """The coefficients (n, terms) at the points (n, ambient), in term order."""
        cols = np.asarray(points, dtype=float).T
        return np.stack([fn(cols) for fn in self._vfns], axis=1)

    def __add__(self, other: "Form") -> "Form":
        if (other.degree, other.ambient) != (self.degree, self.ambient):
            raise ValueError("cannot add forms of different degree/ambient")
        raw = [(idx, 1, c) for idx, c in self.terms]
        raw += [(idx, 1, c) for idx, c in other.terms]
        return Form._from_signed(self.degree, self.ambient, raw)

    def scale(self, q) -> "Form":
        raw = [(idx, 1, ex.mul(ex.const(q), c)) for idx, c in self.terms]
        return Form._from_signed(self.degree, self.ambient, raw)

    def __repr__(self):
        body = " + ".join(f"[{ex.to_string(c)}] d{list(i)}" for i, c in self.terms) or "0"
        return f"<Form deg={self.degree} {body}>"


def exterior_derivative(omega: Form) -> Form:
    """d(h dx_I) = sum_j (dh/dx_j) dx_j ^ dx_I, normalised to increasing
    indices; structurally cancelling coefficients are dropped on merge."""
    raw = []
    for idx, coeff in omega.terms:
        for j in range(1, omega.ambient + 1):
            if j in idx:
                continue
            dcoeff = ex.diff(coeff, j)
            if dcoeff.kind == "const" and dcoeff.value == 0:
                continue
            pos = sum(1 for i in idx if i < j)
            new_idx = tuple(sorted(idx + (j,)))
            raw.append((new_idx, (-1) ** pos, dcoeff))
    return Form._from_signed(omega.degree + 1, omega.ambient, raw)


def pullback_many(sigma: SingularSimplex, omega: Form, points: np.ndarray) -> dict:
    """All components of sigma^*(omega) at a batch of interior points of the
    domain, keyed by the strictly increasing subsets of domain coordinates
    (1-based); each value holds one entry per point."""
    if omega.ambient != sigma.ambient:
        raise ValueError("form and simplex live in different ambient spaces")
    k = sigma.dim
    p = omega.degree
    if p > k:
        return {}
    pts = np.asarray(points, dtype=float)
    if p > 0 and omega.terms:
        x, jac = sigma.evaluate_with_jacobian_many(pts)
    else:
        x, jac = sigma.evaluate_many(pts), None
    subsets = list(itertools.combinations(range(k), p))
    out = {tuple(i + 1 for i in cols): np.zeros(pts.shape[0]) for cols in subsets}
    if not omega.terms:
        return out
    coords = x.T
    for (idx, _), vf in zip(omega.terms, omega._vfns):
        c = vf(coords)
        rows = jac[:, [i - 1 for i in idx]] if p > 0 else None
        for cols, total in zip(subsets, out.values()):
            total += c * _det_many(rows[:, :, cols]) if p > 0 else c
    return out


def _det_many(sub: np.ndarray) -> np.ndarray:
    p = sub.shape[1]
    if p == 1:
        return sub[:, 0, 0]
    if p == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    if p == 3:  # cofactors of the first row
        (a, b, c), (d, e, f), (g, h, i) = sub.transpose(1, 2, 0)
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(sub)


def pullback_top_many(sigma: SingularSimplex, omega: Form, points: np.ndarray) -> np.ndarray:
    """Batch top-degree pullback densities at many interior points."""
    if omega.degree != sigma.dim:
        raise ValueError("pullback density needs deg(omega) == dim(sigma)")
    return pullback_many(sigma, omega, points)[tuple(range(1, sigma.dim + 1))]

