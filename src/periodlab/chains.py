"""Singular simplices, integer chains, boundary, cone and prism constructions.

The standard d-simplex is ``{(a_1,...,a_d) : a_i >= 0, sum a_i <= 1}`` with
vertex 0 at the origin and vertex k at the k-th basis vector.  A singular
simplex is a continuous map of the closed simplex into R^N, C^1 on each open
face; evaluators come in five flavours (expression-backed, affine, cone,
prism, composed; glue adds a sixth) and every one exposes an exact Jacobian
at interior points.  Evaluators implement the batch methods
``evaluate_many``/``jacobian_many``; ``evaluate``/``jacobian`` at one point
are a batch of one, and ``evaluate_with_jacobian_many`` is both batches from
one call, which the prism and composed maps answer evaluating their inner
map once, and a glued map inverting its transition map once.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import expr as ex
from .homology import SimplicialComplex, maximal_flags

__all__ = [
    "SingularSimplex",
    "ExprMap",
    "AffineSimplex",
    "Cone",
    "PrismMap",
    "Composed",
    "Chain",
    "face_map",
    "boundary",
    "barycentric_subdivide",
    "flag_simplex",
    "reference_subdivision",
    "reference_vertices",
    "interior_grid",
]


def reference_vertices(d: int) -> np.ndarray:
    """(d+1, d) vertices of the standard d-simplex: the origin, then e_1..e_d."""
    return np.vstack([np.zeros((1, d)), np.eye(d)])


GRID_SHRINK = 1e-3  # interior_grid keeps points at least this far inside the far face


def interior_grid(d: int, m: int = 3) -> np.ndarray:
    """(n, d) deterministic strictly-interior sample points of the open d-simplex,
    at ``m`` steps per axis (every sampled check in the library uses 3)."""
    if d == 0:
        return np.zeros((1, 0))
    pts = []
    for idx in itertools.product(range(1, m + 1), repeat=d):
        if sum(idx) > m + d:
            continue
        p = np.array(idx, dtype=float) / (m + d + 1)
        if p.sum() < 1.0 - GRID_SHRINK:
            pts.append(p)
    if not pts:
        pts = [np.full(d, 1.0 / (2 * d + 2))]
    return np.array(pts)


class SingularSimplex:
    """Base class: a map of the closed d-simplex into R^ambient."""

    dim: int
    ambient: int
    domain = "simplex"

    def evaluate(self, point) -> np.ndarray:
        return self.evaluate_many(np.asarray(point, dtype=float)[None])[0]

    def jacobian(self, point) -> np.ndarray:
        """ambient x dim matrix of partial derivatives at an interior point."""
        return self.jacobian_many(np.asarray(point, dtype=float)[None])[0]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """(n, ambient) values at an (n, dim) batch of points."""
        raise NotImplementedError

    def jacobian_many(self, points: np.ndarray) -> np.ndarray:
        """(n, ambient, dim) Jacobians at an (n, dim) batch of interior points."""
        raise NotImplementedError

    def evaluate_with_jacobian_many(self, points: np.ndarray):
        """(evaluate_many(points), jacobian_many(points)), bit for bit, and the
        same first error."""
        return self.evaluate_many(points), self.jacobian_many(points)

    def key(self):
        raise NotImplementedError

    def face(self, i: int) -> "SingularSimplex":
        return Composed(self, face_map(self.dim, i))

    def __eq__(self, other):
        return isinstance(other, SingularSimplex) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} ambient={self.ambient}>"


class ExprMap(SingularSimplex):
    """Simplex given by N component expressions in the simplex coordinates."""

    def __init__(self, components, dim: int):
        self.components = tuple(ex.parse(c, dim) if isinstance(c, str) else c for c in components)
        self.dim = dim
        self.ambient = len(self.components)

    # compiled on first use: a manifest loads all its simplices, and a
    # command evaluates a few of them
    @functools.cached_property
    def _vfns(self):
        return [ex.compile_vec(c) for c in self.components]

    @functools.cached_property
    def _vjac_fns(self):
        return [[ex.compile_vec(ex.diff(c, j + 1)) for j in range(self.dim)] for c in self.components]

    def evaluate_many(self, points):
        cols = np.asarray(points, dtype=float).T
        return np.stack([f(cols) for f in self._vfns], axis=1)

    def jacobian_many(self, points):
        cols = np.asarray(points, dtype=float).T
        n = cols.shape[1]
        out = np.empty((n, self.ambient, self.dim))
        for i, row in enumerate(self._vjac_fns):
            for j, f in enumerate(row):
                out[:, i, j] = f(cols)
        return out

    def key(self):
        return ("expr", self.dim, self.components)


class AffineSimplex(SingularSimplex):
    """Affine simplex spanned by an ordered list of d+1 vertices in R^N."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a (d+1) x N array")
        self.vertices = v
        self.dim = v.shape[0] - 1
        self.ambient = v.shape[1]
        self._linear = (v[1:] - v[0]).T if self.dim > 0 else np.zeros((self.ambient, 0))

    def evaluate_many(self, points):
        p = np.asarray(points, dtype=float)
        return self.vertices[0] + p @ self._linear.T

    def jacobian_many(self, points):
        n = np.asarray(points).shape[0]
        return np.broadcast_to(self._linear, (n, self.ambient, self.dim)).copy()

    def face(self, i):
        return AffineSimplex(np.delete(self.vertices, i, axis=0))

    def compose_affine(self, inner: "AffineSimplex") -> "AffineSimplex":
        """self o inner, as an affine simplex (inner maps into our domain)."""
        return AffineSimplex(self.evaluate_many(inner.vertices))

    def key(self):
        return ("affine", tuple(map(tuple, self.vertices.tolist())))


class Cone(SingularSimplex):
    """Cone over a simplex: interpolates linearly between the origin of R^N
    and the wrapped simplex, which sits on the face opposite vertex 0."""

    def __init__(self, inner: SingularSimplex):
        if inner.domain != "simplex":
            raise ValueError("can only cone a simplex-domain map")
        self.inner = inner
        self.dim = inner.dim + 1
        self.ambient = inner.ambient

    def evaluate_many(self, points):
        p = np.asarray(points, dtype=float)
        a = p.sum(axis=1)
        out = np.zeros((p.shape[0], self.ambient))
        pos = a > 0.0  # the cone point itself never queries the wrapped simplex
        out[pos] = a[pos, None] * self.inner.evaluate_many(p[pos, 1:] / a[pos, None])
        return out

    def jacobian_many(self, points):
        p = np.asarray(points, dtype=float)
        a = p.sum(axis=1)
        u = p[:, 1:] / a[:, None]
        vals = self.inner.evaluate_many(u)
        jacs = self.inner.jacobian_many(u)
        base = vals - np.einsum("nij,nj->ni", jacs, u)
        out = np.empty((p.shape[0], self.ambient, self.dim))
        out[:, :, 0] = base
        out[:, :, 1:] = base[:, :, None] + jacs
        return out

    def face(self, i):
        # The face opposite the cone vertex is the wrapped simplex itself;
        # every other face is the cone of the matching face of the wrapped
        # simplex.  Using the identities structurally keeps evaluation away
        # from the wrapped simplex's singular locus (a naive composition
        # would query its Jacobian exactly there).
        if i == 0:
            return self.inner
        if self.inner.dim == 0:
            return AffineSimplex(np.zeros((1, self.ambient)))  # the cone point
        return Cone(self.inner.face(i - 1))

    def key(self):
        return ("cone", self.inner.key())


class PrismMap(SingularSimplex):
    """Map (t, b) |-> f(t) * sigma(b) on [0,1] x Delta_d (a prism, not a
    simplex; chains and simplex quadrature refuse it)."""

    domain = "prism"

    def __init__(self, inner: SingularSimplex, profile):
        self.inner = inner
        self.profile = ex.parse(profile, 1) if isinstance(profile, str) else profile
        self.dim = inner.dim + 1
        self.ambient = inner.ambient
        self._vf = ex.compile_vec(self.profile)
        self._vdf = ex.compile_vec(ex.diff(self.profile, 1))

    def evaluate_many(self, points):
        p = np.asarray(points, dtype=float)
        f = self._vf(p[:, :1].T)
        return f[:, None] * self.inner.evaluate_many(p[:, 1:])

    def jacobian_many(self, points):
        return self.evaluate_with_jacobian_many(points)[1]

    def evaluate_with_jacobian_many(self, points):
        p = np.asarray(points, dtype=float)
        f = self._vf(p[:, :1].T)
        vals = self.inner.evaluate_many(p[:, 1:])
        df = self._vdf(p[:, :1].T)
        jacs = self.inner.jacobian_many(p[:, 1:])
        out = np.empty((p.shape[0], self.ambient, self.dim))
        out[:, :, 0] = df[:, None] * vals
        out[:, :, 1:] = f[:, None, None] * jacs
        return f[:, None] * vals, out

    def key(self):
        return ("prism", self.inner.key(), self.profile)


class Composed(SingularSimplex):
    """outer o inner for an inner map whose image lies in outer's domain."""

    def __new__(cls, outer, inner):
        # keep affine-affine compositions affine so chain terms merge exactly
        if isinstance(outer, AffineSimplex) and isinstance(inner, AffineSimplex):
            return outer.compose_affine(inner)
        if isinstance(outer, Composed) and isinstance(inner, AffineSimplex) and isinstance(
            outer.inner, AffineSimplex
        ):
            return Composed(outer.outer, outer.inner.compose_affine(inner))
        return super().__new__(cls)

    def __init__(self, outer: SingularSimplex, inner: SingularSimplex):
        if getattr(self, "outer", None) is not None:
            return  # __new__ handed back an already-flattened instance
        if inner.ambient != outer.dim:
            raise ValueError("inner map must land in the outer domain")
        self.outer = outer
        self.inner = inner
        self.dim = inner.dim
        self.ambient = outer.ambient
        self.domain = inner.domain  # a prism under an outer map is still a prism

    def evaluate_many(self, points):
        return self.outer.evaluate_many(self.inner.evaluate_many(points))

    def jacobian_many(self, points):
        n = np.asarray(points).shape[0]
        if self.dim == 0:
            return np.zeros((n, self.ambient, 0))
        mid = self.inner.evaluate_many(points)
        return np.einsum(
            "nij,njk->nik", self.outer.jacobian_many(mid), self.inner.jacobian_many(points)
        )

    def evaluate_with_jacobian_many(self, points):
        # the order of the two calls: inner and outer values, outer and inner Jacobians
        if self.dim == 0:
            return self.evaluate_many(points), self.jacobian_many(points)
        mid = self.inner.evaluate_many(points)
        vals, outer_jac = self.outer.evaluate_with_jacobian_many(mid)
        return vals, np.einsum("nij,njk->nik", outer_jac, self.inner.jacobian_many(points))

    def face(self, i):
        return Composed(self.outer, self.inner.face(i))

    def key(self):
        return ("composed", self.outer.key(), self.inner.key())


def face_map(d: int, i: int) -> AffineSimplex:
    """Affine embedding of Delta_{d-1} onto the face of Delta_d opposite
    vertex i, vertex order inherited from the ambient order."""
    if d < 1:
        raise ValueError("face_map needs dimension >= 1")
    if not 0 <= i <= d:
        raise IndexError(f"face index {i} out of range for dimension {d}")
    return AffineSimplex(np.delete(reference_vertices(d), i, axis=0))


class Chain:
    """Formal integer combination of singular simplices of one dimension."""

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        self.terms: dict[SingularSimplex, int] = {}
        if terms:
            for sigma, n in terms.items() if isinstance(terms, dict) else terms:
                self._bump(sigma, n)

    def _bump(self, sigma: SingularSimplex, n: int):
        if n == 0:
            return
        if sigma.dim != self.degree:
            raise ValueError("simplex dimension does not match chain degree")
        if sigma.domain != "simplex":
            raise ValueError("chains hold simplex-domain maps only")
        new = self.terms.get(sigma, 0) + n
        if new == 0:
            self.terms.pop(sigma, None)
        else:
            self.terms[sigma] = new

    @classmethod
    def of(cls, sigma: SingularSimplex, coeff: int = 1) -> "Chain":
        return cls(sigma.dim, [(sigma, coeff)])

    def __add__(self, other: "Chain") -> "Chain":
        out = Chain(self.degree, self.terms)
        for sigma, n in other.terms.items():
            out._bump(sigma, n)
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1)

    def scale(self, k: int) -> "Chain":
        return Chain(self.degree, [(s, k * n) for s, n in self.terms.items()])

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """The (simplex, coefficient) terms, in one fixed order: by repr of the key."""
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0].key()))

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"<Chain deg={self.degree} terms={len(self.terms)}>"


def boundary(c: Chain) -> Chain:
    """Alternating sum of face restrictions, extended linearly."""
    if c.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    out = Chain(c.degree - 1)
    for sigma, n in c.terms.items():
        for i in range(c.degree + 1):
            out._bump(sigma.face(i), n * (-1) ** i)
    return out


def flag_simplex(top, faces) -> AffineSimplex:
    """Affine map into Delta_d, d = len(top) - 1, whose k-th vertex is the
    barycenter of ``faces[k]``, a face of ``top`` given by its vertices."""
    ref = reference_vertices(len(top) - 1)
    return AffineSimplex([ref[[top.index(v) for v in f]].mean(axis=0) for f in faces])


def reference_subdivision(d: int):
    """Signed affine self-maps of Delta_d giving its barycentric subdivision:
    one per flag of faces, signed by the parity of the order in which the
    flag drops the vertices (so each piece is signed like its determinant)."""
    top = tuple(range(d + 1))
    out = []
    for flag in maximal_flags(SimplicialComplex([top]))[1]:
        drops = [next(v for v in f if v not in g) for f, g in zip(flag, flag[1:])] + list(flag[-1])
        parity = sum(a > b for a, b in itertools.combinations(drops, 2)) % 2
        out.append(((-1) ** parity, flag_simplex(top, flag)))
    return out


def barycentric_subdivide(c: Chain) -> Chain:
    ref = reference_subdivision(c.degree)
    out = Chain(c.degree)
    for sigma, n in c.terms.items():
        for s, piece in ref:
            out._bump(Composed(sigma, piece), n * s)
    return out

