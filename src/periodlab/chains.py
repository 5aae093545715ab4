"""Singular simplices, integer chains, boundary, cone and prism constructions.

The standard d-simplex is ``{(a_1,...,a_d) : a_i >= 0, sum a_i <= 1}`` with
vertex 0 at the origin and vertex k at the k-th basis vector.  A singular
simplex is a continuous map of the closed simplex into R^N, C^1 on each open
face; evaluators come in five flavours (expression-backed, affine, cone,
the cone's prism chart, composed; glue adds a sixth) and every one exposes
an exact Jacobian at interior points.  Each evaluator has one batch
implementation, ``batch``, in point-last layout: points ``(dim, n)`` in,
values ``(ambient, n)`` and Jacobians ``(ambient, dim, n)`` out, so that
elementwise work runs over n contiguous points; it computes the values, the
Jacobians or both, in one pass.  The public batches ``evaluate_many`` and ``jacobian_many`` are
adapters over it that take ``(n, dim)`` points and return C-contiguous
``(n, ...)`` arrays; ``evaluate``/``jacobian`` at one point are a batch of
one.  A composite map asks the map it wraps through ``batch``, once for
whatever it is asked (a composed map asks its inner map once for values and
once for the Jacobian), and its Jacobian is one chain rule over that call.
Contractions that numpy sums over a contiguous axis in its own order
(einsum, matmul) stay on C-contiguous ``(n, ...)`` copies, so that every
layout gives the same bits.
"""

from __future__ import annotations

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


def interior_grid(d: int, m: int = 3) -> np.ndarray:
    """(n, d) deterministic strictly-interior sample points of the open d-simplex,
    at ``m`` steps per axis (every sampled check in the library uses 3)."""
    idx = [i for i in itertools.product(range(1, m + 1), repeat=d) if sum(i) <= m + d]
    return np.array(idx, dtype=float) / (m + d + 1)


def _cols(points) -> np.ndarray:
    """An (n, dim) batch of points as its (dim, n) columns (a view)."""
    return np.asarray(points, dtype=float).T


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

    def batch(self, cols: np.ndarray, values: bool = True, jacobian: bool = True):
        """(values (ambient, n), Jacobians (ambient, dim, n)) at the points
        ``cols`` (dim, n), each None unless asked for (a Jacobian may need the
        values all the same).  The values come first, so a domain error is
        the one that evaluate_many then jacobian_many would raise first."""
        raise NotImplementedError

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """(n, ambient) values at an (n, dim) batch of points."""
        return np.ascontiguousarray(self.batch(_cols(points), jacobian=False)[0].T)

    def jacobian_many(self, points: np.ndarray) -> np.ndarray:
        """(n, ambient, dim) Jacobians at an (n, dim) batch of interior points."""
        return np.ascontiguousarray(self.batch(_cols(points), values=False)[1].transpose(2, 0, 1))

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
        self._programs = {}

    # own bindings of the adapters, in every class: perfbench's tracer wraps them per class
    evaluate_many, jacobian_many = SingularSimplex.evaluate_many, SingularSimplex.jacobian_many

    def batch(self, cols, values=True, jacobian=True):
        # one program per asked pair, of the values, then the Jacobian row by row,
        # compiled on first use: a manifest loads all its simplices, a command evaluates few
        run = self._programs.get((values, jacobian))
        if run is None:
            exprs = list(self.components) if values else []
            if jacobian:
                exprs += [ex.diff(c, j + 1) for c in self.components for j in range(self.dim)]
            run = self._programs[values, jacobian] = ex.compile_many(exprs)
        n = cols.shape[1]
        vals = np.empty((self.ambient, n)) if values else None
        jac = np.empty((self.ambient, self.dim, n)) if jacobian else None
        rows = [*(vals if values else ()), *(jac.reshape(self.ambient * self.dim, n) if jacobian else ())]
        for row, out in zip(rows, run(cols)):
            row[...] = out  # a constant fills its row
        return vals, jac

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

    evaluate_many, jacobian_many = SingularSimplex.evaluate_many, SingularSimplex.jacobian_many

    def batch(self, cols, values=True, jacobian=True):
        # the matmul takes C-contiguous (n, dim) points: BLAS sums a
        # transposed batch into R^1 in another order
        vals = (self.vertices[0] + np.ascontiguousarray(cols.T) @ self._linear.T).T if values else None
        jac = np.repeat(self._linear[:, :, None], cols.shape[1], axis=2) if jacobian else None
        return vals, jac

    def face(self, i):
        return AffineSimplex(np.delete(self.vertices, i, axis=0))

    def compose_affine(self, inner: "AffineSimplex") -> "AffineSimplex":
        """self o inner, as an affine simplex (inner maps into our domain)."""
        return AffineSimplex(self.evaluate_many(inner.vertices))

    def key(self):
        return ("affine", tuple(map(tuple, self.vertices.tolist())))


class Cone(SingularSimplex):
    """Cone over a simplex: interpolates linearly between the origin of R^N
    and the wrapped simplex, which sits on the face opposite vertex 0.  Each
    batch asks the wrapped simplex once, at the points off the cone point,
    for its values and, when a Jacobian is asked for, its Jacobian.  The
    Jacobian (off the density path: cones are integrated as prisms) is
    assembled on (n, ...) copies and is NaN at the cone point."""

    def __init__(self, inner: SingularSimplex):
        if inner.domain != "simplex":
            raise ValueError("can only cone a simplex-domain map")
        self.inner = inner
        self.dim = inner.dim + 1
        self.ambient = inner.ambient

    evaluate_many, jacobian_many = SingularSimplex.evaluate_many, SingularSimplex.jacobian_many

    def batch(self, cols, values=True, jacobian=True):
        a = cols.sum(axis=0)
        pos = a > 0.0  # the cone point itself never queries the wrapped simplex
        u = cols[1:, pos] / a[pos]
        ivals, ijac = self.inner.batch(u, jacobian=jacobian)
        vals = jac = None
        if values:
            vals = np.zeros((self.ambient, cols.shape[1]))
            vals[:, pos] = a[pos] * ivals
        if jacobian:
            ijac = np.ascontiguousarray(ijac.transpose(2, 0, 1))
            base = np.ascontiguousarray(ivals.T) - np.einsum("nij,nj->ni", ijac, np.ascontiguousarray(u.T))
            jac = np.full((cols.shape[1], self.ambient, self.dim), np.nan)
            jac[pos, :, 0] = base
            jac[pos, :, 1:] = base[:, :, None] + ijac
            jac = jac.transpose(1, 2, 0)
        return vals, jac

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
    """The cone's chart (t, b) |-> (1 - t) * sigma(b) on [0,1] x Delta_d (a
    prism, not a simplex; chains and simplex quadrature refuse it)."""

    domain = "prism"

    def __init__(self, inner: SingularSimplex):
        self.inner = inner
        self.dim = inner.dim + 1
        self.ambient = inner.ambient

    evaluate_many, jacobian_many = SingularSimplex.evaluate_many, SingularSimplex.jacobian_many

    def batch(self, cols, values=True, jacobian=True):
        f = 1.0 - cols[0]
        ivals, ijac = self.inner.batch(cols[1:], jacobian=jacobian)
        jac = None
        if jacobian:
            jac = np.empty((self.ambient, self.dim, cols.shape[1]))
            # d/dt (1 - t) = -1; no temporaries: a batch's arrays are large
            np.negative(ivals, out=jac[:, 0])
            np.multiply(f, ijac, out=jac[:, 1:])
        return f * ivals if values else None, jac

    def key(self):
        return ("prism", self.inner.key())


class Composed(SingularSimplex):
    """outer o inner for an inner map whose image lies in outer's domain.
    The inner map (a face or a subdivision piece) is asked through ``batch``,
    once for its values and once for its Jacobian, and the chain rule
    contracts on (n, ...) copies."""

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

    evaluate_many, jacobian_many = SingularSimplex.evaluate_many, SingularSimplex.jacobian_many

    def batch(self, cols, values=True, jacobian=True):
        # the order of the calls: inner and outer values, outer and inner
        # Jacobians; the outer map computes its values only when asked
        if self.dim == 0 and jacobian:  # a point's Jacobian is empty: no map is asked for it
            vals = self.batch(cols, jacobian=False)[0] if values else None
            return vals, np.zeros((self.ambient, 0, cols.shape[1]))
        vals, jac = self.outer.batch(self.inner.batch(cols, jacobian=False)[0], values, jacobian)
        if jacobian:
            outer_jac = np.ascontiguousarray(jac.transpose(2, 0, 1))
            inner_jac = np.ascontiguousarray(self.inner.batch(cols, values=False)[1].transpose(2, 0, 1))
            jac = np.einsum("nij,njk->nik", outer_jac, inner_jac).transpose(1, 2, 0)
        return vals, jac

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
    """Formal integer combination of singular simplices of one dimension,
    all maps into one ambient space."""

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
        if self.terms and sigma.ambient != (first := next(iter(self.terms))).ambient:
            raise ValueError(f"a map into R^{sigma.ambient} in a chain of maps into R^{first.ambient}")
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

