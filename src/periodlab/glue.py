"""Triangulation gluing: extend a triangulation across an affine piece.

A Triangulation pairs a simplicial complex with per-simplex evaluators and
named marked subsets.  ``glue(t1, t2, containment, mark)`` implements the
interpolation construction: a simplex of t1 whose vertices split into a part
outside the marked overlap B and a face inside B is replaced by the join of
its outside part with every t2-simplex that the containment table sends into
that face; the new evaluator interpolates between the outside part and the
refined face through the first evaluator, with the refining map transported
by a numeric inverse.  Each piece's B must be a full subcomplex (the
B-condition).  subdivide_triangulation() restricts each evaluator along the
barycenters of a flag (chains.flag_simplex), and cover_and_triangulate()
folds glue() over a list of pieces.
"""

from __future__ import annotations

import collections
import functools
import itertools

import numpy as np

from .chains import (
    AffineSimplex, Composed, SingularSimplex, face_map, flag_simplex, interior_grid,
    reference_vertices,
)
from .expr import ExprDomainError
from .homology import SimplicialComplex, maximal_flags

__all__ = [
    "Triangulation",
    "GluedMap",
    "InputCompatibilityError",
    "subdivide_triangulation",
    "glue",
    "cover_and_triangulate",
    "invert_simplex_map",
]


NEWTON_TOL = 1e-12  # invert_simplex_map's residual tolerance, relative to 1 + |y|
NEWTON_MAX_ITER = 80  # Gauss-Newton steps per start
FACE_TOL = 1e-10  # largest disagreement of two tops on a shared face
COLLISION_TOL = 1e-7  # closest approach of two distinct top interiors


class InputCompatibilityError(Exception):
    pass


def _project_to_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the closed standard simplex."""
    x = np.clip(x, 0.0, None)
    over = x.sum(axis=1) > 1.0
    if over.any():
        # rows outside: project onto {x >= 0, sum x = 1}
        v = x[over]
        u = np.sort(v, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - 1.0
        k = np.arange(1, v.shape[1] + 1)
        rho = v.shape[1] - 1 - np.argmax((u * k > css)[:, ::-1], axis=1)
        theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
        x[over] = np.clip(v - theta[:, None], 0.0, None)
    return x


def _max_abs(r: np.ndarray) -> np.ndarray:
    return np.abs(r).max(axis=1, initial=0.0)


def invert_simplex_map(f: SingularSimplex, y):
    """Solve f(x) = y for x in the closed domain simplex.  ``y`` is one
    target or an (n, ambient) batch of them; x has the matching shape.

    Exact linear solve for affine maps; damped Gauss-Newton with multistart
    from barycentric seeds otherwise, on all rows of the batch at once, each
    as it would be alone.  A trial step off f's domain is rejected, and a
    point that meets the tolerance takes one more step, kept only if it
    lowers the residual.  Raises InputCompatibilityError when no start
    converges for some point (its target is not in the image)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return invert_simplex_map(f, y[None])[0]
    scale = 1.0 + _max_abs(y)
    if isinstance(f, AffineSimplex):
        x = np.linalg.lstsq(f._linear, (y - f.vertices[0]).T, rcond=None)[0].T
        inside = np.all(x >= -1e-9, axis=1) & (x.sum(axis=1) <= 1.0 + 1e-9)
        if np.all(inside & (_max_abs(f.evaluate_many(x) - y) <= NEWTON_TOL * scale)):
            return _project_to_simplex(x)
        raise InputCompatibilityError("target not in the affine simplex image")
    d = f.dim
    centre = np.full(d, 1.0 / (d + 1))
    seeds = [centre] + [0.9 * v + 0.1 * centre for v in reference_vertices(d)]
    out = np.empty((y.shape[0], d))
    best = np.full(y.shape[0], np.inf)
    todo = np.arange(y.shape[0])
    for seed in seeds:
        yt, lim = y[todo], NEWTON_TOL * scale[todo]
        x = np.tile(seed, (todo.size, 1))
        r = f.evaluate_many(x) - yt
        res = _max_abs(r)
        live = res > lim
        for _ in range(NEWTON_MAX_ITER):
            if not live.any():
                break
            live &= _gauss_newton(f, x, yt, r, res, live) & (res > lim)
        done = res <= lim
        polish = done & (res > 0.0)
        if polish.any():  # one more step past the tolerance, kept where it helps
            _gauss_newton(f, x, yt, r, res, polish, min_lam=0.5)
        best[todo] = np.minimum(best[todo], res)
        out[todo[done]] = x[done]
        todo = todo[~done]
        if todo.size == 0:
            return out
    raise InputCompatibilityError(
        f"Newton inverse failed: residual {best[todo].max():.3e} at tolerance {NEWTON_TOL:.1e}"
    )


def _gauss_newton(f, x, y, r, res, rows, min_lam: float = 1e-12):
    """One damped Gauss-Newton step on the rows of the nonempty mask ``rows``, in
    place: a row's step length halves from 1 while its residual does not drop and
    stays above ``min_lam``.  Returns the mask of the rows that moved."""
    at = slice(None) if rows.all() else np.flatnonzero(rows)  # all rows: no gathers
    step = -_lstsq(f.jacobian_many(x[at]), r[at][:, :, None])[:, :, 0]
    moved, lam = np.zeros_like(rows), 1.0
    while lam > min_lam:
        xn = _project_to_simplex(x[at] + lam * step)
        rn = _trial_values(f, xn) - y[at]
        resn = _max_abs(rn)
        ok = resn < res[at]
        if ok.all():
            x[at], r[at], res[at], moved[at] = xn, rn, resn, True
            break
        at = np.arange(len(x))[at]
        acc = at[ok]
        x[acc], r[acc], res[acc], moved[acc] = xn[ok], rn[ok], resn[ok], True
        at, step, lam = at[~ok], step[~ok], lam * 0.5
    return moved


def _trial_values(f, x):
    """f at trial points x, where a point off f's domain gets inf values: a rejected step."""
    try:
        return f.evaluate_many(x)
    except ExprDomainError:
        if len(x) > 1:
            return np.vstack([_trial_values(f, x[k : k + 1]) for k in range(len(x))])
        return np.full((1, f.ambient), np.inf)


def _lstsq(J: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Least-squares solutions (J^T J)^{-1} J^T B of a batch of systems J X = B,
    each solved as it would be alone."""
    Jt = J.transpose(0, 2, 1)
    try:
        return np.linalg.solve(Jt @ J, Jt @ B)
    except np.linalg.LinAlgError:
        if len(J) > 1:  # a rank-deficient system leaves the others alone
            return np.concatenate([_lstsq(J[k : k + 1], B[k : k + 1]) for k in range(len(J))])
        return np.linalg.pinv(J) @ B  # rank-deficient: the minimum-norm solution


class GluedMap(SingularSimplex):
    """Evaluator of a glued simplex (v_0..v_m, w_0..w_s).

    Barycentric mass on the w-part is routed through g = h1^{-1} o h2 into
    the reference simplex of the source simplex and interpolated against the
    v-part; the w-mass a -> 0 limit is the evaluation of the v-part alone.
    The Jacobian is exact: Dg = (Dh1^T Dh1)^{-1} Dh1^T Dh2 by the implicit
    function theorem, chained through the interpolation.  Every batch inverts
    g once, at tau's vertex 0 where the w-mass vanishes, before h1's value
    errors; over a vertex tau, g is one point, inverted on the first nonempty
    batch and kept unless it fails.  Each batch asks h1 once, for its values
    and whatever else it wants; a batch of values alone stops before the chain rule.
    """

    def __init__(self, h1_sigma: SingularSimplex, h2_tau: SingularSimplex,
                 v_slots, roles):
        self.h1_sigma = h1_sigma
        self.h2_tau = h2_tau
        self.v_slots = tuple(v_slots)  # slot of v_i in sigma's barycentric refs
        self.roles = tuple(roles)  # per new-reference slot: ("v", i) | ("w", j)
        if {k for k, _ in self.roles} - {"v", "w"}:
            raise ValueError("a glued role is ('v', i) or ('w', j)")
        if not all(type(i) is int for i in [i for _, i in self.roles] + list(self.v_slots)):
            raise ValueError("glued role indices and v_slots must be integers")
        if not all(0 <= i < len(self.v_slots) for k, i in self.roles if k == "v"):
            raise ValueError(f"a 'v' role points past the {len(self.v_slots)} v_slots")
        if not all(0 <= s <= h1_sigma.dim for s in self.v_slots):
            raise ValueError(f"v_slots must lie in 0..{h1_sigma.dim}, the vertices of sigma")
        if sorted(j for k, j in self.roles if k == "w") != list(range(h2_tau.dim + 1)):
            raise ValueError(f"the 'w' roles must name 0..{h2_tau.dim}, the vertices of tau, once each")
        self.dim = len(roles) - 1
        self.ambient = h1_sigma.ambient
        # barycentric coordinates bar (one per slot) scatter linearly: the
        # v-mass lands on sigma's reference coordinates (vertex 0 of sigma is
        # implicit), the w-mass is picked out per vertex of tau
        n_w = sum(1 for kind, _ in self.roles if kind == "w")
        self._v_scatter = np.zeros((len(self.roles), h1_sigma.dim))
        self._w_pick = np.zeros((len(self.roles), n_w))
        for slot, (kind, i) in enumerate(self.roles):
            if kind == "w":
                self._w_pick[slot, i] = 1.0
            elif self.v_slots[i] > 0:
                self._v_scatter[slot, self.v_slots[i] - 1] = 1.0

    def _g(self, u_std: np.ndarray) -> np.ndarray:
        """Reference coordinates in sigma's simplex of h1^{-1}(h2(u)), for a
        batch of points u of tau's simplex; over a vertex tau, one point."""
        if self.h2_tau.dim == 0 and len(u_std):
            return np.repeat(self._g_vertex, len(u_std), axis=0)
        return invert_simplex_map(self.h1_sigma, self.h2_tau.evaluate_many(u_std))

    @functools.cached_property
    def _g_vertex(self) -> np.ndarray:
        return invert_simplex_map(self.h1_sigma, self.h2_tau.evaluate_many(np.zeros((1, 0))))

    def batch(self, cols, values=True, jacobian=True):
        # on (n, ...) batches, as the matmuls of the chain rule and _lstsq
        # need: barycentric coordinates, w-masses per tau vertex, w-mass a
        x = cols.T
        bar = np.concatenate([1.0 - x.sum(axis=1, keepdims=True), x], axis=1)
        a_w = bar @ self._w_pick
        a = a_w.sum(axis=1)
        # where the w-mass vanishes (a boundary face), u is tau's vertex 0
        u = a_w[:, 1:] / np.where(a > 0.0, a, 1.0)[:, None]
        g = self._g(u)
        arg = bar @ self._v_scatter + a[:, None] * g
        vals, jac = self.h1_sigma.batch(arg.T, jacobian=jacobian)  # always h1's values: their errors come first
        if not jacobian:
            return vals, None
        dg = _lstsq(self.h1_sigma.jacobian_many(g), self.h2_tau.jacobian_many(u))
        # d bar/dx: -1 on slot 0, the identity below; a du = dW - u da
        dbar = np.vstack([-np.ones((1, self.dim)), np.eye(self.dim)])
        dw = self._w_pick.T @ dbar
        da = dw.sum(axis=0)
        a_du = dw[1:] - u[:, :, None] * da
        darg = self._v_scatter.T @ dbar + g[:, :, None] * da + dg @ a_du
        jac = np.ascontiguousarray(jac.transpose(2, 0, 1))
        return vals if values else None, (jac @ darg).transpose(1, 2, 0)

    jacobian = SingularSimplex.jacobian  # own binding: perfbench trace mode wraps it

    def key(self):
        return ("glued", self.h1_sigma.key(), self.h2_tau.key(), self.v_slots, self.roles)


class Triangulation:
    """Simplicial complex + per-simplex evaluators into R^N + named marks."""

    def __init__(self, complex_: SimplicialComplex, evaluators: dict, marks=None):
        self.complex = complex_
        self.evaluators = {}
        for k, v in evaluators.items():
            s = tuple(sorted(k))
            if s in self.evaluators:
                raise ValueError(f"simplex {s} has a second evaluator")
            self.evaluators[s] = v
        self.marks = {name: {tuple(sorted(s)) for s in ss} for name, ss in (marks or {}).items()}
        ambients = {e.ambient for e in self.evaluators.values()}
        if len(ambients) != 1:
            raise ValueError("evaluators must share one ambient space")
        self.ambient = ambients.pop()

    def top_simplices(self):
        d = self.complex.dim
        return list(self.complex.simplices[d])

    @functools.cached_property
    def _carriers(self) -> dict:
        """Simplex -> its carrier: the first proper coface with an evaluator,
        by dimension, then in the complex's order."""
        carriers = {}
        for d in range(1, self.complex.dim + 1):
            for parent in self.complex.simplices[d]:
                if parent in self.evaluators:
                    for k in range(1, len(parent)):
                        for face in itertools.combinations(parent, k):
                            carriers.setdefault(face, parent)
        return carriers

    def evaluator_for(self, simplex) -> SingularSimplex:
        s = tuple(sorted(simplex))
        ev = self.evaluators.get(s)
        if ev is not None:
            return ev
        # restrict the evaluator of the carrier simplex: the face's vertices
        # are one-vertex faces of the carrier
        parent = self._carriers.get(s)
        if parent is None:
            raise KeyError(f"no evaluator covers simplex {s}")
        return Composed(self.evaluators[parent], flag_simplex(parent, [(v,) for v in s]))

    def vertex_point(self, v) -> np.ndarray:
        return self.evaluator_for((v,)).evaluate(np.zeros(0))

    def validate(self):
        """Sampled structural checks: shared-face agreement of top evaluators
        and injectivity.  Each top is evaluated once, on the interior grid and
        on the face grid of each facet it shares with another top."""
        d, tops = self.complex.dim, self.top_simplices()
        facets = {t: [t[:i] + t[i + 1 :] for i in range(d + 1 if d else 0)] for t in tops}
        carried = collections.Counter(f for fs in facets.values() for f in fs)
        cloud, grid = interior_grid(d), interior_grid(max(d - 1, 0))
        face_pts = [face_map(d, i).evaluate_many(grid) for i in range(d + 1 if d else 0)]
        face_worst, first, clouds = 0.0, {}, []  # first: facet -> its first carrier's values
        for t in tops:
            shared = [i for i, f in enumerate(facets[t]) if carried[f] > 1]
            pts = np.vstack([cloud] + [face_pts[i] for i in shared])
            vals = self.evaluators[t].evaluate_many(pts)
            clouds.append(vals[: len(cloud)])
            for i, v in zip(shared, vals[len(cloud) :].reshape(-1, len(grid), self.ambient)):
                ref = first.setdefault(facets[t][i], v)
                face_worst = max(face_worst, float(np.abs(v - ref).max()))
        if face_worst > FACE_TOL:
            raise InputCompatibilityError(f"face evaluators disagree by {face_worst:.2e}")
        lo = np.stack([c.min(axis=0) for c in clouds], axis=1) - COLLISION_TOL  # (ambient, tops)
        hi = np.stack([c.max(axis=0) for c in clouds], axis=1) + COLLISION_TOL
        for i, ci in enumerate(clouds):
            # exact distances only to the later tops whose widened sample boxes meet ci's
            meet = (lo[:, i + 1 :] <= hi[:, i, None]) & (hi[:, i + 1 :] >= lo[:, i, None])
            for j in i + 1 + np.flatnonzero(meet.all(axis=0)):
                if np.linalg.norm(ci[:, None] - clouds[j][None], axis=2).min() < COLLISION_TOL:
                    raise InputCompatibilityError(
                        f"interiors of {tops[i]} and {tops[j]} collide in sampling")
        return {"face_agreement": face_worst, "tops": len(tops), "status": "sampled, not certified"}

    def __repr__(self):
        return f"<Triangulation {self.complex!r} marks={sorted(self.marks)}>"


def subdivide_triangulation(T: Triangulation) -> Triangulation:
    """Geometric barycentric subdivision: flag complex plus evaluators that
    restrict the old ones along the affine barycenter embeddings."""
    names, flags = maximal_flags(T.complex)
    evaluators = {}
    for flag in flags:
        faces = flag[::-1]  # by dimension: the new vertex names increase
        ev = Composed(T.evaluators[flag[0]], flag_simplex(flag[0], faces))
        evaluators[tuple(names[f] for f in faces)] = ev
    Ksd = SimplicialComplex(evaluators)
    original = list(names)  # new vertex -> the simplex of K it stands for
    cells = Ksd.cells()
    marks = {
        name: {s for s in cells if all(original[v] in members for v in s)}
        for name, members in T.marks.items()
    }
    return Triangulation(Ksd, evaluators, marks)


def _b_violation(K: SimplicialComplex, members: set):
    """The first simplex of K whose vertices all lie in the mark ``members``
    but which is not marked itself, or None when the mark is a full
    subcomplex (the B-condition)."""
    marked = {v for s in members for v in s}
    return next((s for s in K.cells() if s not in members and set(s) <= marked), None)


def glue(t1: Triangulation, t2: Triangulation, containment: dict, mark: str = "B") -> Triangulation:
    """Glued triangulation of the union; all second-piece simplices survive,
    first-piece simplices with no face in the overlap survive, and mixed
    simplices join an outside part with a refining simplex of the overlap.

    ``t2`` must triangulate its side so that the marked overlap of ``t1`` is
    refined by the marked overlap of ``t2``; ``containment`` sends every
    marked t2-simplex to the smallest marked t1-simplex containing its image.
    Both marks must be full subcomplexes (the B-condition: a simplex whose
    vertices are all marked is marked); glue() checks both before it builds."""
    containment = {tuple(sorted(k)): tuple(sorted(v)) for k, v in containment.items()}
    b1 = t1.marks.get(mark, set())
    b2 = t2.marks.get(mark, set())
    missing = [s for s in b2 if s not in containment]
    if missing:
        raise InputCompatibilityError(
            f"containment table misses marked simplices of the second piece: {missing[:3]}"
        )
    extra = [s for s in containment if s not in b2]
    if extra:
        raise InputCompatibilityError(f"containment keys are not marked in the second piece: {extra[:3]}")
    bad = [v for v in containment.values() if v not in b1]
    if bad:
        raise InputCompatibilityError(f"containment targets are not marked in the first piece: {bad[:3]}")
    for piece, t, members in (("first", t1, b1), ("second", t2, b2)):
        unmarked = _b_violation(t.complex, members)
        if unmarked is not None:
            raise InputCompatibilityError(
                f"{piece} piece: {unmarked} has every vertex in mark {mark!r} but is not marked (B-condition); "
                "mark it, or triangulate the piece so that the overlap is a full subcomplex"
            )
    b1_verts = {v for s in b1 for v in s}

    n2 = max(t2.complex.vertices, default=-1) + 1
    outside = [v for v in t1.complex.vertices if v not in b1_verts]
    remap1 = {v: n2 + k for k, v in enumerate(outside)}  # K1 vertex -> glued id

    evaluators = {}
    marks = {name: set() for name in itertools.chain(t1.marks, t2.marks)}

    def add(simplex, ev, piece, source):
        # the new simplex carries every mark of the simplex it comes from
        evaluators[simplex] = ev
        for name, members in piece.marks.items():
            if source in members:
                marks[name].add(simplex)

    for tau in t2.complex.cells():
        add(tau, t2.evaluator_for(tau), t2, tau)

    for sigma in t1.complex.cells():
        v_part = tuple(v for v in sigma if v not in b1_verts)
        b_part = tuple(v for v in sigma if v in b1_verts)
        if not v_part:
            continue  # fully inside the overlap: replaced by t2
        new_v = [remap1[v] for v in v_part]
        if not b_part:
            add(tuple(sorted(new_v)), t1.evaluator_for(sigma), t1, sigma)
            continue
        h1_sigma = t1.evaluator_for(sigma)
        v_slots = [sigma.index(v) for v in v_part]  # sigma is sorted, as K1 keeps it
        for tau, carrier in containment.items():
            if not set(carrier) <= set(b_part):
                continue
            new = tuple(sorted(tau + tuple(new_v)))
            # roles per reference slot of the new simplex, in sorted-tuple order
            roles = [("w", tau.index(v)) if v in tau else ("v", new_v.index(v)) for v in new]
            # a mixed simplex maps into h1 of the source simplex, so it
            # inherits only the first piece's marks; its tau-face carries
            # the second piece's marks on its own
            add(new, GluedMap(h1_sigma, t2.evaluator_for(tau), v_slots, roles), t1, sigma)

    return Triangulation(SimplicialComplex(evaluators), evaluators, marks)


def cover_and_triangulate(first: Triangulation, rest: list) -> Triangulation:
    """Fold glue() over (piece, containment) steps.  The overlap marks for
    each step are derived from the containment table (targets on the
    accumulated side, keys on the piece side); every output simplex is
    chart-tagged with its source piece via marks named chart:<k>.  The
    inputs are left unchanged; with no further pieces ``first`` comes back
    as it is."""
    if not rest:
        return first

    def with_marks(T, extra):
        return Triangulation(T.complex, T.evaluators, {**T.marks, **extra})

    def chart(T, k):
        return {f"chart:{k}": T.marks.get(f"chart:{k}", set()) | set(T.complex.cells())}

    acc = with_marks(first, chart(first, 0))
    for k, (piece, containment) in enumerate(rest, start=1):
        acc = with_marks(acc, {"B": set(SimplicialComplex(containment.values()).cells())})
        piece = with_marks(piece, {**chart(piece, k), "B": set(SimplicialComplex(containment).cells())})
        acc = glue(acc, piece, containment)
    return acc
