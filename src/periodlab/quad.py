"""Adaptive integration of pullback densities over open simplices and prisms.

The base rule is a positive-weight tensor cubature on the simplex, built by
collapsing the simplex onto a cube and absorbing the collapse Jacobian into
Gauss-Jacobi weights (computed from exact rational moments, once per
dimension and point count; the prism's t-rules are the 1-simplex rules).
Four points per axis give exactness at total degree 7; the embedded
three-point variant (degree 5) provides the per-cell error estimate.  All
rule nodes are strictly interior, so evaluators are never queried on the
boundary where pullbacks of maps that are merely C^1 on open faces may blow up.

A 1-simplex is integrated graded at both ends: as sigma o g with the
smoothstep g(t) = 3t^2 - 2t^3, its density times g'(t) = 6t(1 - t), which
cancels the t^(-1/2) endpoint singularities of semialgebraic charts (Sidi,
ISNM 112, 1993), at the price of more splits on smooth arcs.  The prism over
a 1-simplex grades its simplex axis b the same way; its t-axis is not
graded, since a cone's density carries (1 - t)^d, polynomial in t.  A
float64 guard keeps grading from turning an integrable chart into an input
error.  One predicate, a node image within eps of a vertex, decides both of
its cases.  A cell freezes instead of bisecting its simplex when a child
would have a node whose image rounds onto a vertex (eps = 0; that child is
never evaluated), or when a child raises a domain error with a node within
float64's spacing at 1 (eps = 2.2e-16) of a vertex of the chart's domain,
where 1 - x no longer resolves x.  Any other domain error is the input's.
Other domains are not graded: grading every face of Delta_2 costs many more
splits on smooth and polynomial densities than it saves on singular ones.

One driver refines cells of the form [t0, t1] x simplex (a simplex-domain
cell has no interval) through a priority queue, with a refinement bonus for
cells touching the boundary: a cell bisects t or its longest simplex edge,
whichever carries more of its error.  Cells split one at a time, but their
children are built and evaluated in groups: when the driver pops a cell
whose children are not yet known, it splits that cell and up to
SPECULATE - 1 of the next queued cells at once (popped from the queue to
look ahead and pushed back), and each cell keeps its children until it is
popped; a cell that cannot split gets no children.  A group of simplex
cells is then filled up to SPECULATE cells (no more than splits are left),
breadth first, with the children it is about to create and then theirs,
as long as they are below max_depth: a simplex cell's split, its width
test and the float64 guard depend only on its vertices.  A prism cell's
split direction needs its own errors, so prism groups are not filled, and
the root's own call evaluates the root alone.  A group's children, of every
generation, are built as arrays, as DCUHRE does on its shared subdivision:
the halves of each generation from its stacked vertices, then for all of
them one determinant, one matmul per rule and one set of boundary flags,
which the guard and the evaluation share (when a cell freezes, only the
group's own children are kept), one density call at all their nodes, and one
batched reduction of the values to each child's value and errors.  Every
operation acts elementwise on the stack and rounds as it would for one
cell, and the density is elementwise, so the split order and every value
are those of one call per split, bit for bit.  A group whose call raises
is thrown away, fillers and all, and the popped cell's children are
evaluated one call each, so an error arises exactly where the sequential
driver meets it.  Absolute-value sums are tracked across refinement
depths, and each time refinement reaches a new depth two
triggers test them for divergence: growth by a fixed factor, or growth at
an undiminished rate; either ends the run there, without waiting for the
cell budget.  That verdict is a diagnostic, not a proof: integrability is
not numerically decidable, and pathologically conditioned integrands may be
flagged inconclusive.  Each result carries its stop reason and what it
cost: density calls, cells and points, the depth it reached and the cells
that froze.

Cone evaluators are always integrated on their prism chart
(t, b) |-> (1 - t) sigma(b) on [0,1] x Delta_d: the
reparametrisation q collapsing {1} x Delta_d to the cone point is a
diffeomorphism away from a null set, and the product domain lets refinement
grade anisotropically into the wrapped simplex's singular faces.  q reverses
the coordinate orientation dt ^ db, so prism values carry the compensating
sign and match the direct cone integral.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chains import Cone, PrismMap, SingularSimplex, reference_vertices
from .expr import ExprDomainError, const
from .forms import Form, pullback_top_many

__all__ = [
    "QuadConfig",
    "QuadResult",
    "VolumeReport",
    "integrate_simplex",
    "integrate_prism",
    "finite_volume_check",
    "simplex_rule",
]


BOUNDARY_BONUS = 4.0  # refinement priority factor of boundary-touching cells
# cells thinner than this freeze: beyond it coordinate arithmetic near the
# boundary collapses in float64 and "interior" nodes stop being interior
MIN_CELL_WIDTH = 1e-14
# divergence diagnostics (see module docstring)
GROWTH_FACTOR = 1.5
GROWTH_WINDOW = 5
SUSTAIN_WINDOW = 8
SUSTAIN_RATIO = 0.97
# cells whose children one density call evaluates (see _expand); beyond 16
# the children of cells that are never popped cost more than the calls saved
SPECULATE = 16


@dataclass(frozen=True)
class QuadConfig:
    """The refinement budgets of one integral; the tolerance is an argument
    of each entry point."""

    # boundary-singular integrands converge one bisection level per digit
    # pair, so verification needs deep refinement
    max_depth: int = 80
    max_cells: int = 20000

    def __post_init__(self):
        if self.max_depth < 0 or self.max_cells < 1:
            raise ValueError(f"need max_depth >= 0 and max_cells >= 1, got {self}")


@dataclass
class QuadResult:
    value: float
    error_estimate: float
    abs_integral_estimate: float
    converged: bool
    subdivisions: int
    diverging: bool
    # tol | max_cells | frozen | non_finite | diverging:geometric | diverging:sustained
    stop_reason: str
    density_calls: int  # failed speculative calls included
    cells: int  # cells evaluated, the root and speculative children included
    points: int  # density points, failed speculative calls included
    max_depth_reached: int  # depth of the deepest split applied (the root is 0)
    # cells popped that could not split: at max_depth, too thin, or at the
    # float64 floor of a graded 1-simplex, bare or under a prism
    frozen_cells: int

    def diagnostics(self) -> dict:
        """Why the integral stopped and what it cost; deterministic."""
        return {
            "stop_reason": self.stop_reason,
            "density_calls": self.density_calls,
            "cells": self.cells,
            "points": self.points,
            "max_depth_reached": self.max_depth_reached,
            "frozen_cells": self.frozen_cells,
        }

    def to_dict(self):
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "abs_integral_estimate": self.abs_integral_estimate,
            "converged": self.converged,
            "subdivisions": self.subdivisions,
            "diverging": self.diverging,
            "diagnostics": self.diagnostics(),
        }


@dataclass
class VolumeReport:
    per_index: dict
    verdict: str  # yes | no | inconclusive

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "per_index": {
                "dx_" + "_".join(map(str, idx)): r.to_dict() for idx, r in self.per_index.items()
            },
        }


# ---------------------------------------------------------------------------
# Base rules.
# ---------------------------------------------------------------------------


def _gauss_jacobi_01(n: int, alpha: int):
    """Nodes/weights for int_0^1 p(u) (1-u)^alpha du, exact to degree 2n-1.

    Built from exact rational moments: the monic orthogonal polynomial comes
    from a Hankel solve over Fractions, its roots from the companion matrix.
    """
    moments = [
        Fraction(math.factorial(k) * math.factorial(alpha), math.factorial(k + alpha + 1))
        for k in range(2 * n)
    ]
    mat = [[moments[i + j] for i in range(n)] for j in range(n)]
    rhs = [-moments[n + j] for j in range(n)]
    coeffs = _solve_fraction(mat, rhs)  # p(u) = u^n + c_{n-1} u^{n-1} + ... + c_0
    poly = np.array([1.0] + [float(coeffs[n - 1 - i]) for i in range(n)])
    nodes = np.sort(np.roots(poly).real)
    vander = np.vander(nodes, n, increasing=True).T
    weights = np.linalg.solve(vander, np.array([float(m) for m in moments[:n]]))
    return nodes, weights


def _solve_fraction(mat, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


@functools.cache
def simplex_rule(d: int, n: int):
    """Positive-weight interior cubature on the standard d-simplex, exact for
    polynomials of total degree <= 2n-1.  Returns (points, weights)."""
    if d == 0:
        return np.zeros((1, 0)), np.ones(1)
    axes = [_gauss_jacobi_01(n, d - 1 - j) for j in range(d)]
    pts = []
    wts = []
    for combo in itertools.product(range(n), repeat=d):
        a = np.empty(d)
        w = 1.0
        prefix = 1.0
        for j, k in enumerate(combo):
            u = axes[j][0][k]
            a[j] = u * prefix
            prefix *= 1.0 - u
            w *= axes[j][1][k]
        pts.append(a)
        wts.append(w)
    return np.array(pts), np.array(wts)


# ---------------------------------------------------------------------------
# Adaptive integration over cells [t0, t1] x simplex.
# ---------------------------------------------------------------------------


class _Tracker:
    """The divergence diagnostics: the absolute sum and boundary flag of the
    split that first reached each depth, tested at each new depth."""

    def __init__(self):
        self.max_depth_seen = 0
        self.abs_history: list[float] = []
        self.boundary_flags: list[bool] = []
        self.trigger = None  # "geometric" or "sustained" once one fires

    @property
    def diverging(self) -> bool:
        return self.trigger is not None

    def on_split(self, child_depth: int, abs_total: float, touches: bool):
        if child_depth > self.max_depth_seen:
            self.max_depth_seen = child_depth
            self.abs_history.append(abs_total)
            self.boundary_flags.append(touches)
            self._check()

    def _boundary_dominated(self, k: int) -> bool:
        flags = self.boundary_flags[-k:]
        return len(flags) >= k and sum(flags) >= 0.8 * len(flags)

    def _check(self):
        """Geometric trigger: the absolute sums grew by a fixed factor at each
        of the last GROWTH_WINDOW depths.  Sustained trigger: their window
        means (which smooth out the oscillation of single increments) keep
        climbing at an undiminished rate, a (typically logarithmic)
        divergence the fixed-factor trigger cannot see; for a convergent
        boundary singularity the growth decays geometrically instead.  Both
        need boundary cells to dominate the recent splits."""
        h = self.abs_history
        w = GROWTH_WINDOW
        if len(h) > w and self._boundary_dominated(w):
            base = h[-w - 1 :]
            if all(base[i] > 0 and base[i + 1] >= GROWTH_FACTOR * base[i] for i in range(w)):
                self.trigger = "geometric"
                return
        k = len(h) // 3
        if k < SUSTAIN_WINDOW or not self._boundary_dominated(k):
            return
        m0 = sum(h[:k]) / k
        m1 = sum(h[k : 2 * k]) / k
        m2 = sum(h[2 * k : 3 * k]) / k
        g0, g1 = m1 - m0, m2 - m1
        if g0 > 0 and g1 > 1e-3 * (1.0 + abs(h[-1])) and g1 >= SUSTAIN_RATIO * g0:
            self.trigger = "sustained"


class _Cell:
    """A cell [t0, t1] x simplex, or the bare simplex when ``t`` is None: its
    t-interval and vertices (rows of the arrays its group was built from),
    depth, boundary flag, value ``q``, absolute value ``a`` and errors.  A
    simplex cell's ``err_t`` is 0.  ``kids`` holds the two children once
    they are evaluated, or no children, (), when the cell cannot split."""

    __slots__ = ("t", "verts", "depth", "touches", "q", "a", "err_t", "err_b", "err", "kids")

    def __init__(self, t, verts, depth, touches, q, a, err_t, err_b):
        self.t, self.verts, self.depth, self.touches = t, verts, depth, touches
        self.q, self.a, self.err_t, self.err_b = q, a, err_t, err_b
        self.err = err_t + err_b
        self.kids = None


def _geometry(t, verts, rules):
    """The rule nodes (k, n, dim), volume scales (k,) and boundary flags (k,)
    of k cells with vertices ``verts`` (k, d+1, d) and t-intervals ``t``
    (k, 2), or None for simplex cells.  A prism cell's nodes are the 4-point
    interval rule times the degree-7 simplex rule, then one embedded variant
    per axis."""
    t_rules, (b7, _), (b5, _) = rules
    k, _, d = verts.shape
    basis = verts[:, 1:] - verts[:, :1]  # rows verts[i] - verts[0]
    if d:
        scale = np.abs(np.linalg.det(basis.transpose(0, 2, 1)))
        touches = (verts.min(axis=(1, 2)) <= 1e-13) | (verts.sum(axis=2).max(axis=1) >= 1.0 - 1e-13)
    else:
        scale, touches = np.ones(k), np.zeros(k, dtype=bool)
    bp7 = verts[:, :1] + np.matmul(b7, basis)
    bp5 = verts[:, :1] + np.matmul(b5, basis)
    if t is None:
        return np.concatenate([bp7, bp5], axis=1), scale, touches
    (t4, _), (t3, _) = t_rules
    t0, t1 = t[:, :1], t[:, 1:]
    touches |= (t0[:, 0] <= 1e-13) | (t1[:, 0] >= 1.0 - 1e-13)

    def grid(ts, bs):  # every t node with every simplex node, t first
        g = np.empty((k, ts.shape[1], bs.shape[1], 1 + d))
        g[..., 0] = ts[:, :, None]
        g[..., 1:] = bs[:, None]
        return g.reshape(k, -1, 1 + d)

    tn4 = t0 + (t1 - t0) * t4
    tn3 = t0 + (t1 - t0) * t3
    nodes = np.concatenate([grid(tn4, bp7), grid(tn3, bp7), grid(tn4, bp5)], axis=1)
    return nodes, (t1[:, 0] - t0[:, 0]) * scale, touches


def _finish(v, scale, prism: bool, rules):
    """(q, a, err_t, err_b), each (k,), of k cells from the density ``v``
    (k, n) at their nodes.  A simplex cell compares its degree-7 and degree-5
    rules; a prism cell compares its tensor rule with each axis's variant, so
    that the driver can refine in the direction that carries the error."""
    t_rules, (_, bw7), (_, bw5) = rules
    k, n7 = v.shape[0], bw7.shape[0]
    if not prism:
        q = scale * np.matmul(v[:, None, :n7], bw7)[:, 0]
        a = scale * np.matmul(np.abs(v[:, None, :n7]), bw7)[:, 0]
        err_b = np.abs(q - scale * np.matmul(v[:, None, n7:], bw5)[:, 0])
        return q, a, np.zeros(k), err_b
    (_, tw4), (_, tw3) = t_rules
    k4, k3 = tw4.shape[0] * n7, tw3.shape[0] * n7

    def rule(tw, vals, bw):  # t rule, then simplex rule, as tw @ vals @ bw per cell
        return scale * np.matmul(np.matmul(tw[None, None, :], vals.reshape(k, tw.shape[0], -1)), bw)[:, 0]

    q = rule(tw4, v[:, :k4], bw7)
    a = rule(tw4, np.abs(v[:, :k4]), bw7)
    err_t = np.abs(q - rule(tw3, v[:, k4 : k4 + k3], bw7))
    err_b = np.abs(q - rule(tw4, v[:, k4 + k3 :], bw5))
    return q, a, err_t, err_b


def _halves(t, verts, err, edges):
    """The halves of g cells with t-intervals ``t`` (g, 2), or None for
    simplex cells, and vertices ``verts``, as (t, verts) arrays of two rows
    per cell, and the masks (g,) of the cells that bisect their simplex and
    of those too thin to split.  A prism cell splits t when t carries at
    least the simplex error (``err``: its (err_t, err_b) rows) and is wide
    enough, else it bisects the first of its longest simplex edges
    (``edges``: the vertex pairs i < j in order); a simplex cell always
    bisects, so its halves depend only on its vertices.  Cells are midpoint
    splits of the reference simplex, so equal edges compare exactly equal."""
    g, d = verts.shape[0], verts.shape[2]
    kids = np.repeat(verts, 2, axis=0)
    pairs = kids.reshape(g, 2, d + 1, d)  # each cell's two children
    if d:
        l2 = ((verts[:, edges[0]] - verts[:, edges[1]]) ** 2).sum(axis=2)
        e = l2.argmax(axis=1)
        r, i, j = np.arange(g), edges[0][e], edges[1][e]
        thin = np.sqrt(l2[r, e]) < MIN_CELL_WIDTH
        mid = 0.5 * (verts[r, i] + verts[r, j])
        pairs[r, 0, j] = mid
        pairs[r, 1, i] = mid
    else:
        thin = np.ones(g, dtype=bool)
    if t is None:
        return None, kids, np.ones(g, dtype=bool), thin
    split_t = (t[:, 1] - t[:, 0] >= MIN_CELL_WIDTH) & ((err[:, 0] >= err[:, 1]) | thin)
    pairs[split_t] = verts[split_t, None]
    kt = np.repeat(t, 2, axis=0)
    tm = 0.5 * (t[:, 0] + t[:, 1])
    kt[0::2, 1] = np.where(split_t, tm, t[:, 1])
    kt[1::2, 0] = np.where(split_t, tm, t[:, 0])
    return kt, kids, ~split_t, thin & ~split_t


def _smoothstep(t):
    """The grading map g(t) = 3t^2 - 2t^3 of Delta_1 onto itself."""
    return t * t * (3.0 - 2.0 * t)


class _Density:
    """The density of one integral over Delta_d or the prism, its rules and
    the counters of its calls.  A 1-simplex, bare or under a prism, is
    ``graded``: its density is called at the images g(b) of the rule nodes'
    simplex coordinate b under the smoothstep and multiplied by
    g'(b) = 6b(1 - b), so that it integrates sigma o g.  Each call takes one
    point-last copy of its nodes, and a graded call grades its last row."""

    def __init__(self, density, d: int, prism: bool):
        t_rules = tuple((p[:, 0], w) for p, w in (simplex_rule(1, 4), simplex_rule(1, 3))) if prism else None
        self.density, self.rules = density, (t_rules, simplex_rule(d, 4), simplex_rule(d, 3))
        self.graded = d == 1
        self.edges = np.triu_indices(d + 1, 1)
        self.calls = self.cells = self.points = 0

    @staticmethod
    def near_vertex(nodes, eps=0.0):
        """Mask (k,) of the graded cells with rule nodes ``nodes`` (k, n,
        dim) with a node whose image g(b), where ``evaluate`` calls the
        density, lies within ``eps`` of a vertex; b is the last coordinate,
        and a prism cell's b nodes are its simplex rules' nodes.  With
        eps = 0 the image rounds onto a vertex (g(b) rounds to 1 once 1 - b
        is below about 4e-9): such a cell is never evaluated, so every node
        stays interior.  With float64's spacing at 1 as eps the chart's
        1 - x no longer resolves x (1 - x rounds to 1 once x < 5.6e-17)."""
        x = _smoothstep(nodes[..., -1])
        return ((x <= eps) | (x >= 1.0 - eps)).any(axis=1)

    def evaluate(self, t, verts, depth, nodes, scale, touches) -> list:
        """The cells with t-intervals ``t`` (None for simplex cells),
        vertices ``verts``, depths ``depth`` and geometry (see _geometry),
        finished from one density call at all their nodes."""
        k, n, dim = nodes.shape
        self.calls += 1
        self.points += k * n
        cols = nodes.reshape(k * n, dim).T.copy()  # point-last, as the evaluators work: (dim, k * n)
        weight = 1.0
        if self.graded:
            x = cols[-1]
            weight = 6.0 * x * (1.0 - x)
            cols[-1] = _smoothstep(x)
        v = (self.density(cols.T) * weight).reshape(k, n)
        q, a, err_t, err_b = _finish(v, scale, t is not None, self.rules)
        self.cells += k
        rows = zip(
            [None] * k if t is None else t, verts, depth.tolist(), touches.tolist(),
            q.tolist(), a.tolist(), err_t.tolist(), err_b.tolist(),
        )
        return [_Cell(*row) for row in rows]


def _generations(group, room: int, max_depth: int, density: _Density):
    """The children that one density call evaluates for the cells ``group``,
    with the cells that split ahead of time: up to ``room`` parents in all,
    breadth first, the cells of ``group``, then the first of their children,
    then of theirs.  Only simplex cells below ``max_depth`` split ahead of
    time: a simplex cell's children depend only on its vertices, while a
    prism cell's split direction needs its own errors.  The tree is planned
    from vertices alone, then every child's geometry is built at once, for
    the float64 guard and the evaluation alike; a parent freezes when it is
    too thin to split or, graded, when it would bisect its simplex into a
    child with a node on a vertex (see _Density.near_vertex); if any does,
    only ``group``'s own children are kept.  Returns (source, frozen, rows):
    per parent, -1 for a cell of ``group`` or the index of its own row,
    and whether it freezes; and the rows (t, verts, depth, nodes, scale,
    touches) of the children, two per parent that splits, in parent order."""
    t = None if group[0].t is None else np.array([c.t for c in group])
    err = None if t is None else np.array([(c.err_t, c.err_b) for c in group])
    verts, depth = np.array([c.verts for c in group]), np.array([c.depth for c in group])
    gens, source, planned = [], [-1] * len(group), 0
    while True:
        kt, kids, bisect, frozen = _halves(t, verts, err, density.edges)
        depth = np.repeat(depth + 1, 2)
        gens.append((kt, kids, depth, bisect, frozen))
        room -= len(verts)
        parents = np.flatnonzero(depth < max_depth)[:room] if t is None and room > 0 else ()
        if not len(parents):
            break
        source += (planned + parents).tolist()
        planned += len(kids)
        verts, depth = kids[parents], depth[parents]
    kt, kids, depth, bisect, frozen = (a[0] if len(a) == 1 or a[0] is None else np.concatenate(a) for a in zip(*gens))
    nodes, scale, touches = _geometry(kt, kids, density.rules)
    if density.graded:
        frozen |= bisect & density.near_vertex(nodes).reshape(-1, 2).any(axis=1)
    rows = (kt, kids, depth, nodes, scale, touches)
    if frozen.any():  # only the group's own children, none of a frozen cell's
        source, frozen = source[: len(group)], frozen[: len(group)]
        rows = tuple(None if a is None else a[: 2 * len(group)][np.repeat(~frozen, 2)] for a in rows)
    return source, frozen.tolist(), rows


def _expand(cell, heap, room: int, max_depth: int, density: _Density):
    """Give the popped ``cell`` and up to ``room - 1`` queued cells their
    children, and simplex children their own children in turn, up to
    ``room`` parents in all (see _generations), all evaluated in one density
    call.  The queued cells are those of the next SPECULATE - 1 in pop order
    whose children are unknown and whose depth is below ``max_depth``: they
    are popped and pushed back, and since every entry's sequence number is
    unique, the pop order depends only on which entries the queue holds.
    If the call raises, every child is thrown away and ``cell``'s are
    evaluated one call each, so that an error arises exactly where the
    driver meets it without speculation."""
    ahead = [heapq.heappop(heap) for _ in range(min(SPECULATE - 1, len(heap)))]
    group = [cell] + [c for _, _, c in ahead if c.kids is None and c.depth < max_depth][: room - 1]
    for entry in ahead:
        heapq.heappush(heap, entry)
    source, frozen, rows = _generations(group, room, max_depth, density)
    try:
        cells = density.evaluate(*rows) if rows[2].size else []
    except Exception:  # whatever it is, the popped cell's own children raise it again
        # the queued cells stay without children; the popped cell's are the first two rows
        cell.kids = () if frozen[0] else _own_children(rows, density)
        return
    kids = iter(cells)
    for p, (s, f) in enumerate(zip(source, frozen)):
        (group[p] if s < 0 else cells[s]).kids = () if f else (next(kids), next(kids))


def _own_children(rows, density: _Density):
    """The first two ``rows``' children, one density call each, or none when
    the parent freezes: a child whose call raises ExprDomainError with a
    node within float64's spacing at 1 of a vertex of a graded simplex (see
    _Density.near_vertex) freezes it, since the chart is integrable there
    but float64 cannot evaluate it.  Anywhere else the error is the input's."""
    kids = []
    for m in (0, 1):
        row = [None if a is None else a[m : m + 1] for a in rows]
        try:
            kids += density.evaluate(*row)
        except ExprDomainError:
            if not (density.graded and density.near_vertex(row[3], np.finfo(float).eps)[0]):
                raise
            return ()
    return tuple(kids)


def _adapt(density, d: int, prism: bool, tol: float, cfg: QuadConfig | None) -> QuadResult:
    """Adaptive cubature of a batch density over Delta_d, or over the prism
    [0,1] x Delta_d (points (t, b)) when ``prism``, until the error estimate
    is at most tol * max(1, |value|); a 1-simplex is graded, also under a
    prism (see _Density).
    A non-finite running value or error ends it, unconverged: no refinement
    can repair it.  Cells split one at a time; their children are built and
    evaluated in groups (see _expand)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    cfg = cfg or QuadConfig()
    density = _Density(density, d, prism)
    t, verts = np.array([[0.0, 1.0]]) if prism else None, reference_vertices(d)[None]
    (root,) = density.evaluate(t, verts, np.zeros(1, dtype=int), *_geometry(t, verts, density.rules))
    heap = []
    seq = itertools.count()

    def push(c):
        bonus = BOUNDARY_BONUS if c.touches else 1.0
        heapq.heappush(heap, (-c.err * bonus, next(seq), c))

    def result(converged, reason, diverging=False):
        return QuadResult(value, err, abs_total, converged, splits, diverging, reason,
                          density.calls, density.cells, density.points, tracker.max_depth_seen,
                          frozen)

    push(root)
    value, err, abs_total = root.q, root.err, root.a
    del root  # the queue holds it: once split, it must not keep the tree alive
    tracker = _Tracker()
    splits = frozen = 0
    reason = "frozen"  # the queue runs dry when every cell left is frozen
    while heap:
        if not (math.isfinite(value) and math.isfinite(err)):
            return result(False, "non_finite")
        if err <= max(tol, tol * abs(value)):
            return result(True, "tol")
        if tracker.diverging:
            break
        _, _, cell = heapq.heappop(heap)
        if cell.depth >= cfg.max_depth:
            frozen += 1  # its error stays in the running total
            continue
        if splits + 1 >= cfg.max_cells:
            reason = "max_cells"
            break
        if cell.kids is None:
            # no more cells than splits are left (the queue holds at most
            # ``splits`` cells, so short runs speculate little anyway)
            room = min(SPECULATE, cfg.max_cells - 1 - splits)
            _expand(cell, heap, room, cfg.max_depth, density)
        if not cell.kids:
            frozen += 1  # as above
            continue
        ca, cb = cell.kids
        cell.kids = None  # the queue holds them now: the root must not keep the tree alive
        value += ca.q + cb.q - cell.q
        err += ca.err + cb.err - cell.err
        abs_total += ca.a + cb.a - cell.a
        splits += 1
        push(ca)
        push(cb)
        tracker.on_split(ca.depth, abs_total, cell.touches)
    if tracker.diverging:
        reason = "diverging:" + tracker.trigger
    converged = err <= max(tol, tol * abs(value)) and not tracker.diverging
    return result(converged, reason, tracker.diverging)


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def _signed_density(sigma: SingularSimplex, omega: Form):
    """(density, d, prism): the signed density of sigma^*(omega) and its
    domain, Delta_d or, for a cone, the prism [0,1] x Delta_d of its chart."""
    if sigma.domain == "prism":
        raise ValueError("a prism-domain map is a cone's chart: integrate the cone (integrate_prism)")
    if isinstance(sigma, Cone):
        # q reverses the dt ^ db orientation: the sign makes prism values
        # match the direct cone integral
        prism = PrismMap(sigma.inner)
        return (lambda pts: -pullback_top_many(prism, omega, pts)), sigma.inner.dim, True
    return (lambda pts: pullback_top_many(sigma, omega, pts)), sigma.dim, False


def integrate_simplex(
    sigma: SingularSimplex, omega: Form, tol: float = 1e-8, config: QuadConfig | None = None
) -> QuadResult:
    """Estimate of the integral of sigma^*(omega) over the standard simplex."""
    if omega.degree != sigma.dim:
        raise ValueError("integrate_simplex needs deg(omega) == dim(sigma)")
    return _adapt(*_signed_density(sigma, omega), tol, config)


def integrate_prism(
    sigma: SingularSimplex, omega: Form, tol: float = 1e-8, config: QuadConfig | None = None
) -> QuadResult:
    """Integral of omega over the cone on sigma, on its prism chart.  It stays
    only because perfbench's tracer looks the name up; ROADMAP item 1 deletes it."""
    if omega.degree != sigma.dim + 1:
        raise ValueError("integrate_prism needs deg(omega) == dim(sigma) + 1")
    return _adapt(*_signed_density(Cone(sigma), omega), tol, config)


def finite_volume_check(
    sigma: SingularSimplex, tol: float = 1e-6, config: QuadConfig | None = None
) -> VolumeReport:
    """Absolute convergence of the pullbacks of all standard d-forms dx_I.

    A "yes" verdict means every index converged at the requested tolerance;
    "no" means the divergence diagnostic fired; anything else is
    inconclusive.  Faces are the caller's responsibility (compose with
    face_map and check each face)."""
    d = sigma.dim
    results = {}
    for idx in itertools.combinations(range(1, sigma.ambient + 1), d):
        density, dom, prism = _signed_density(sigma, Form(d, sigma.ambient, [(idx, const(1))]))
        results[idx] = _adapt(lambda pts: np.abs(density(pts)), dom, prism, tol, config)
    if any(r.diverging for r in results.values()):
        verdict = "no"
    elif all(r.converged for r in results.values()):
        verdict = "yes"
    else:
        verdict = "inconclusive"
    return VolumeReport(results, verdict)
