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
whichever carries more of its error.  Each such simplex is a node of one
longest-edge bisection tree of Delta_d per process (DCUHRE's shared
subdivision, kept across integrals; see _Tree), which computes each node's
halves, rule nodes, scale and flags once.  An integral keeps its cells as
rows of one table (see _Density); its queue holds (priority, sequence
number, row).  Cells split one at a time, but their children are evaluated
in groups: when the driver pops a cell whose children are not yet known, it
splits that cell and the queued cells without children among the next
SPECULATE - 1 entries at once (popped to look ahead and pushed back), and
each cell keeps its children until it is popped; a cell that cannot split
gets none.  Once an integral has made 4 * SPECULATE splits, the look-ahead
keeps popping while the errors of the popped cell and of the entries popped
so far sum below the error still above tolerance, err - max(tol, tol
|value|), since those are the cells the run is likely to split before it can
stop, and while at least two thirds of the cells it looked at (the popped
one among them) joined the group.  Near the float64 floor the queue ahead
holds mostly cells whose children a fill already made, and looking further
there found no more parents (upper_sqrt against dtheta at 1e-14 took a fifth
longer in as many calls).  The tilted hemisphere chart against d(z dx) at
1e-10 takes its 1,026 splits in 47 calls instead of 72, and the
edge-singular 2-simplex at 1e-5 its 19,999 in 507 instead of 1,253.  A group
takes at most 4 * SPECULATE parents, no more than splits are left, and
POINT_BUDGET points a call.  It is then filled, breadth first, with the
children it is about to create and then theirs, below max_depth, each
planned to split as its parent did, up to SPECULATE parents or as many as
the look-ahead found, under the same bounds.  A simplex cell's split depends
only on its node, so a simplex filler keeps its children; a prism filler
keeps them only where its own errors pick the planned split, and otherwise
stays without.  The root's own call evaluates the root alone.  The tree
halves a group's missing nodes a generation at a time, then builds all their
geometry at once (when a cell freezes, only the group's own children are
kept); one density call evaluates all the children's nodes, and one batched
reduction gives each child's value and errors.  Every operation rounds as it
would for one cell, and the density is elementwise, so the split order and
every value are those of one call per split, bit for bit.  A group whose
call raises is thrown away, fillers and all, and the popped cell's children
are evaluated one call each, so an error arises exactly where the sequential
driver meets it.  Absolute-value sums are tracked across refinement depths,
and each time refinement reaches a new depth two triggers test them for
divergence: growth by a fixed factor, or growth at an undiminished rate;
either ends the run there, without waiting for the cell budget.  That
verdict is a diagnostic, not a proof: integrability is not numerically
decidable, and pathologically conditioned integrands may be flagged
inconclusive.  Each result carries its stop reason and what it cost: density
calls, cells and points, the depth it reached and the cells that froze.

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
from array import array
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
# cells whose children one density call evaluates (see _expand), a quarter
# of what a long integral's look-ahead may take; 1 makes one call a split.
# Beyond 16 the children of cells that are never popped cost more than the
# calls saved
SPECULATE = 16
# points one density call may take (see _expand): larger calls spend much of
# their time in the allocator
POINT_BUDGET = 2048
_TREES: dict[int, _Tree] = {}  # the reference tree of each dimension (see _Tree)


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


def _geometry(verts, rules, edges):
    """The degree-7 then degree-5 rule nodes (k, n, d), volume scales,
    boundary flags and thin flags (longest of the ``edges`` narrower than
    MIN_CELL_WIDTH; a 0-simplex always) of k simplices ``verts`` (k, d+1, d)."""
    k, _, d = verts.shape
    basis = verts[:, 1:] - verts[:, :1]  # rows verts[i] - verts[0]
    if d:
        scale = np.abs(np.linalg.det(basis.transpose(0, 2, 1)))
        touches = (verts.min(axis=(1, 2)) <= 1e-13) | (verts.sum(axis=2).max(axis=1) >= 1.0 - 1e-13)
        thin = np.sqrt(((verts[:, edges[0]] - verts[:, edges[1]]) ** 2).sum(axis=2).max(axis=1)) < MIN_CELL_WIDTH
    else:
        scale, touches, thin = np.ones(k), np.zeros(k, dtype=bool), np.ones(k, dtype=bool)
    nodes = np.concatenate([verts[:, :1] + np.matmul(b, basis) for b, _ in rules], axis=1)
    return nodes, scale, touches, thin


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


def _halves(verts, edges):
    """The halves (2g, d+1, d) of g simplices ``verts``, each bisecting the
    first of its longest ``edges`` (vertex pairs i < j in order; equal edges
    of midpoint splits tie exactly); a 0-simplex's halves are copies of it."""
    g, d = verts.shape[0], verts.shape[2]
    kids = np.repeat(verts, 2, axis=0)
    if d:
        pairs = kids.reshape(g, 2, d + 1, d)  # each simplex's two halves
        e = ((verts[:, edges[0]] - verts[:, edges[1]]) ** 2).sum(axis=2).argmax(axis=1)
        r, i, j = np.arange(g), edges[0][e], edges[1][e]
        mid = 0.5 * (verts[r, i] + verts[r, j])
        pairs[r, 0, j] = pairs[r, 1, i] = mid
    return kids


def _smoothstep(t):
    """The grading map g(t) = 3t^2 - 2t^3 of Delta_1 onto itself."""
    return t * t * (3.0 - 2.0 * t)


def _near_vertex(nodes, eps=0.0):
    """Mask (k,) of the graded cells with rule nodes ``nodes`` (k, n, dim)
    with a node whose image g(b), where the density is called, lies within
    ``eps`` of a vertex (b: the last coordinate).  With eps = 0 the image
    rounds onto a vertex (g(b) rounds to 1 once 1 - b is below about 4e-9):
    such a cell is never evaluated, so every node stays interior.  With
    float64's spacing at 1 as eps the chart's 1 - x no longer resolves x
    (1 - x rounds to 1 once x < 5.6e-17)."""
    x = _smoothstep(nodes[..., -1])
    return ((x <= eps) | (x >= 1.0 - eps)).any(axis=1)


class _Tree:
    """The longest-edge bisection tree of the reference d-simplex that every
    integral over Delta_d or the prism on it refines, by node id: numpy
    arrays ``verts``, rule ``nodes``, ``scale`` and ``touches``, and lists
    (which the planner reads one entry at a time) of the first ``child``
    (children are consecutive; -1 until built) and the flags ``thin`` (see
    _geometry) and ``guard`` (_near_vertex).  None of it depends on the
    integrand, and integration is serial, so one tree per dimension (_TREES)
    serves every integral; one grown past QuadConfig's default cell budget
    starts over when an integral starts: that bounds it and changes no bit."""

    def __init__(self, d: int):
        self.rules, self.edges = (simplex_rule(d, 4), simplex_rule(d, 3)), np.triu_indices(d + 1, 1)
        self.graded, self.size, self.built = d == 1, 1, 0
        self.verts, self.scale, self.touches = reference_vertices(d)[None], np.empty(1), np.empty(1, dtype=bool)
        self.nodes = np.empty((1, sum(len(w) for _, w in self.rules), d))
        self.child, self.thin, self.guard = [-1], [], []
        self.finish()

    def grow(self, ids: list):
        """Halve the distinct childless nodes ``ids`` at once."""
        if not ids:
            return
        n = self.size
        self.size = m = n + 2 * len(ids)
        if m > len(self.verts):  # grow every array, with room for a few more groups' nodes
            for name in ("verts", "scale", "touches", "nodes"):
                old = getattr(self, name)
                setattr(self, name, np.empty((4 * (m + 2 * SPECULATE),) + old.shape[1:], old.dtype))
                getattr(self, name)[:n] = old[:n]
        self.verts[n:m] = _halves(self.verts[ids], self.edges)
        self.child += [-1] * (m - n)
        for i, first in zip(ids, range(n, m, 2)):
            self.child[i] = first

    def finish(self):
        """Build the geometry of every node that has none yet, in one call."""
        new = slice(self.built, self.size)
        if self.built < self.size:
            *geometry, thin = _geometry(self.verts[new], self.rules, self.edges)
            self.nodes[new], self.scale[new], self.touches[new] = geometry
            self.thin += thin.tolist()
            self.guard += (_near_vertex(self.nodes[new]) if self.graded else np.zeros_like(thin)).tolist()
            self.built = self.size


class _Density:
    """The density of one integral over Delta_d or the prism, its rules,
    the reference tree of Delta_d, the counters of its calls and the table
    of its cells, one row each in columns: tree ``node``, ``depth``,
    t-interval [``t0``, ``t1``] (0 for a simplex cell), value ``q``,
    absolute value ``a``, errors ``err_t`` (0 for a simplex cell), ``err_b``
    and ``err``, boundary flag ``touches``, queue priority ``prio`` and the
    row of the first ``kid`` (children are consecutive rows): -1 until the
    children are known, 0 (the root's row, no cell's child) when the cell
    cannot split.  A 1-simplex, bare or under a prism, is graded: its density
    is called at the images g(b) of the rule nodes' simplex coordinate b
    under the smoothstep and multiplied by g'(b) = 6b(1 - b), so that it
    integrates sigma o g.  Each call takes one point-last copy of its nodes,
    and a graded call grades its last row."""

    def __init__(self, density, d: int, prism: bool):
        self.tree = _TREES.get(d)
        if self.tree is None or self.tree.size > QuadConfig.max_cells:
            self.tree = _TREES[d] = _Tree(d)
        t_rules = tuple((p[:, 0], w) for p, w in (simplex_rule(1, 4), simplex_rule(1, 3))) if prism else None
        self.density, self.prism, self.rules = density, prism, (t_rules, *self.tree.rules)
        n7, n5 = (len(w) for _, w in self.tree.rules)  # points per cell: 4 + 3 t-nodes, then 4 (see evaluate)
        self.n = 7 * n7 + 4 * n5 if prism else n7 + n5
        self.calls = self.cells = self.points = 0
        self.kid = array("i")  # -1 in each new row; every other column is filled from an array
        self.columns = (self.node, self.depth, self.t0, self.t1, self.q, self.a, self.err_t, self.err_b, self.err,
                        self.prio, self.touches) = tuple(array(kind) for kind in "iiddddddddb")

    def evaluate(self, node, depth, t0, t1) -> int:
        """Append the rows of the cells with tree nodes ``node``, depths
        ``depth`` and t-intervals [``t0``, ``t1``] (0 for simplex cells),
        finished from one density call at all their nodes, and return the
        first row.  A simplex cell's geometry is its node's; a prism cell's
        nodes are the 4-point interval rule times its node's degree-7 rule,
        then one embedded variant per axis."""
        ids = np.array(node, dtype=np.int32)
        nodes, scale, touches = self.tree.nodes[ids], self.tree.scale[ids], self.tree.touches[ids]
        ta, tb = (np.array(t0), np.array(t1)) if self.prism else (np.zeros(len(ids)),) * 2
        if self.prism:
            (k, _, d), n7 = nodes.shape, len(self.rules[1][0])
            touches |= (ta <= 1e-13) | (tb >= 1.0 - 1e-13)

            def grid(ts, bs):  # every t node with every simplex node, t first
                g = np.empty((k, ts.shape[1], bs.shape[1], 1 + d))
                g[..., 0] = ts[:, :, None]
                g[..., 1:] = bs[:, None]
                return g.reshape(k, -1, 1 + d)

            tn4, tn3 = (ta[:, None] + (tb - ta)[:, None] * tr for tr, _ in self.rules[0])
            b7, b5 = nodes[:, :n7], nodes[:, n7:]
            nodes = np.concatenate([grid(tn4, b7), grid(tn3, b7), grid(tn4, b5)], axis=1)
            scale = (tb - ta) * scale
        k, n, dim = nodes.shape
        self.calls += 1
        self.points += k * n
        cols = nodes.reshape(k * n, dim).T.copy()  # point-last, as the evaluators work: (dim, k * n)
        weight = 1.0
        if self.tree.graded:
            x = cols[-1]
            weight = 6.0 * x * (1.0 - x)
            cols[-1] = _smoothstep(x)
        v = (self.density(cols.T) * weight).reshape(k, n)
        q, a, err_t, err_b = _finish(v, scale, self.prism, self.rules)
        err = err_t + err_b
        self.cells += k
        row = len(self.kid)
        self.kid.frombytes(b"\xff" * (self.kid.itemsize * k))  # -1: every bit set
        prio = -err * np.where(touches, BOUNDARY_BONUS, 1.0)
        values = ids, np.array(depth, np.int32), ta, tb, q, a, err_t, err_b, err, prio, touches
        for col, x in zip(self.columns, values):
            col.frombytes(x.tobytes())
        return row

    def bisects(self, r: int) -> bool:
        """Whether the cell of row ``r`` bisects its simplex rather than halve
        t: unless t is at least MIN_CELL_WIDTH wide (a simplex cell's is not)
        and carries at least the simplex's error, or the simplex is too thin."""
        return not (self.t1[r] - self.t0[r] >= MIN_CELL_WIDTH
                    and (self.err_t[r] >= self.err_b[r] or self.tree.thin[self.node[r]]))


def _generations(group, room: int, max_depth: int, density: _Density):
    """The children that one density call evaluates for the rows ``group``,
    with the cells that split ahead of time: up to ``room`` parents in all,
    breadth first, the cells of ``group``, then the first of their children,
    then of theirs.  A cell of ``group`` splits as its errors say (see
    _Density.bisects); a child below ``max_depth`` is planned to split as
    its parent did.  A t-split keeps the node; a bisection takes the node's
    children, which the tree halves a generation at a time, then builds at
    once.  A parent that bisects freezes when its node is too thin or,
    graded, has a child with a node on a vertex (the guard flag); if any
    does, only ``group``'s own children are kept.  Returns (parents, frozen,
    kids): per parent (source, node, bisects), source -1 for a row of
    ``group`` or else the index of its own kid, and whether it freezes; and
    the (node, depth, t0, t1) of the children, two per parent that splits."""
    d, tree, child = density, density.tree, density.tree.child
    gen = [(-1, d.node[r], d.depth[r] + 1, d.t0[r], d.t1[r], d.bisects(r)) for r in group]
    parents, kids = [], []
    while gen:
        tree.grow(list(dict.fromkeys(n for _, n, _, _, _, b in gen if b and child[n] < 0)))
        room -= len(gen)
        planned = []
        for s, n, k, t0, t1, b in gen:
            parents.append((s, n, b))
            tm = 0.5 * (t0 + t1)
            pair = ((child[n], k, t0, t1), (child[n] + 1, k, t0, t1)) if b else ((n, k, t0, tm), (n, k, tm, t1))
            if k < max_depth:  # plan the children's own split
                for j, (c, _, c0, c1) in enumerate(pair, len(kids)):
                    if len(planned) < room and (b or c1 - c0 >= MIN_CELL_WIDTH):
                        planned.append((j, c, k + 1, c0, c1, b))
            kids += pair
        gen = planned
    tree.finish()
    thin, guard = tree.thin, tree.guard
    frozen = [b and (thin[n] or guard[child[n]] or guard[child[n] + 1]) for _, n, b in parents]
    if any(frozen):  # only the group's own children, none of a frozen cell's
        parents, frozen = parents[: len(group)], frozen[: len(group)]
        kids = [kid for p, f in enumerate(frozen) if not f for kid in kids[2 * p : 2 * p + 2]]
    return parents, frozen, kids


def _expand(row: int, heap, room: int, excess: float, max_depth: int, density: _Density):
    """Give the popped ``row``'s cell and queued cells their children, and
    children their own in turn, from one density call: up to ``room``
    parents, 4 * SPECULATE and POINT_BUDGET points in all (see
    _generations).  The queued cells are those of the next entries in pop
    order whose children are unknown and whose depth is below
    ``max_depth``: the next SPECULATE - 1, then more while the errors of the
    popped cell and of the entries popped so far sum below ``excess`` and
    at least two thirds of the cells looked at joined the group.  The
    entries are pushed back, and as every entry's sequence number is unique,
    the pop order depends only on which entries the queue holds.  The fill
    plans up to SPECULATE parents, or as many as the group holds.  A prism
    filler keeps its children only if its own errors pick the planned
    split.  If the call raises, every child is thrown away and ``row``'s are
    evaluated one call each, so that an error arises where the driver meets
    it."""
    kid, depth, e = density.kid, density.depth, density.err
    room = min(room, 4 * SPECULATE, max(1, POINT_BUDGET // (2 * density.n)))
    group, ahead, popped = [row], [], e[row]
    while heap and len(group) < room and (len(ahead) < SPECULATE - 1 or popped < excess
                                          and 3 * len(group) >= 2 * (len(ahead) + 1)):
        ahead.append(heapq.heappop(heap))
        r = ahead[-1][2]
        popped += e[r]
        if kid[r] < 0 and depth[r] < max_depth:
            group.append(r)
    for entry in ahead:
        heapq.heappush(heap, entry)
    room = min(room, max(SPECULATE, len(group)))
    parents, frozen, kids = _generations(group, room, max_depth, density)
    try:
        first = density.evaluate(*zip(*kids)) if kids else 0
    except Exception:  # whatever it is, the popped cell's own children raise it again
        # the queued cells stay without children; the popped cell's are the first two kids
        kid[row] = 0 if frozen[0] else _own_children(kids, density)
        return
    at = first
    for p, ((s, _, b), f) in enumerate(zip(parents, frozen)):
        r = group[p] if s < 0 else first + s
        if f:
            kid[r] = 0
            continue
        if s < 0 or not density.prism or density.bisects(r) == b:
            kid[r] = at
        at += 2


def _own_children(kids, density: _Density) -> int:
    """The row of the first of the first two ``kids``, one density call
    each, or 0 when their parent freezes: a child whose call raises
    ExprDomainError with a node within float64's spacing at 1 of a vertex of
    a graded simplex (see _near_vertex) freezes it, since the chart is
    integrable there but float64 cannot evaluate it.  Anywhere else the
    error is the input's."""
    for kid in kids[:2]:
        try:
            row = density.evaluate(*zip(kid))
        except ExprDomainError:
            if not (density.tree.graded and _near_vertex(density.tree.nodes[[kid[0]]], np.finfo(float).eps)[0]):
                raise
            return 0
    return row - 1


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
    density.evaluate([0], [0], [0.0], [1.0 if prism else 0.0])  # the root: node 0 at depth 0, row 0
    q, a, e, prio, depth, kid = density.q, density.a, density.err, density.prio, density.depth, density.kid
    heap, seq = [(prio[0], 0, 0)], itertools.count(1)

    def result(converged, reason, diverging=False):
        return QuadResult(value, err, abs_total, converged, splits, diverging, reason,
                          density.calls, density.cells, density.points, tracker.max_depth_seen,
                          frozen)

    value, err, abs_total = q[0], e[0], a[0]
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
        _, _, row = heapq.heappop(heap)
        if depth[row] >= cfg.max_depth:
            frozen += 1  # its error stays in the running total
            continue
        if splits + 1 >= cfg.max_cells:
            reason = "max_cells"
            break
        if kid[row] < 0:
            # no more cells than splits are left (the queue holds at most
            # ``splits`` cells, so short runs speculate little anyway); past
            # 4 * SPECULATE splits the look-ahead also takes the cells that
            # the error still above tolerance says the run splits next
            excess = err - max(tol, tol * abs(value)) if SPECULATE > 1 and splits >= 4 * SPECULATE else 0.0
            _expand(row, heap, cfg.max_cells - 1 - splits, excess, cfg.max_depth, density)
        k = kid[row]
        if not k:
            frozen += 1  # as above
            continue
        value += q[k] + q[k + 1] - q[row]
        err += e[k] + e[k + 1] - e[row]
        abs_total += a[k] + a[k + 1] - a[row]
        splits += 1
        heapq.heappush(heap, (prio[k], next(seq), k))
        heapq.heappush(heap, (prio[k + 1], next(seq), k + 1))
        tracker.on_split(depth[k], abs_total, density.touches[row])
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
