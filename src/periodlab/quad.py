"""Adaptive integration of pullback densities over open simplices and prisms.

The base rule is a positive-weight tensor cubature on the simplex, built by
collapsing the simplex onto a cube and absorbing the collapse Jacobian into
Gauss-Jacobi weights (computed from exact rational moments).  Four points per
axis give exactness at total degree 7; the embedded three-point variant
(degree 5) provides the per-cell error estimate.  All rule nodes are strictly
interior, so evaluators are never queried on the boundary where pullbacks of
maps that are merely C^1 on open faces may blow up.

One driver refines cells of the form [t0, t1] x simplex (a simplex-domain
cell has no interval) through a priority queue, with a refinement bonus for
cells touching the boundary: a cell bisects t or its longest simplex edge,
whichever carries more of its error.  Absolute-value sums are tracked across
refinement depths; sustained growth is reported as divergence.
That verdict is a diagnostic, not a proof: integrability is not numerically
decidable, and pathologically conditioned integrands may be flagged
inconclusive.

Cone evaluators are always integrated on the prism [0,1] x Delta_d: the
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
    diverging: bool = False

    def to_dict(self):
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "abs_integral_estimate": self.abs_integral_estimate,
            "converged": self.converged,
            "subdivisions": self.subdivisions,
            "diverging": self.diverging,
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


def _interval_rule(n: int):
    return _gauss_jacobi_01(n, 0)


# ---------------------------------------------------------------------------
# Adaptive integration over cells [t0, t1] x simplex.
# ---------------------------------------------------------------------------


def _touches_boundary(verts: np.ndarray, tol: float = 1e-13) -> bool:
    if np.any(verts.min(axis=0) <= tol):
        return True
    return bool(verts.sum(axis=1).max() >= 1.0 - tol)


def _longest_edge(verts: np.ndarray):
    d1 = verts.shape[0]
    best, bi, bj = -1.0, 0, 1
    for i in range(d1):
        for j in range(i + 1, d1):
            l2 = float(((verts[i] - verts[j]) ** 2).sum())
            if l2 > best + 1e-18:
                best, bi, bj = l2, i, j
    return bi, bj


class _Tracker:
    """Bookkeeping for the divergence diagnostics across depth levels."""

    def __init__(self):
        self.max_depth_seen = 0
        self.abs_history: list[float] = []
        self.boundary_flags: list[bool] = []
        self.diverging = False

    def on_split(self, child_depth: int, abs_total: float, touches: bool):
        if child_depth > self.max_depth_seen:
            self.max_depth_seen = child_depth
            self.abs_history.append(abs_total)
            self.boundary_flags.append(touches)
            self._check_growth()

    def _boundary_dominated(self, k: int) -> bool:
        flags = self.boundary_flags[-k:]
        return len(flags) >= k and sum(flags) >= 0.8 * len(flags)

    def _check_growth(self):
        h = self.abs_history
        w = GROWTH_WINDOW
        if len(h) < w + 1 or not self._boundary_dominated(w):
            return
        base = h[-w - 1 :]
        if all(base[i] > 0 and base[i + 1] >= GROWTH_FACTOR * base[i] for i in range(w)):
            self.diverging = True

    def check_at_exhaustion(self):
        """Sustained-growth trigger: absolute sums that keep climbing at an
        undiminished rate across refinement depths signal a (typically
        logarithmic) divergence the fixed-factor trigger cannot see.  Window
        means smooth out the oscillation of individual increments; for a
        convergent boundary singularity the window-to-window growth decays
        geometrically instead."""
        h = self.abs_history
        k = max(SUSTAIN_WINDOW, len(h) // 3)
        if len(h) < 3 * SUSTAIN_WINDOW or not self._boundary_dominated(k):
            return
        k = len(h) // 3
        m0 = sum(h[:k]) / k
        m1 = sum(h[k : 2 * k]) / k
        m2 = sum(h[2 * k : 3 * k]) / k
        g0, g1 = m1 - m0, m2 - m1
        if g1 <= 1e-3 * (1.0 + abs(h[-1])) or g0 <= 0:
            return
        if g1 >= SUSTAIN_RATIO * g0:
            self.diverging = True


class _Cell:
    """A cell [t0, t1] x simplex, or the bare simplex when ``t`` is None.

    A simplex cell compares its degree-7 and degree-5 rules (``err_b``; its
    ``err_t`` is 0).  A prism cell evaluates the 4-point interval rule times
    the degree-7 simplex rule and one embedded variant per axis, so that the
    driver can refine in the direction that carries the error.  A simplex
    cell keeps its own dot products: a prism with a one-node t-rule would
    round differently.  Each cell evaluates all its nodes in one density
    call; the density is elementwise, so the values do not depend on how the
    nodes are batched.
    """

    __slots__ = ("t", "verts", "depth", "q", "a", "err_t", "err_b", "err", "touches")

    def __init__(self, t, verts, depth, density, rules):
        self.t, self.verts, self.depth = t, verts, depth
        t_rules, (b7, bw7), (b5, bw5) = rules
        on_t_end = t is not None and (t[0] <= 1e-13 or t[1] >= 1.0 - 1e-13)
        self.touches = on_t_end or _touches_boundary(verts)
        d = verts.shape[1]
        lin = (verts[1:] - verts[0]).T
        scale = abs(float(np.linalg.det(lin))) if d > 0 else 1.0
        bp7 = verts[0] + b7 @ lin.T
        bp5 = verts[0] + b5 @ lin.T
        n7 = bp7.shape[0]
        if t is None:
            v = density(np.vstack([bp7, bp5]))
            v7, v5 = v[:n7], v[n7:]
            self.q = scale * float(bw7 @ v7)
            self.a = scale * float(bw7 @ np.abs(v7))
            self.err_t = 0.0
            self.err_b = abs(self.q - scale * float(bw5 @ v5))
        else:
            t0, t1 = t
            (t4, tw4), (t3, tw3) = t_rules
            scale = (t1 - t0) * scale
            tn4 = t0 + (t1 - t0) * t4
            tn3 = t0 + (t1 - t0) * t3

            def grid(ts, bs):
                return np.column_stack([np.repeat(ts, bs.shape[0]), np.tile(bs, (ts.shape[0], 1))])

            v = density(np.vstack([grid(tn4, bp7), grid(tn3, bp7), grid(tn4, bp5)]))
            k4, k3 = tn4.shape[0] * n7, tn3.shape[0] * n7
            v44 = v[:k4].reshape(tn4.shape[0], n7)
            v34 = v[k4 : k4 + k3].reshape(tn3.shape[0], n7)
            v45 = v[k4 + k3 :].reshape(tn4.shape[0], -1)
            self.q = scale * float(tw4 @ v44 @ bw7)
            self.a = scale * float(tw4 @ np.abs(v44) @ bw7)
            self.err_t = abs(self.q - scale * float(tw3 @ v34 @ bw7))
            self.err_b = abs(self.q - scale * float(tw4 @ v45 @ bw5))
        self.err = self.err_t + self.err_b

    def children(self, density, rules):
        """Split t when it carries at least the simplex error and is wide
        enough, else bisect the longest simplex edge; None when the cell is
        too thin on every axis (frozen)."""
        verts = self.verts
        if verts.shape[1] > 0:
            i, j = _longest_edge(verts)
            b_width = float(np.sqrt(((verts[i] - verts[j]) ** 2).sum()))
        else:
            b_width = 0.0
        t_wide = self.t is not None and self.t[1] - self.t[0] >= MIN_CELL_WIDTH
        split_t = t_wide and (self.err_t >= self.err_b or b_width < MIN_CELL_WIDTH)
        if not split_t and b_width < MIN_CELL_WIDTH:
            return None
        if split_t:
            t0, t1 = self.t
            tm = 0.5 * (t0 + t1)
            halves = (((t0, tm), verts), ((tm, t1), verts))
        else:
            mid = 0.5 * (verts[i] + verts[j])
            va = verts.copy()
            va[j] = mid
            vb = verts.copy()
            vb[i] = mid
            halves = ((self.t, va), (self.t, vb))
        return tuple(_Cell(t, v, self.depth + 1, density, rules) for t, v in halves)


def _adapt(density, d: int, prism: bool, tol: float, cfg: QuadConfig | None) -> QuadResult:
    """Adaptive cubature of a batch density over Delta_d, or over the prism
    [0,1] x Delta_d (points (t, b)) when ``prism``, until the error estimate
    is at most tol * max(1, |value|).  A non-finite running value or error
    ends it, unconverged: no refinement can repair it."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    cfg = cfg or QuadConfig()
    t_rules = (_interval_rule(4), _interval_rule(3)) if prism else None
    rules = (t_rules, simplex_rule(d, 4), simplex_rule(d, 3))
    root = _Cell((0.0, 1.0) if prism else None, reference_vertices(d), 0, density, rules)
    heap = []
    seq = itertools.count()

    def push(c):
        bonus = BOUNDARY_BONUS if c.touches else 1.0
        heapq.heappush(heap, (-c.err * bonus, next(seq), c))

    push(root)
    value, err, abs_total = root.q, root.err, root.a
    tracker = _Tracker()
    splits = 0
    while heap:
        if not (math.isfinite(value) and math.isfinite(err)):
            return QuadResult(value, err, abs_total, False, splits)
        if err <= max(tol, tol * abs(value)):
            return QuadResult(value, err, abs_total, True, splits)
        if tracker.diverging:
            break
        _, _, cell = heapq.heappop(heap)
        if cell.depth >= cfg.max_depth:
            continue  # frozen: its error stays in the running total
        if splits + 1 >= cfg.max_cells:
            break
        kids = cell.children(density, rules)
        if kids is None:
            continue  # frozen, as above
        ca, cb = kids
        value += ca.q + cb.q - cell.q
        err += ca.err + cb.err - cell.err
        abs_total += ca.a + cb.a - cell.a
        splits += 1
        push(ca)
        push(cb)
        tracker.on_split(ca.depth, abs_total, cell.touches)
    if not tracker.diverging:
        tracker.check_at_exhaustion()
    converged = err <= max(tol, tol * abs(value)) and not tracker.diverging
    return QuadResult(value, err, abs_total, converged, splits, tracker.diverging)


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def _signed_density(sigma: SingularSimplex, omega: Form):
    """(density, d, prism): the signed density of sigma^*(omega) and its
    domain, Delta_d or, for a cone, the prism [0,1] x Delta_d."""
    if isinstance(sigma, Cone):
        return _prism_density(sigma.inner, "1 - t", omega), sigma.inner.dim, True
    return (lambda pts: pullback_top_many(sigma, omega, pts)), sigma.dim, False


def _prism_density(sigma: SingularSimplex, profile, omega: Form):
    # q reverses the dt ^ db orientation: the sign makes prism values match
    # the direct cone integral
    prism = PrismMap(sigma, profile)
    return lambda pts: -pullback_top_many(prism, omega, pts)


def integrate_simplex(
    sigma: SingularSimplex, omega: Form, tol: float = 1e-8, config: QuadConfig | None = None
) -> QuadResult:
    """Estimate of the integral of sigma^*(omega) over the standard simplex."""
    if omega.degree != sigma.dim:
        raise ValueError("integrate_simplex needs deg(omega) == dim(sigma)")
    if sigma.domain == "prism":
        raise ValueError("prism-domain maps go through integrate_prism")
    return _adapt(*_signed_density(sigma, omega), tol, config)


def integrate_prism(
    sigma: SingularSimplex,
    profile,
    omega: Form,
    tol: float = 1e-8,
    config: QuadConfig | None = None,
) -> QuadResult:
    """Integral of the pullback of omega along (t,b) |-> f(t) sigma(b) over
    [0,1] x Delta_d, oriented so that it matches the direct cone integral
    when f(t) = 1 - t (q reverses the dt^db coordinate orientation)."""
    if omega.degree != sigma.dim + 1:
        raise ValueError("integrate_prism needs deg(omega) == dim(sigma) + 1")
    return _adapt(_prism_density(sigma, profile, omega), sigma.dim, True, tol, config)


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
        density, dom, prism = _signed_density(sigma, Form(d, sigma.ambient, [(idx, "1")]))
        results[idx] = _adapt(lambda pts: np.abs(density(pts)), dom, prism, tol, config)
    if any(r.diverging for r in results.values()):
        verdict = "no"
    elif all(r.converged for r in results.values()):
        verdict = "yes"
    else:
        verdict = "inconclusive"
    return VolumeReport(results, verdict)
