import gc
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodlab import chains as ch
from periodlab import expr as ex
from periodlab import forms as fo
from periodlab import manifest as mf
from periodlab import quad as qd


def form_d(d, N, coeff="1"):
    return fo.Form(d, N, [(tuple(range(1, d + 1)), coeff)])


def test_rule_weights_positive_interior_and_normalised():
    for d in (1, 2, 3):
        for n in (3, 4):
            pts, w = qd.simplex_rule(d, n)
            assert np.all(w > 0)
            assert w.sum() == pytest.approx(1.0 / math.factorial(d), rel=1e-13)
            assert np.all(pts > 0)
            assert np.all(pts.sum(axis=1) < 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rule_exact_to_degree_seven(d):
    pts, w = qd.simplex_rule(d, 4)
    for alpha in itertools.product(range(8), repeat=d):
        if sum(alpha) > 7:
            continue
        approx = float(w @ np.prod(pts**np.array(alpha), axis=1))
        exact = (
            np.prod([math.factorial(a) for a in alpha]) / math.factorial(sum(alpha) + d)
        )
        assert abs(approx - exact) <= 1e-12 * max(1.0, exact)


def test_identity_volume():
    for d in (1, 2, 3):
        ident = ch.ExprMap([f"a{i}" for i in range(1, d + 1)], d)
        r = qd.integrate_simplex(ident, form_d(d, d), 1e-10)
        assert r.converged
        assert r.value == pytest.approx(1.0 / math.factorial(d), abs=1e-10)


def test_sqrt_graph_integral():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    omega = fo.Form(1, 2, [((2,), "1")])
    r = qd.integrate_simplex(sigma, omega, 1e-8, qd.QuadConfig(max_depth=60))
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-8)


def test_parabola_sheet():
    sigma = ch.ExprMap(["a1^2", "a2"], 2)
    r = qd.integrate_simplex(sigma, form_d(2, 2), 1e-8)
    assert r.converged
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_degree_zero_simplex():
    point = ch.AffineSimplex([[2.0, 5.0]])
    omega = fo.Form(0, 2, [((), "a1*a2")])
    r = qd.integrate_simplex(point, omega, 1e-10)
    assert r.converged and r.value == pytest.approx(10.0)


def test_linearity():
    sigma = ch.ExprMap(["a1 + a2^2", "a2"], 2)
    w1 = fo.Form(2, 2, [((1, 2), "a1")])
    w2 = fo.Form(2, 2, [((1, 2), "cos(a2)")])
    r1 = qd.integrate_simplex(sigma, w1, 1e-10)
    r2 = qd.integrate_simplex(sigma, w2, 1e-10)
    r12 = qd.integrate_simplex(sigma, w1 + w2, 1e-10)
    assert abs(r12.value - r1.value - r2.value) <= r1.error_estimate + r2.error_estimate + r12.error_estimate + 1e-12


def test_finite_volume_polynomial_yes():
    sigma = ch.ExprMap(["a1*a2", "a1 + a2", "a2^3"], 2)
    rep = qd.finite_volume_check(sigma, 1e-6)
    assert rep.verdict == "yes"
    assert set(rep.per_index) == {(1, 2), (1, 3), (2, 3)}


def test_finite_volume_sqrt_values():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    rep = qd.finite_volume_check(sigma, 1e-6)
    assert rep.verdict == "yes"
    assert rep.per_index[(1,)].value == pytest.approx(1.0, abs=1e-6)
    assert rep.per_index[(2,)].value == pytest.approx(1.0, abs=1e-6)


def test_finite_volume_oscillatory_no():
    sigma = ch.ExprMap(["t", "t*sin(1/t)"], 1)
    rep = qd.finite_volume_check(sigma, 1e-6, qd.QuadConfig(max_cells=4000))
    assert rep.verdict == "no"
    assert not rep.per_index[(2,)].converged
    assert rep.per_index[(2,)].diverging
    # the x-coordinate itself is tame
    assert rep.per_index[(1,)].converged


def test_geometric_growth_says_no_before_the_budget():
    # |d sin(1/t)/dt| = |cos(1/t)|/t^2: the absolute sums grow by a fixed
    # factor per depth, so the verdict comes long before max_cells runs out
    rep = qd.finite_volume_check(ch.ExprMap(["t", "sin(1/t)"], 1), 1e-6)
    assert rep.verdict == "no"
    assert rep.per_index[(2,)].diverging
    assert rep.per_index[(2,)].subdivisions <= 40
    assert rep.per_index[(1,)].converged


def test_hard_but_integrable_is_not_flagged_no():
    # density ~ t^(-9/10): integrable; at an impossible tolerance the verdict
    # must degrade to inconclusive, never to a false "no"
    sigma = ch.ExprMap(["t", "t^(1/10)"], 1)
    rep = qd.finite_volume_check(sigma, 1e-15, qd.QuadConfig(max_cells=2500))
    assert rep.verdict == "inconclusive"


# finite_volume_check's verdict at tol 1e-6 with 1,000 and 4,000 cells, and
# the most splits any index took, as measured when the sustained trigger ran
# only once the budget was spent (the cones' counts since the prism over a
# 1-simplex is graded).  Graph charts t |-> (t, f) and (a1, a2) |-> (a1, a2, f),
# the edge-singular 2-simplex (a1, f) and cones over 1-D graph charts.
PINNED_VERDICTS = {
    ("graph", "t*sin(1/t)"): (("no", 999), ("no", 3999)),
    ("graph", "sin(1/t)"): (("no", 16), ("no", 16)),
    ("graph", "log(t)"): (("no", 999), ("no", 3999)),
    ("graph", "t*log(t)"): (("yes", 18), ("yes", 18)),
    ("graph", "t^2*sin(1/t)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph", "sqrt(t)*sin(1/t)"): (("no", 16), ("no", 16)),
    ("graph", "log(t + 10^(-8))"): (("yes", 30), ("yes", 30)),
    ("graph", "log(t + 10^(-12))"): (("yes", 42), ("yes", 42)),
    ("graph", "log(t + 10^(-14))"): (("yes", 50), ("yes", 50)),
    ("graph", "log(t + 10^(-15))"): (("yes", 53), ("yes", 53)),
    ("graph", "t^(1/20)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph", "t^(1/100)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph", "1/log(t/2)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph", "log(-log(t/2))"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph2", "log(a1)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph2", "sqrt(a1)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph2", "a1*sin(1/a1)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("graph2", "sin(1/a1)"): (("no", 999), ("no", 3999)),
    ("graph2", "a1^(1/20)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("edge", "sqrt(a2)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("cone", "t*sin(1/t)"): (("inconclusive", 999), ("inconclusive", 3999)),
    ("cone", "log(t)"): (("yes", 9), ("yes", 9)),
    ("cone", "sqrt(t)"): (("yes", 2), ("yes", 2)),
    ("cone", "t^(1/10)"): (("yes", 6), ("yes", 6)),
}


def verdict_chart(kind, f):
    if kind == "graph":
        return ch.ExprMap(["t", f], 1)
    if kind == "cone":
        return ch.Cone(ch.ExprMap(["t", f], 1))
    return ch.ExprMap(["a1", "a2", f] if kind == "graph2" else ["a1", f], 2)


@pytest.mark.parametrize("kind, f", list(PINNED_VERDICTS))
def test_verdicts_match_the_pinned_ones(kind, f):
    # a "no" may come sooner, never later; every other run is unchanged
    for cells, (verdict, splits) in zip((1000, 4000), PINNED_VERDICTS[kind, f]):
        rep = qd.finite_volume_check(verdict_chart(kind, f), 1e-6, qd.QuadConfig(max_cells=cells))
        most = max(r.subdivisions for r in rep.per_index.values())
        assert rep.verdict == verdict
        assert most <= splits if verdict == "no" else most == splits


def test_prism_degenerate_point():
    # constant simplex at p: the prism image is the segment [0, p], so the
    # pullback density vanishes identically
    point = ch.ExprMap(["1", "0"], 1)
    w2 = fo.Form(2, 2, [((1, 2), "1")])
    r = qd.integrate_prism(point, w2, 1e-10)
    assert r.converged and abs(r.value) <= 1e-12


def test_prism_half_disk():
    sigma = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    w2 = fo.Form(2, 2, [((1, 2), "1")])
    r = qd.integrate_prism(sigma, w2, 1e-8)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2, abs=1e-6)


def test_simplex_entry_points_refuse_a_prism_map():
    # [0,1] x Delta_1 is not Delta_2: simplex quadrature would read the
    # prism's points (t, b) as barycentric coordinates; so would a map over it
    for prism in (
        ch.PrismMap(ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)),
        ch.Composed(ch.ExprMap(["a1", "a2"], 2), ch.PrismMap(ch.ExprMap(["t", "t^2"], 1))),
    ):
        with pytest.raises(ValueError, match="integrate_prism"):
            qd.integrate_simplex(prism, fo.Form(2, 2, [((1, 2), "1")]))
        with pytest.raises(ValueError, match="integrate_prism"):
            qd.finite_volume_check(prism)


def direct_cone(sigma):
    """The cone over sigma, which integrate_simplex routes through the prism,
    composed with the identity of its simplex: not a Cone, so it is
    integrated directly on the simplex."""
    identity = ch.AffineSimplex(np.vstack([np.zeros(sigma.dim + 1), np.eye(sigma.dim + 1)]))
    return ch.Composed(ch.Cone(sigma), identity)


def test_prism_agrees_with_direct_cone():
    rng = np.random.default_rng(11)
    for _ in range(3):
        c = rng.uniform(-1, 1, size=6)
        sigma = ch.ExprMap(
            [f"{c[0]:.3f} + {c[1]:.3f}*t + {c[2]:.3f}*t^2".replace("-", "- ").replace("+ -", "- "),
             f"{c[3]:.3f} + {c[4]:.3f}*t + {c[5]:.3f}*t^2".replace("-", "- ").replace("+ -", "- ")],
            1,
        )
        w2 = fo.Form(2, 2, [((1, 2), "1 + a1")])
        rp = qd.integrate_prism(sigma, w2, 1e-9)
        rc = qd.integrate_simplex(direct_cone(sigma), w2, 1e-9)
        assert rp.converged and rc.converged
        assert abs(rp.value - rc.value) <= rp.error_estimate + rc.error_estimate + 1e-9


def test_cone_routing_matches_direct():
    sigma = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    w2 = fo.Form(2, 2, [((1, 2), "1")])
    routed = qd.integrate_simplex(ch.Cone(sigma), w2, 1e-9)
    direct = qd.integrate_simplex(direct_cone(sigma), w2, 1e-9)
    assert abs(routed.value - direct.value) <= 1e-8


def count_expr_calls(monkeypatch) -> dict:
    """The number of later expr.parse, expr.diff and expr.compile_vec calls
    (a recursive diff counts once per node), by name."""
    counts = {}
    for name in ("parse", "diff", "compile_vec"):

        def counting(*args, name=name, fn=getattr(ex, name)):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(ex, name, counting)
    return counts


def test_a_cone_integral_and_a_volume_check_parse_no_text_of_their_own(monkeypatch):
    # the prism is the cone's fixed chart and a volume check's unit forms are
    # built as expressions: with its inputs compiled, a cone integral parses,
    # differentiates and compiles nothing, and a volume check parses nothing
    sigma = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    omega = fo.Form(2, 2, [((1, 2), "1 + a1")])
    warm = qd.integrate_simplex(ch.Cone(sigma), omega, 1e-8)
    counts = count_expr_calls(monkeypatch)
    assert qd.integrate_simplex(ch.Cone(sigma), omega, 1e-8).value == warm.value
    assert counts == {}
    for m in (ch.Cone(sigma), sigma):
        assert qd.finite_volume_check(m, 1e-6).verdict == "yes"
    assert "parse" not in counts


def test_subdivision_invariance():
    sigma = ch.ExprMap(["a1 + a2^2", "sin(a2)*a1"], 2)
    omega = fo.Form(2, 2, [((1, 2), "1 + a1")])
    tol = 1e-8
    direct = qd.integrate_simplex(sigma, omega, tol)
    sd = ch.barycentric_subdivide(ch.Chain.of(sigma))
    total = sum(n * qd.integrate_simplex(s, omega, tol).value for s, n in sd.items())
    assert abs(total - direct.value) <= 10 * tol


CORPUS = [
    ch.ExprMap(["t", "t^2"], 1),
    ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1),
    ch.ExprMap(["t", "sqrt(t)"], 1),
    ch.ExprMap(["sqrt(t)", "t"], 1),
    ch.ExprMap(["t^(3/2)", "1 - t"], 1),
    ch.ExprMap(["a1", "a2"], 2),
    ch.ExprMap(["a1^2", "a2"], 2),
    ch.ExprMap(["a1 + a2", "a1*a2"], 2),
    ch.ExprMap(["a1", "a2", "sqrt(a1 + a2)"], 2),
    ch.ExprMap(["sin(a1)", "a2*a1", "a2^2"], 2),
]


def test_cone_stability_of_finite_volume():
    # every finite-volume corpus member keeps finite volume after coning
    for sigma in CORPUS:
        base = qd.finite_volume_check(sigma, 1e-5)
        assert base.verdict == "yes", sigma.components
        coned = qd.finite_volume_check(ch.Cone(sigma), 1e-4)
        assert coned.verdict == "yes", sigma.components


def test_reparametrisation_invariance():
    # orientation-preserving change of variables leaves integrals unchanged
    sigma1 = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    rho1 = ch.ExprMap(["t^2"], 1)
    omega1 = fo.Form(1, 2, [((1,), "-a2"), ((2,), "a1")])
    a = qd.integrate_simplex(sigma1, omega1, 1e-9)
    b = qd.integrate_simplex(ch.Composed(sigma1, rho1), omega1, 1e-9)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-9

    sigma2 = ch.ExprMap(["a1 + a2^2", "a2"], 2)
    rho2 = ch.ExprMap(["a1^2 + a1*a2", "a1*a2 + a2^2"], 2)  # radial squaring
    omega2 = fo.Form(2, 2, [((1, 2), "1 + a1")])
    a = qd.integrate_simplex(sigma2, omega2, 1e-9)
    b = qd.integrate_simplex(ch.Composed(sigma2, rho2), omega2, 1e-8, qd.QuadConfig(max_depth=60))
    assert abs(a.value - b.value) <= 1e-7


def test_converged_respects_tolerance_contract():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    omega = fo.Form(1, 2, [((2,), "1")])
    r = qd.integrate_simplex(sigma, omega, 1e-6)
    assert r.converged
    assert r.error_estimate <= max(1e-6, 1e-6 * abs(r.value))


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_tolerance_must_be_finite_and_positive(tol):
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    with pytest.raises(ValueError, match="tolerance"):
        qd.integrate_simplex(sigma, fo.Form(1, 2, [((2,), "1")]), tol)
    with pytest.raises(ValueError, match="tolerance"):
        qd.finite_volume_check(sigma, tol)


def test_quad_config_rejects_empty_budgets():
    with pytest.raises(ValueError):
        qd.QuadConfig(max_depth=-1)
    with pytest.raises(ValueError):
        qd.QuadConfig(max_cells=0)
    assert qd.QuadConfig(max_depth=0, max_cells=1).max_cells == 1


def test_longest_edge_of_a_small_cell():
    # squared edge lengths of order 1e-20 are not ties: the longest edge of
    # this cell is (1, 2) at every scale, so the children replace vertex 2,
    # then vertex 1, by its midpoint
    cell = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    for scale in (1.0, 1e-10):
        verts = scale * cell
        group = [qd._Cell(None, verts, 0, True, 0.0, 0.0, 0.0, 0.0)]
        source, frozen, (t, kids, depth, *_) = qd._generations(group, 1, 80, qd._Density(None, 2, False))
        mid = 0.5 * (verts[1] + verts[2])
        assert (source, frozen) == ([-1], [False]) and t is None and depth.tolist() == [1, 1]
        assert np.array_equal(kids, [[verts[0], verts[1], mid], [verts[0], mid, verts[2]]])


# The per-cell driver that the groups of _expand replace: each cell built,
# finished and split on its own, its children only once it is popped.  The
# batched builder must match it bit for bit, so that the refinement, and
# every golden below, stays what it was.


class ReferenceCell:
    def __init__(self, t, verts, rules):
        self.t, self.verts = t, verts
        t_rules, (b7, _), (b5, _) = rules
        on_t_end = t is not None and (t[0] <= 1e-13 or t[1] >= 1.0 - 1e-13)
        on_b_face = verts.size > 0 and (verts.min() <= 1e-13 or verts.sum(axis=1).max() >= 1.0 - 1e-13)
        self.touches = bool(on_t_end or on_b_face)
        d = verts.shape[1]
        lin = (verts[1:] - verts[0]).T
        scale = abs(float(np.linalg.det(lin))) if d > 0 else 1.0
        bp7 = verts[0] + b7 @ lin.T
        bp5 = verts[0] + b5 @ lin.T
        if t is None:
            self.scale = scale
            self.nodes = np.concatenate([bp7, bp5])
        else:
            t0, t1 = t
            (t4, _), (t3, _) = t_rules
            self.scale = (t1 - t0) * scale
            tn4 = t0 + (t1 - t0) * t4
            tn3 = t0 + (t1 - t0) * t3

            def grid(ts, bs):
                return np.column_stack([np.repeat(ts, bs.shape[0]), np.tile(bs, (ts.shape[0], 1))])

            self.nodes = np.concatenate([grid(tn4, bp7), grid(tn3, bp7), grid(tn4, bp5)])

    def finish(self, v, rules):
        t_rules, (_, bw7), (_, bw5) = rules
        scale, n7 = self.scale, bw7.shape[0]
        if self.t is None:
            v7, v5 = v[:n7], v[n7:]
            self.q = scale * float(bw7 @ v7)
            self.a = scale * float(bw7 @ np.abs(v7))
            self.err_t = 0.0
            self.err_b = abs(self.q - scale * float(bw5 @ v5))
        else:
            (_, tw4), (_, tw3) = t_rules
            k4, k3 = tw4.shape[0] * n7, tw3.shape[0] * n7
            v44 = v[:k4].reshape(tw4.shape[0], n7)
            v34 = v[k4 : k4 + k3].reshape(tw3.shape[0], n7)
            v45 = v[k4 + k3 :].reshape(tw4.shape[0], -1)
            self.q = scale * float(tw4 @ v44 @ bw7)
            self.a = scale * float(tw4 @ np.abs(v44) @ bw7)
            self.err_t = abs(self.q - scale * float(tw3 @ v34 @ bw7))
            self.err_b = abs(self.q - scale * float(tw4 @ v45 @ bw5))


def reference_halves(t, verts, err_t, err_b, rules=None):
    """The (t, verts) of the two children, or None for a frozen cell.  Given
    ``rules``, the cell is a graded 1-simplex, bare or under a prism, and
    also freezes when it would bisect its simplex into a child with a node
    whose image under the smoothstep rounds onto a vertex."""
    best, bi, bj = -1.0, 0, 1
    for i in range(verts.shape[0]):
        for j in range(i + 1, verts.shape[0]):
            l2 = float(((verts[i] - verts[j]) ** 2).sum())
            if l2 > best:
                best, bi, bj = l2, i, j
    b_width = math.sqrt(best) if verts.shape[1] > 0 else 0.0
    t_wide = t is not None and t[1] - t[0] >= qd.MIN_CELL_WIDTH
    split_t = t_wide and (err_t >= err_b or b_width < qd.MIN_CELL_WIDTH)
    if not split_t and b_width < qd.MIN_CELL_WIDTH:
        return None
    if split_t:
        tm = 0.5 * (t[0] + t[1])
        return ((t[0], tm), verts), ((tm, t[1]), verts)
    mid = 0.5 * (verts[bi] + verts[bj])
    va, vb = verts.copy(), verts.copy()
    va[bj], vb[bi] = mid, mid
    if rules is not None:
        for half in (va, vb):
            b = ReferenceCell(None, half, rules).nodes[:, -1]
            x = b * b * (3.0 - 2.0 * b)
            if ((x <= 0.0) | (x >= 1.0)).any():
                return None
    return (t, va), (t, vb)


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@st.composite
def cell_groups(draw):
    """(d, prism, cells): up to 8 cells (t, verts) reached from the root by
    midpoint splits of t or of the longest edge, some down to the width at
    which cells freeze.  Each path draws its depth, how often it splits t
    and which child it follows from its own generator, so that deep cells
    are as common as shallow ones."""
    d = draw(st.integers(0, 3))
    prism = draw(st.booleans())
    cells = []
    for seed in draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8)):
        rng = np.random.default_rng(seed)
        t, verts = ((0.0, 1.0) if prism else None), ch.reference_vertices(d)
        p_t = rng.choice([0.1, 0.5, 0.9])
        # paths wander inside, or keep to the first or second child, or to
        # the far face a1 + ... + ad = 1 away from the coordinate planes
        path = rng.choice(["random", "random", "first", "second", "far"])
        for _ in range(rng.integers(0, 161)):
            err_t, err_b = (1.0, 0.0) if rng.random() < p_t else (0.0, 1.0)
            halves = reference_halves(t, verts, err_t, err_b)
            if halves is None:
                break
            if path == "far":
                t, verts = max(halves, key=lambda h: (h[1].sum(axis=1).max(initial=0.0), h[1].min(initial=0.0)))
            else:
                t, verts = halves[{"random": rng.integers(2), "first": 0, "second": 1}[path]]
        cells.append((t, verts))
    return d, prism, cells


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cell_groups(), st.integers(0, 2**32 - 1), st.integers(-30, 30), st.booleans())
def test_group_builder_matches_the_per_cell_driver(group, seed, exponent, vanishing):
    # a vanishing density ties err_t and err_b at 0: the tie splits t
    d, prism, cells = group
    rng = np.random.default_rng(seed)
    seen = []

    def density(pts):
        values = np.zeros(len(pts)) if vanishing else rng.standard_normal(len(pts)) * 2.0**exponent
        seen.append((pts.copy(), values))
        return values

    dens = qd._Density(density, d, prism)
    refs = [ReferenceCell(t, verts, dens.rules) for t, verts in cells]
    t = np.array([c[0] for c in cells]) if prism else None
    verts = np.stack([c[1] for c in cells])
    nodes, scale, touches = qd._geometry(t, verts, dens.rules)
    assert bits(*nodes) == bits(*(r.nodes for r in refs))
    assert bits(scale) == bits([r.scale for r in refs])
    assert touches.tolist() == [r.touches for r in refs]

    built = dens.evaluate(t, verts, np.arange(len(cells)), nodes, scale, touches)
    ((pts, values),) = seen
    called_at = np.concatenate([r.nodes for r in refs])
    if d == 1:  # graded: called at g(b) = 3b^2 - 2b^3, weighted by g'(b) = 6b(1 - b); t is not
        b = called_at[:, -1]
        called_at = called_at.copy()
        called_at[:, -1] = b * b * (3.0 - 2.0 * b)
        values = values * (6.0 * b * (1.0 - b))
    assert bits(pts) == bits(called_at)
    off = 0
    for r in refs:
        r.finish(values[off : off + len(r.nodes)], dens.rules)
        off += len(r.nodes)
    for c, r in zip(built, refs):
        assert bits(c.q, c.a, c.err_t, c.err_b) == bits(r.q, r.a, r.err_t, r.err_b)
        assert c.touches == r.touches and c.err == r.err_t + r.err_b

    # the group's own split, each cell's error as finished above; simplex
    # cells then plan the split of the first of their children, breadth
    # first, until twice as many cells as the group holds split.  If a
    # planned cell freezes, only the group's own children are evaluated
    room = 2 * len(cells)
    source, frozen, (kt, kv, depth, nodes, scale, touches) = qd._generations(built, room, 10**6, dens)
    rules = dens.rules if d == 1 else None
    parents = [(r.t, r.verts, r.err_t, r.err_b, c.depth, -1) for r, c in zip(refs, built)]
    halves, expected = [], []  # the children planned; (source, frozen) of each parent
    for t, v, err_t, err_b, k, row in parents:
        h = None if v is None else reference_halves(t, v, err_t, err_b, rules)
        if v is not None:
            expected.append((row, h is None))
        for half_t, half_v in h or [(None, None)] * 2:
            if h is not None:
                halves.append((half_t, half_v, k + 1))
            if not prism and len(parents) < room:
                parents.append((None, half_v, 0.0, 0.0, k + 1, len(halves) - 1))
    assert len(parents) == (len(cells) if prism else room)
    if any(f for _, f in expected):
        expected = expected[: len(cells)]
        halves = halves[: 2 * sum(not f for _, f in expected)]
    assert list(zip(source, frozen)) == expected
    assert bits(kv) == bits([v for _, v, _ in halves])
    if prism:
        assert bits(kt) == bits([t for t, _, _ in halves])
    else:
        assert kt is None
    assert depth.tolist() == [k for _, _, k in halves]
    # the geometry the guard tested is the one the children are evaluated at
    kid_refs = [ReferenceCell(t, v, dens.rules) for t, v, _ in halves]
    assert bits(*nodes) == bits(*(r.nodes for r in kid_refs))
    assert bits(scale) == bits([r.scale for r in kid_refs])
    assert touches.tolist() == [r.touches for r in kid_refs]


def test_interior_evaluation_never_touches_boundary():
    # a map whose derivative blows up on the whole boundary: every rule node
    # must stay interior (no domain error), whatever the verdict
    sigma = ch.ExprMap(["a1", "a2", "sqrt(a1) + sqrt(a2) + sqrt(1 - a1 - a2)"], 2)
    rep = qd.finite_volume_check(sigma, 1e-4, qd.QuadConfig(max_cells=1500))
    assert rep.verdict in ("yes", "inconclusive")


SQRT_GRAPH = ch.ExprMap(["t", "sqrt(t)"], 1)
EXP_2 = fo.Form(2, 2, [((1, 2), "exp(3*a1)")])  # varies along the cone rays: t splits too

# The driver's exact refinement record: value, error estimate and absolute
# integral (as float.hex) and the number of splits.  Any change to the split
# rule, the rules' arithmetic or the order in which cells refine shows here.
GOLDEN = {
    "singular-1d": (
        lambda: qd.integrate_simplex(
            SQRT_GRAPH, fo.Form(1, 2, [((2,), "1")]), 1e-8, qd.QuadConfig(max_depth=60)
        ),
        ("0x1.000000001133ap+0", "0x1.beb0975400000p-28", "0x1.000000001133ap+0", 5),
    ),
    "vertex-singular-2d": (
        lambda: qd.integrate_simplex(ch.ExprMap(["a1", "sqrt(a1 + a2)"], 2), form_d(2, 2), 1e-8),
        ("0x1.5555554ff98acp-2", "0x1.563ef814b681ap-27", "0x1.5555554ff98acp-2", 196),
    ),
    "0-simplex": (
        lambda: qd.integrate_simplex(
            ch.AffineSimplex([[2.0, 5.0]]), fo.Form(0, 2, [((), "a1*a2")]), 1e-10
        ),
        ("0x1.4000000000000p+3", "0x0.0p+0", "0x1.4000000000000p+3", 0),
    ),
    "cone-via-prism": (
        lambda: qd.integrate_simplex(ch.Cone(SQRT_GRAPH), EXP_2, 1e-9),
        ("-0x1.6d2a05403850fp-1", "0x1.0e83d4bcf8000p-30", "0x1.6d2a05403850fp-1", 142),
    ),
    # max_cells runs out while cells frozen at max_depth are still queued
    "budget-with-frozen-simplex": (
        lambda: qd.integrate_simplex(
            ch.ExprMap(["a1", "sqrt(a2)"], 2), form_d(2, 2), 1e-15,
            qd.QuadConfig(max_depth=6, max_cells=40),
        ),
        ("0x1.48e356827de56p-1", "0x1.03d9bcc71f7eep-7", "0x1.48e356827de56p-1", 39),
    ),
    "budget-with-frozen-prism": (
        lambda: qd.integrate_simplex(
            ch.Cone(SQRT_GRAPH), EXP_2, 1e-15, qd.QuadConfig(max_depth=6, max_cells=40)
        ),
        ("-0x1.6d2a0541f38e1p-1", "0x1.31d7e69340800p-24", "0x1.6d2a0541f38e1p-1", 39),
    ),
    "cone-volume": (
        lambda: qd.finite_volume_check(ch.Cone(SQRT_GRAPH), 1e-6).per_index[(1, 2)],
        ("0x1.55555536e0ec0p-3", "0x1.b8b746f640000p-23", "0x1.55555536e0ec0p-3", 2),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_refinement_is_pinned(name):
    run, (value, err, abs_int, splits) = GOLDEN[name]
    r = run()
    got = (r.value.hex(), r.error_estimate.hex(), r.abs_integral_estimate.hex(), r.subdivisions)
    assert got == (value, err, abs_int, splits)


def test_pinned_graded_case_bounds_its_true_error():
    # the integral of dy over the square-root graph is 1
    r = GOLDEN["singular-1d"][0]()
    assert r.converged and abs(r.value - 1.0) <= r.error_estimate


# The cone over the square-root graph fills the region between y = x and
# y = sqrt(x), traversed clockwise: its area is 1/6, and exp(3x) dx ^ dy over
# it is -(e^3 - 1)/9 + (1/3) int_0^1 exp(3u^2) du, by parts.
EXP_3U2 = sum(3**n / (math.factorial(n) * (2 * n + 1)) for n in range(40))
PRISM_ANSWERS = {
    "cone-via-prism": -(math.exp(3) - 1) / 9 + EXP_3U2 / 3,
    "budget-with-frozen-prism": -(math.exp(3) - 1) / 9 + EXP_3U2 / 3,
    "cone-volume": 1 / 6,
}


@pytest.mark.parametrize("name", list(PRISM_ANSWERS))
def test_pinned_prism_cases_bound_their_true_error(name):
    r = GOLDEN[name][0]()
    assert abs(r.value - PRISM_ANSWERS[name]) <= r.error_estimate
    assert r.converged == (name != "budget-with-frozen-prism")


CIRCLE = pathlib.Path(__file__).resolve().parent.parent / "manifests" / "circle.json"


def circle_budget_runs():
    """The library calls of the periods-circle benchmark with a lowered cell
    budget, on the manifest the CLI tests use: the upper_sqrt call converges
    in 33 splits, and tsin_graph says "no" in 27."""
    man = mf.load_manifest(CIRCLE)
    budget = qd.QuadConfig(max_depth=80, max_cells=1000)
    return {
        "upper_sqrt": lambda: qd.integrate_simplex(
            man.simplices["upper_sqrt"], man.forms["dtheta"], 1e-12, budget
        ),
        "tsin_graph": lambda: qd.finite_volume_check(man.simplices["tsin_graph"], 1e-6, budget).per_index[(2,)],
    }


def edge_singular_budget():
    """A call that spends its whole budget: graded 1-simplices converge, and
    longest-edge bisection does not resolve an edge singularity of Delta_2."""
    return qd.integrate_simplex(
        ch.ExprMap(["a1", "sqrt(a2)"], 2), form_d(2, 2), 1e-12, qd.QuadConfig(max_cells=1000)
    )


def record(r):
    return (r.value.hex(), r.error_estimate.hex(), r.abs_integral_estimate.hex(), r.subdivisions,
            r.converged, r.diverging, r.stop_reason, r.max_depth_reached, r.frozen_cells)


# (max_depth_reached, frozen_cells, nodes per cell) of each pinned case.
# Cells freeze at max_depth, and 1-D cells also at depth 47, the first
# narrower than MIN_CELL_WIDTH (2^-47 < 1e-14).  A simplex cell has the
# nodes of the degree-7 and degree-5 rules (4^d + 3^d), a prism cell those
# of the 4- and 3-point t-rules times the degree-7 rule, plus 4 times the
# degree-5 rule.
COUNTERS = {
    "singular-1d": (3, 0, 4 + 3),
    "vertex-singular-2d": (31, 0, 16 + 9),
    "0-simplex": (0, 0, 1 + 1),
    "cone-via-prism": (9, 0, 7 * 4 + 4 * 3),
    "budget-with-frozen-simplex": (6, 18, 16 + 9),
    "budget-with-frozen-prism": (6, 8, 7 * 4 + 4 * 3),
    "cone-volume": (2, 0, 7 * 4 + 4 * 3),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_depth_and_freeze_counters(name):
    r = GOLDEN[name][0]()
    depth, frozen, nodes = COUNTERS[name]
    assert (r.max_depth_reached, r.frozen_cells) == (depth, frozen)
    assert r.points == r.cells * nodes  # no call fails


def test_a_tree_cut_at_max_depth_freezes_its_leaves():
    # the full binary tree of depth 3: 7 splits, then its 8 leaves freeze
    r = qd.integrate_simplex(SQRT_GRAPH, fo.Form(1, 2, [((2,), "1")]), 1e-15, qd.QuadConfig(max_depth=3))
    assert (r.subdivisions, r.max_depth_reached, r.frozen_cells) == (7, 3, 8)
    assert (r.cells, r.points) == (15, 15 * 7)


@pytest.mark.parametrize("name", list(GOLDEN) + ["upper_sqrt", "tsin_graph", "edge-singular"])
def test_speculation_changes_no_result(name, monkeypatch):
    # the filled groups, groups of queued cells only, and one density call
    # per split, as a driver without speculation makes, refine alike
    runs = {**circle_budget_runs(), "edge-singular": edge_singular_budget}
    run = GOLDEN[name][0] if name in GOLDEN else runs[name]
    batched = run()
    generations = qd._generations
    monkeypatch.setattr(qd, "_generations", lambda group, room, max_depth, density: generations(
        group, len(group), max_depth, density))
    unfilled = run()
    monkeypatch.undo()
    monkeypatch.setattr(qd, "SPECULATE", 1)
    plain = run()
    assert record(batched) == record(unfilled) == record(plain)
    assert plain.density_calls == 1 + plain.subdivisions
    assert plain.cells == 1 + 2 * plain.subdivisions
    assert batched.cells >= plain.cells and unfilled.cells >= plain.cells


def test_filled_groups_take_a_graded_chart_in_few_calls():
    # upper_sqrt against dtheta at 1e-12: 33 splits, which took 7 calls when
    # a group held only the popped and the queued cells, since the queue is
    # short for most of the run
    r = circle_budget_runs()["upper_sqrt"]()
    assert (r.subdivisions, r.stop_reason) == (33, "tol")
    assert r.density_calls <= 4


def test_speculation_batches_the_budget_call():
    r = edge_singular_budget()
    assert r.subdivisions == 999 and r.stop_reason == "max_cells"
    assert r.density_calls <= r.subdivisions // 4


def test_speculation_stays_inside_the_budget():
    # two splits allowed: the first call after the root's splits the root
    # and the first of its children, two parents for two splits left; the
    # second split pops the other child, and its call may split no cell but
    # that one
    sqrt_dy = fo.Form(1, 2, [((2,), "1")])
    r = qd.integrate_simplex(SQRT_GRAPH, sqrt_dy, 1e-15, qd.QuadConfig(max_cells=3))
    assert (r.subdivisions, r.density_calls, r.cells) == (2, 3, 7)


@pytest.mark.parametrize("name", ["vertex-singular-2d", "budget-with-frozen-simplex", "budget-with-frozen-prism"])
def test_the_look_ahead_restores_the_queue(name, monkeypatch):
    # _expand pops the next SPECULATE - 1 entries to choose its group and
    # pushes them back: the queue holds the same entries, still a heap, and
    # the group is the first cells in pop order that can take children
    expand, calls = qd._expand, []

    def checking(cell, heap, room, max_depth, density):
        before = sorted((key, seq, id(c)) for key, seq, c in heap)
        ahead = [c for _, _, c in sorted(heap)[: qd.SPECULATE - 1]]
        open_ = [c for c in ahead if c.kids is None and c.depth < max_depth]
        cells = density.cells
        expand(cell, heap, room, max_depth, density)
        assert sorted((key, seq, id(c)) for key, seq, c in heap) == before
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
        assert [c.kids is not None for c in open_] == [k < room - 1 for k in range(len(open_))]
        assert density.cells - cells <= 2 * room  # no more cells split than room allows
        calls.append(len(open_))

    monkeypatch.setattr(qd, "_expand", checking)
    run, (value, err, abs_int, splits) = GOLDEN[name]
    r = run()
    assert (r.value.hex(), r.subdivisions) == (value, splits)
    assert max(calls) > 0  # some groups took queued cells


def test_rules_are_built_once_per_dimension_and_point_count(monkeypatch):
    # the prism's t-rules are the 1-simplex rules, byte for byte the
    # Gauss-Legendre rules on [0, 1]: a second prism integral builds none
    for n in (3, 4):
        (pts, w), (nodes, weights) = qd.simplex_rule(1, n), qd._gauss_jacobi_01(n, 0)
        assert pts[:, 0].tobytes() == nodes.tobytes() and w.tobytes() == weights.tobytes()
    run = GOLDEN["cone-via-prism"][0]
    first = run()
    build, built = qd._gauss_jacobi_01, []
    monkeypatch.setattr(qd, "_gauss_jacobi_01", lambda n, alpha: built.append((n, alpha)) or build(n, alpha))
    assert record(run()) == record(first)
    assert built == []


def test_split_cells_are_released(monkeypatch):
    # the queue, the cached children and the cell popped when the budget ran
    # out hold the only live cells: a split cell, and the tree above it, are
    # freed.  The queue held the root and one more cell per split (no frozen
    # cell was popped), less that last popped cell
    live = []
    result = qd.QuadResult
    # cells that an earlier test still holds are not this run's; held here,
    # so that no cell of the run can take the id of one that is freed
    before = [o for o in gc.get_objects() if isinstance(o, qd._Cell)]
    old = {id(o) for o in before}

    def count_cells(*fields):  # the driver builds its result at the end of the run
        live.append(sum(isinstance(o, qd._Cell) and id(o) not in old for o in gc.get_objects()))
        return result(*fields)

    monkeypatch.setattr(qd, "QuadResult", count_cells)
    r = edge_singular_budget()
    cached = r.cells - 1 - 2 * r.subdivisions  # evaluated, never applied
    assert r.frozen_cells == 0 and r.stop_reason == "max_cells"
    assert len(live) == 1 and live[0] <= 1 + r.subdivisions + cached


def test_speculative_errors_fall_back_to_the_cells_own_children(monkeypatch):
    # a density that fails on every point the plain driver never evaluates:
    # the batched driver must fall back, never raise, and give the plain result
    seen = set()
    plain_density = qd.pullback_top_many

    def recording(sigma, omega, pts):
        seen.update(p.tobytes() for p in pts)
        return plain_density(sigma, omega, pts)

    failures = []

    def strict(sigma, omega, pts):
        if any(p.tobytes() not in seen for p in pts):
            failures.append(sigma)
            raise ex.ExprDomainError("division by zero", ex.parse("1/a1", 1))
        return plain_density(sigma, omega, pts)

    for name in ("singular-1d", "vertex-singular-2d", "cone-via-prism", "budget-with-frozen-prism"):
        run = GOLDEN[name][0]
        seen.clear()
        monkeypatch.setattr(qd, "SPECULATE", 1)
        monkeypatch.setattr(qd, "pullback_top_many", recording)
        plain = run()
        monkeypatch.setattr(qd, "SPECULATE", 16)
        monkeypatch.setattr(qd, "pullback_top_many", strict)
        fallback = run()
        assert record(fallback) == record(plain)
        assert fallback.cells == plain.cells  # only the cells the plain driver evaluates
    assert failures  # some speculative batches did fail


def test_an_error_surfaces_at_the_split_that_meets_it(monkeypatch):
    # the plain driver meets a failing point at its 40th density call; the
    # batched driver evaluates that point earlier, speculatively, but must
    # raise the same error there and not before
    run = GOLDEN["vertex-singular-2d"][0]
    plain_density = qd.pullback_top_many
    batches = []

    def recording(sigma, omega, pts):
        batches.append({p.tobytes() for p in pts})
        return plain_density(sigma, omega, pts)

    monkeypatch.setattr(qd, "SPECULATE", 1)
    monkeypatch.setattr(qd, "pullback_top_many", recording)
    run()
    bad = next(iter(batches[40] - set().union(*batches[:40])))
    raised = []

    def failing(sigma, omega, pts):
        for p in pts:
            if p.tobytes() == bad:
                raised.append(len(pts))
                raise ex.ExprDomainError("sqrt of negative value", ex.parse("sqrt(a1)", 1))
        return plain_density(sigma, omega, pts)

    outcomes = []
    for spec in (1, 16):
        raised.clear()
        monkeypatch.setattr(qd, "SPECULATE", spec)
        monkeypatch.setattr(qd, "pullback_top_many", failing)
        with pytest.raises(ex.ExprDomainError) as err:
            run()
        outcomes.append((str(err.value), raised[-1], max(raised)))
    # the failing call is the one child alone both times; before it, the
    # batched driver met the point in batches of more than one cell
    n_child = len(batches[1]) // 2
    message = "sqrt of negative value in sqrt(a1)"
    assert outcomes[0] == (message, n_child, 2 * n_child)
    assert outcomes[1][:2] == (message, n_child) and outcomes[1][2] > 2 * n_child


def test_every_stop_reason_is_reported():
    sqrt_dy = fo.Form(1, 2, [((2,), "1")])
    assert qd.integrate_simplex(SQRT_GRAPH, sqrt_dy, 1e-8).stop_reason == "tol"
    assert GOLDEN["budget-with-frozen-simplex"][0]().stop_reason == "max_cells"
    frozen = qd.integrate_simplex(SQRT_GRAPH, sqrt_dy, 1e-15, qd.QuadConfig(max_depth=3))
    assert (frozen.stop_reason, frozen.subdivisions, frozen.converged) == ("frozen", 7, False)
    with np.errstate(over="ignore", invalid="ignore"):
        steep = qd.finite_volume_check(ch.ExprMap(["exp(1000*t)", "t"], 1), 1e-6).per_index[(1,)]
    assert (steep.stop_reason, steep.density_calls, steep.cells) == ("non_finite", 1, 1)
    geometric = qd.finite_volume_check(ch.ExprMap(["t", "sin(1/t)"], 1), 1e-6).per_index[(2,)]
    assert geometric.stop_reason == "diverging:geometric" and geometric.diverging
    sustained = circle_budget_runs()["tsin_graph"]()
    assert sustained.stop_reason == "diverging:sustained" and sustained.diverging
    assert sustained.subdivisions == 27


# The oval of y^2 = x^3 - x as two graph charts over x in [-1, 0], each
# singular like a square root at both ends, oriented counterclockwise: x dy
# over both is the enclosed area 8 sqrt(pi) Gamma(3/4) / (5 Gamma(1/4)).
OVAL_UPPER = ch.ExprMap(["-t", "sqrt(t - t^3)"], 1)
OVAL_LOWER = ch.ExprMap(["t - 1", "-sqrt((t - 1)^3 - (t - 1))"], 1)
X_DY = fo.Form(1, 2, [((2,), "a1")])
OVAL_AREA = 8 * math.sqrt(math.pi) * math.gamma(0.75) / (5 * math.gamma(0.25))


def float_floor_charts():
    """(chart, form, exact integral) of the endpoint-singular charts whose
    graded nodes reach the float64 floor at tolerances below 1e-12."""
    man = mf.load_manifest(CIRCLE)
    return {
        "upper_sqrt": (man.simplices["upper_sqrt"], man.forms["dtheta"], math.pi),
        "lower_sqrt": (man.simplices["lower_sqrt"], man.forms["dtheta"], math.pi),
        "sqrt_graph": (man.simplices["sqrt_graph"], fo.Form(1, 2, [((2,), "1")]), 1.0),
        "oval_upper": (OVAL_UPPER, X_DY, OVAL_AREA / 2),
        "oval_lower": (OVAL_LOWER, X_DY, OVAL_AREA / 2),
    }


def float_floor_run(name="upper_sqrt"):
    sigma, omega, _ = float_floor_charts()[name]
    return qd.integrate_simplex(sigma, omega, 1e-13, qd.QuadConfig(max_cells=300))


@pytest.mark.parametrize("tol", [1e-13, 1e-14, 1e-15])
@pytest.mark.parametrize("name", list(float_floor_charts()))
def test_graded_charts_never_fail_at_the_float64_floor(name, tol, monkeypatch):
    # no input error, no node on a vertex; a result either bounds its true
    # error or says it did not converge
    seen = []
    plain_density = qd.pullback_top_many

    def recording(sigma, omega, pts):
        seen.append(pts[:, 0].copy())
        return plain_density(sigma, omega, pts)

    monkeypatch.setattr(qd, "pullback_top_many", recording)
    sigma, omega, exact = float_floor_charts()[name]
    budget = qd.QuadConfig(max_cells=300)
    r = qd.integrate_simplex(sigma, omega, tol, budget)
    if r.converged:
        assert r.stop_reason == "tol" and abs(r.value - exact) <= r.error_estimate
    else:
        assert r.stop_reason in ("max_cells", "frozen") and r.error_estimate > tol
    volume = qd.finite_volume_check(sigma, tol, budget)
    assert volume.verdict in ("yes", "inconclusive")
    nodes = np.concatenate(seen)
    assert ((nodes > 0.0) & (nodes < 1.0)).all()


def test_the_float64_guard_freezes_cells_instead_of_raising():
    charts = float_floor_charts()
    # upper_sqrt's Jacobian divides by sqrt(1 - (1 - 2x)^2), which is 0 at
    # x = 1: the cell at t = 1 whose node would round onto x = 1 freezes
    sigma, omega, _ = charts["upper_sqrt"]
    with pytest.raises(ex.ExprDomainError, match="division by zero"):
        fo.pullback_top_many(sigma, omega, np.array([[1.0]]))
    r = float_floor_run("upper_sqrt")
    assert r.frozen_cells == 1 and not r.converged
    # oval_lower's (x - 1)^3 - (x - 1) rounds to 0 for x below 5.6e-17: the
    # cell at t = 0 whose child raises there freezes
    sigma, omega, _ = charts["oval_lower"]
    with pytest.raises(ex.ExprDomainError, match="division by zero"):
        fo.pullback_top_many(sigma, omega, np.array([[5e-17]]))
    r = float_floor_run("oval_lower")
    assert r.frozen_cells == 1 and not r.converged


def test_the_float64_guard_keeps_input_errors():
    # a chart undefined on part of the open simplex is an input error, also
    # where graded cells shrink toward a vertex
    for comps in (["t", "log(t - 0.01)"], ["t", "sqrt(0.99 - t)"]):
        with pytest.raises(ex.ExprDomainError):
            qd.integrate_simplex(ch.ExprMap(comps, 1), X_DY, 1e-10)


@pytest.mark.parametrize("comps", [
    ["t", "sqrt(t - 10^(-15))"], ["t", "sqrt(t - 10^(-14))"], ["t", "sqrt(1 - 10^(-15) - t)"],
])
def test_a_chart_undefined_just_inside_a_vertex_is_an_input_error(comps):
    # the guard freezes only within float64's spacing at 1 (2.2e-16) of a
    # vertex: a hole 1e-15 wide is met by nodes float64 still resolves
    with pytest.raises(ex.ExprDomainError, match="sqrt of negative value"):
        qd.integrate_simplex(ch.ExprMap(comps, 1), fo.Form(1, 2, [((2,), "1")]), 1e-13, qd.QuadConfig(max_cells=300))


# The prism over a 1-simplex grades its simplex axis like the 1-simplex
# itself; its t-axis stays ungraded, since a cone's density carries
# (1 - t)^d.  dx ^ dy over the cone over each float-floor chart: the upper
# and lower half disks, the region between y = x and y = sqrt(x) traversed
# clockwise, and the oval's area split in two mirror images.
CONE_AREAS = {"upper_sqrt": math.pi / 2, "lower_sqrt": math.pi / 2, "sqrt_graph": -1 / 6,
              "oval_upper": OVAL_AREA / 2, "oval_lower": OVAL_AREA / 2}


def cone_floor_run(name="upper_sqrt", tol=1e-14):
    sigma = float_floor_charts()[name][0]
    return qd.integrate_simplex(ch.Cone(sigma), form_d(2, 2), tol, qd.QuadConfig(max_cells=300))


def test_a_cone_over_a_semialgebraic_arc_converges():
    # the ungraded prism spent 1,999 of 2,000 cells here and understated its
    # error (estimate 5.3e-9, true error 1.5e-8)
    sigma = float_floor_charts()["upper_sqrt"][0]
    r = qd.integrate_simplex(ch.Cone(sigma), form_d(2, 2), 1e-12, qd.QuadConfig(max_cells=2000))
    assert r.converged and r.subdivisions < 100
    assert abs(r.value - math.pi / 2) <= r.error_estimate


@pytest.mark.parametrize("tol", [1e-13, 1e-14, 1e-15])
@pytest.mark.parametrize("name", list(CONE_AREAS))
def test_graded_cones_never_fail_at_the_float64_floor(name, tol, monkeypatch):
    # as for the bare charts: no input error and no simplex node on a vertex
    seen = []
    plain_density = qd.pullback_top_many

    def recording(sigma, omega, pts):
        seen.append(pts[:, -1].copy())
        return plain_density(sigma, omega, pts)

    monkeypatch.setattr(qd, "pullback_top_many", recording)
    r = cone_floor_run(name, tol)
    if r.converged:
        assert r.stop_reason == "tol" and abs(r.value - CONE_AREAS[name]) <= r.error_estimate
    else:
        assert r.stop_reason in ("max_cells", "frozen") and r.error_estimate > tol
    nodes = np.concatenate(seen)
    assert ((nodes > 0.0) & (nodes < 1.0)).all()


@pytest.mark.parametrize("name", ["upper_sqrt", "oval_lower"])
def test_the_float64_guard_freezes_graded_prism_cells_instead_of_raising(name):
    # upper_sqrt: the cell whose child's node image would round onto b = 1
    # freezes; oval_lower: the cell whose child raises within float64's
    # spacing at 1 of b = 0 freezes (see the bare charts above)
    r = cone_floor_run(name)
    assert r.frozen_cells == 1 and not r.converged


@pytest.mark.parametrize("comps", [
    ["1", "sqrt(t - 10^(-15))"], ["1", "sqrt(t - 10^(-14))"], ["1", "sqrt(1 - 10^(-15) - t)"],
])
def test_a_cone_over_a_chart_undefined_just_inside_a_vertex_is_an_input_error(comps):
    # dx ^ dy over the cone over (1, f) has f' for its density, singular at the
    # hole: graded prism cells reach it, and the guard does not freeze them
    with pytest.raises(ex.ExprDomainError, match="sqrt of negative value"):
        qd.integrate_simplex(ch.Cone(ch.ExprMap(comps, 1)), form_d(2, 2), 1e-13, qd.QuadConfig(max_cells=300))


@pytest.mark.parametrize("name", ["upper_sqrt", "oval_lower"])
def test_speculation_changes_no_result_at_the_float64_floor(name, monkeypatch):
    batched = float_floor_run(name)
    monkeypatch.setattr(qd, "SPECULATE", 1)
    assert record(float_floor_run(name)) == record(batched)


@pytest.mark.parametrize("name", ["upper_sqrt", "oval_lower"])
def test_speculation_changes_no_cone_result_at_the_float64_floor(name, monkeypatch):
    batched = cone_floor_run(name)
    monkeypatch.setattr(qd, "SPECULATE", 1)
    assert record(cone_floor_run(name)) == record(batched)
