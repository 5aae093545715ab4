import hashlib
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

CIRCLE = pathlib.Path(__file__).resolve().parent.parent / "manifests" / "circle.json"


def random_interior_point(d: int, rng) -> np.ndarray:
    """Uniform point in the open simplex via sorted-uniform gaps."""
    if d == 0:
        return np.zeros(0)
    cuts = np.sort(rng.random(d))
    p = np.diff(np.concatenate(([0.0], cuts)))
    return np.clip(p, 1e-12, None)


def values_and_jacobians(m: ch.SingularSimplex, points):
    """(values (n, ambient), Jacobians (n, ambient, dim)) at an (n, dim)
    batch, both from one ``batch`` call, as C-contiguous arrays."""
    vals, jacs = m.batch(np.asarray(points, dtype=float).T)
    return np.ascontiguousarray(vals.T), np.ascontiguousarray(jacs.transpose(2, 0, 1))


def prism_q(t: float, b) -> np.ndarray:
    """Reparametrisation [0,1] x Delta_d -> Delta_{d+1} collapsing {1} x Delta_d
    to the origin; satisfies prism = cone o q."""
    b = np.asarray(b, dtype=float)
    return np.concatenate(([(1.0 - t) * (1.0 - b.sum())], (1.0 - t) * b))


def prism_q_inverse(a):
    """Inverse of q away from the origin: (a_0,...,a_d) |-> (1-A, a_1/A,...)."""
    a = np.asarray(a, dtype=float)
    s = a.sum()
    if s <= 0.0:
        raise ValueError("q is not invertible at the origin")
    return 1.0 - s, a[1:] / s


def cone_chain(c: ch.Chain) -> ch.Chain:
    return ch.Chain(c.degree + 1, [(ch.Cone(s), n) for s, n in c.terms.items()])


def matches_geometrically(c1: ch.Chain, c2: ch.Chain, tol=1e-12, grid_m=4) -> bool:
    """Termwise cancellation of c1 - c2 up to pointwise-equal evaluators."""
    diff = c1 - c2
    if diff.is_zero():
        return True
    grid = ch.interior_grid(diff.degree, grid_m)
    groups = []
    for sigma, n in diff.items():
        fp = np.array([sigma.evaluate(p) for p in grid])
        for g in groups:
            if np.abs(g[0] - fp).max() <= tol:
                g[1] += n
                break
        else:
            groups.append([fp, n])
    return all(g[1] == 0 for g in groups)


def test_face_map_dim1():
    assert ch.face_map(1, 0).evaluate(np.zeros(0)) == pytest.approx([1.0])
    assert ch.face_map(1, 1).evaluate(np.zeros(0)) == pytest.approx([0.0])


def test_face_map_dim2_opposite_origin():
    f = ch.face_map(2, 0)
    for b in (0.0, 0.3, 1.0):
        assert f.evaluate(np.array([b])) == pytest.approx([1.0 - b, b])


def test_face_map_index_errors():
    with pytest.raises(IndexError):
        ch.face_map(2, 3)
    with pytest.raises(ValueError):
        ch.face_map(0, 0)


def test_boundary_of_segment():
    seg = ch.AffineSimplex([[0.0, 0.0], [2.0, 1.0]])
    bd = ch.boundary(ch.Chain.of(seg))
    terms = {tuple(s.vertices[0]): n for s, n in bd.items()}
    assert terms == {(2.0, 1.0): 1, (0.0, 0.0): -1}


def test_boundary_squared_is_zero():
    sigma = ch.ExprMap(["a1 + a2^2", "sin(a1)*a2", "a1*a2"], 2)
    assert ch.boundary(ch.boundary(ch.Chain.of(sigma))).is_zero()
    aff = ch.AffineSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ch.boundary(ch.boundary(ch.Chain.of(aff))).is_zero()


def test_boundary_of_circle_chain_cancels():
    upper = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    lower = ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1)
    bd = ch.boundary(ch.Chain(1, [(upper, 1), (lower, 1)]))
    assert matches_geometrically(bd, ch.Chain(0))


def test_cone_of_point_is_segment():
    p = ch.AffineSimplex([[1.0, 0.0]])
    cone = ch.Cone(p)
    for a0 in (0.0, 0.25, 1.0):
        assert cone.evaluate(np.array([a0])) == pytest.approx([a0, 0.0])


def test_cone_of_identity_on_delta1():
    ident = ch.ExprMap(["a1"], 1)
    cone = ch.Cone(ident)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_interior_point(2, rng)
        assert cone.evaluate(p) == pytest.approx([p[1]])


def test_cone_faces_match_raw_composition():
    sigma = ch.ExprMap(["a1 + a2^2", "sin(a1)*a2"], 2)
    cone = ch.Cone(sigma)
    rng = np.random.default_rng(1)
    for i in range(cone.dim + 1):
        structural = cone.face(i)
        raw = super(ch.Composed, ch.Composed).__new__(ch.Composed)
        raw.__init__(cone, ch.face_map(cone.dim, i))
        for _ in range(60):
            b = random_interior_point(sigma.dim, rng)
            assert np.abs(structural.evaluate(b) - raw.evaluate(b)).max() <= 1e-12


def test_cone_boundary_identity():
    # d >= 1: boundary(cone(s)) = s - cone(boundary(s))
    arc = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    lhs = ch.boundary(ch.Chain.of(ch.Cone(arc)))
    rhs = ch.Chain.of(arc) - cone_chain(ch.boundary(ch.Chain.of(arc)))
    assert matches_geometrically(lhs, rhs)
    sigma = ch.ExprMap(["a1*a2", "a1 + a2", "a2^2"], 2)
    lhs = ch.boundary(ch.Chain.of(ch.Cone(sigma)))
    rhs = ch.Chain.of(sigma) - cone_chain(ch.boundary(ch.Chain.of(sigma)))
    assert matches_geometrically(lhs, rhs)


def test_cone_continuity_at_vertex():
    sigma = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    cone = ch.Cone(sigma)
    bound = max(
        np.abs(sigma.evaluate(np.array([t]))).max() for t in np.linspace(0, 1, 50)
    )
    for k in range(1, 21):
        a = 2.0**-k
        p = np.array([a / 3, a / 2])  # total mass 5a/6
        assert np.abs(cone.evaluate(p)).max() <= p.sum() * bound + 1e-15


def test_prism_q_examples():
    assert prism_q(0.0, np.array([0.3])) == pytest.approx([0.7, 0.3])
    assert prism_q(1.0, np.array([0.3])) == pytest.approx([0.0, 0.0])
    t, b = prism_q_inverse(prism_q(0.4, np.array([0.2, 0.1])))
    assert t == pytest.approx(0.4)
    assert b == pytest.approx([0.2, 0.1])


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=0.999),
    b1=st.floats(min_value=0.01, max_value=0.5),
    b2=st.floats(min_value=0.01, max_value=0.45),
)
def test_prism_equals_cone_after_q(t, b1, b2):
    sigma = ch.ExprMap(["a1 + a2^2", "sin(a1)*a2", "exp(a1)*a2"], 2)
    prism = ch.PrismMap(sigma)
    cone = ch.Cone(sigma)
    b = np.array([b1, b2])
    lhs = prism.evaluate(np.concatenate(([t], b)))
    rhs = cone.evaluate(prism_q(t, b))
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_subdivide_segment():
    seg = ch.AffineSimplex([[0.0], [1.0]])
    sd = ch.barycentric_subdivide(ch.Chain.of(seg))
    assert len(sd) == 2
    # boundary telescopes to the original endpoints exactly
    assert ch.boundary(sd) == ch.boundary(ch.Chain.of(seg))


def test_subdivide_triangle_integral_agreement():
    sigma = ch.ExprMap(["a1^2 + a2", "a2*a1"], 2)
    omega = fo.Form(2, 2, [((1, 2), "1 + a1*a2")])
    direct = qd.integrate_simplex(sigma, omega, 1e-10)
    sd = ch.barycentric_subdivide(ch.Chain.of(sigma))
    assert len(sd) == 6
    total = sum(n * qd.integrate_simplex(s, omega, 1e-10).value for s, n in sd.items())
    assert abs(total - direct.value) <= 1e-8


@pytest.mark.parametrize("d", range(5))
def test_reference_subdivision_pieces_are_signed_by_orientation(d):
    # one piece per flag, (d+1)! of them, each 1/(d+1)! of the volume and
    # signed like the determinant of its linear part
    pieces = ch.reference_subdivision(d)
    assert len(pieces) == math.factorial(d + 1)
    assert len({piece.key() for _, piece in pieces}) == len(pieces)
    for sign, piece in pieces:
        det = np.linalg.det(piece.jacobian_many(np.zeros((1, d)))[0])
        assert sign == np.sign(det)
        assert abs(det) == pytest.approx(1.0 / math.factorial(d + 1))


def test_subdivide_commutes_with_boundary():
    sigma = ch.ExprMap(["a1 + a2", "a1*a2", "a2^2"], 2)
    tau = ch.AffineSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    c = ch.Chain(2, [(sigma, 2), (tau, -1)])
    assert ch.boundary(ch.barycentric_subdivide(c)) == ch.barycentric_subdivide(ch.boundary(c))


def test_chain_merging_uses_structural_equality():
    a = ch.ExprMap(["t", "sqrt(t)"], 1)
    b = ch.ExprMap(["t", "sqrt(t)"], 1)
    c = ch.Chain(1, [(a, 1), (b, 2)])
    assert len(c) == 1 and c.terms[a] == 3
    assert (c - c.scale(1)).is_zero()


def test_a_chain_holds_maps_into_one_ambient_space():
    plane, space = ch.ExprMap(["t", "t"], 1), ch.ExprMap(["t", "t", "t"], 1)
    with pytest.raises(ValueError, match=r"a map into R\^3 in a chain of maps into R\^2"):
        ch.Chain(1, [(plane, 1), (space, 1)])
    with pytest.raises(ValueError):
        ch.Chain.of(space) + ch.Chain.of(plane)
    # a chain whose terms cancelled holds no map, and takes any ambient
    assert (ch.Chain.of(plane) - ch.Chain.of(plane) + ch.Chain.of(space)).terms == {space: 1}


def test_prism_map_refuses_boundary_and_cone():
    prism = ch.PrismMap(ch.ExprMap(["t"], 1))
    with pytest.raises(ValueError):
        ch.boundary(ch.Chain(2, [(prism, 1)]))
    with pytest.raises(ValueError):
        ch.Cone(prism)


def test_barycentric_subdivision_refuses_a_prism_map():
    # subdividing Delta_2 would cut [0,1] x Delta_1 along the wrong
    # pieces, and so would a map over the prism
    for prism in (
        ch.PrismMap(ch.ExprMap(["t"], 1)),
        ch.Composed(ch.ExprMap(["a1", "a2"], 2), ch.PrismMap(ch.ExprMap(["t", "t^2"], 1))),
    ):
        with pytest.raises(ValueError, match="simplex-domain"):
            ch.barycentric_subdivide(ch.Chain(2, [(prism, 1)]))


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(7)
    sigma = ch.ExprMap(["a1*a2 + a2^2", "sin(a1)", "exp(a2 - a1)"], 2)
    maps = [
        sigma,
        ch.Cone(sigma),
        ch.Composed(sigma, ch.face_map(2, 1)),
        ch.PrismMap(sigma),
        ch.AffineSimplex([[0, 0, 0], [1, 2, 0], [0, 1, 1]]),
    ]
    for m in maps:
        for _ in range(10):
            p = 0.8 * random_interior_point(m.dim, rng) + 0.02
            jac = m.jacobian(p)
            h = 1e-6
            for j in range(m.dim):
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                fd = (m.evaluate(up) - m.evaluate(dn)) / (2 * h)
                assert np.abs(jac[:, j] - fd).max() <= 1e-5 * (1 + np.abs(fd).max())


def glued_cap():
    """A glued 2-simplex: the half-disk cap over a segment of its diameter."""
    from periodlab import glue as gl

    cap = ch.ExprMap(["cos(pi*a2/2)*(1 - a2 - 2*a1)/(1 - a2)", "sin(pi*a2/2)"], 2)
    segment = ch.AffineSimplex([[1.0, 0.0], [0.2, 0.0]])
    return gl.GluedMap(cap, segment, [2], [("w", 0), ("w", 1), ("v", 0)])


def glued_fan():
    """A glued 2-simplex: the cap's edge a2 = 0 joined with one interior point
    of the cap, so that w-mass vanishes on a whole edge."""
    from periodlab import glue as gl

    cap = glued_cap().h1_sigma
    return gl.GluedMap(cap, ch.AffineSimplex([cap.evaluate([0.2, 0.3])]), [0, 1],
                       [("v", 0), ("v", 1), ("w", 0)])


def test_batch_of_many_matches_batch_of_one():
    rng = np.random.default_rng(8)
    sigma = ch.ExprMap(["a1*a2", "sin(a1) + a2"], 2)
    maps = [sigma, ch.AffineSimplex([[0, 0, 0], [1, 2, 0], [0, 1, 1]]), ch.Cone(sigma),
            ch.PrismMap(sigma), ch.Composed(sigma, ch.face_map(2, 0)), glued_cap()]
    for m in maps:
        pts = np.array([random_interior_point(m.dim, rng) for _ in range(7)])
        ev = m.evaluate_many(pts)
        jc = m.jacobian_many(pts)
        for k, p in enumerate(pts):
            np.testing.assert_array_equal(ev[k], m.evaluate(p))
            np.testing.assert_array_equal(jc[k], m.jacobian(p))


def test_one_pass_evaluation_is_the_two_batches_bit_for_bit():
    rng = np.random.default_rng(9)
    sigma = ch.ExprMap(["a1*a2", "sin(a1) + a2"], 2)
    arc = ch.ExprMap(["1 - 2*t", "sqrt(1 - (1 - 2*t)^2)"], 1)
    maps = [sigma, ch.AffineSimplex([[0, 0, 0], [1, 2, 0], [0, 1, 1]]), ch.Cone(sigma),
            ch.PrismMap(sigma), ch.PrismMap(arc.face(0)),
            ch.PrismMap(ch.Composed(sigma, ch.face_map(2, 1))),
            ch.Composed(sigma, ch.face_map(2, 0)), ch.Composed(sigma, ch.AffineSimplex([[0.3, 0.2]])),
            ch.Composed(ch.Cone(arc), ch.face_map(2, 0)), glued_cap()]
    assert {type(m) for m in maps} == set(ch.SingularSimplex.__subclasses__())
    batches = [(m, np.array([random_interior_point(m.dim, rng) for _ in range(7)])) for m in maps]
    # a glued batch with points of zero w-mass (on the edge a2 = 0 of the fan)
    batches.append((glued_fan(), np.array([[0.3, 0.0], [0.2, 0.5], [0.0, 0.0], [0.6, 0.0], [0.1, 0.1]])))
    for m, pts in batches:
        vals, jacs = values_and_jacobians(m, pts)
        assert vals.tobytes() == m.evaluate_many(pts).tobytes()
        assert jacs.tobytes() == m.jacobian_many(pts).tobytes()
        assert (vals.shape, jacs.shape) == ((len(pts), m.ambient), (len(pts), m.ambient, m.dim))
        assert vals.flags.c_contiguous and jacs.flags.c_contiguous
        # the public batches are the point-last one, transposed byte for byte,
        # whichever parts it is asked for
        for values, jacobian in ((True, True), (True, False), (False, True)):
            pl_vals, pl_jacs = m.batch(pts.T, values=values, jacobian=jacobian)
            assert (pl_vals is None, pl_jacs is None) == (not values, not jacobian)
            if values:
                assert pl_vals.shape == (m.ambient, len(pts))
                assert np.ascontiguousarray(pl_vals.T).tobytes() == vals.tobytes()
            if jacobian:
                assert pl_jacs.shape == (m.ambient, m.dim, len(pts))
                assert np.ascontiguousarray(pl_jacs.transpose(2, 0, 1)).tobytes() == jacs.tobytes()


# sha256 (first 16 hex digits) of the values then the Jacobians of one fixed
# batch per evaluator class, as the (n, ...) batches computed them before the
# point-last layout: the layout must not move a bit.  No golden covers a
# cone's Jacobian otherwise: cones are integrated as prisms.
EVALUATOR_BYTES = {
    "ExprMap": "0171fcb27c9d11b2",
    "AffineSimplex": "23f280e8ea3fb24c",
    "Cone": "1c1303d2fc100961",
    "PrismMap": "e79cc280318607ab",
    "Composed": "a05af7aa924fc27c",
    "GluedMap": "8a92999cd2e36143",
}


def test_each_evaluator_class_keeps_the_bytes_of_its_batches():
    hemi = ch.ExprMap(["a1", "a2", "sqrt(1 - a1^2 - a2^2)"], 2)
    p2 = np.array([[0.1, 0.2], [0.3, 0.3], [0.6, 0.1]])
    p3 = np.array([[0.1, 0.2, 0.3], [0.2, 0.3, 0.1], [0.4, 0.1, 0.2]])
    cases = [
        (hemi, p2),
        (ch.AffineSimplex([[0, 0, 0], [1, 2, 0], [0, 1, 1]]), p2),
        (ch.Cone(hemi), p3),
        (ch.PrismMap(hemi), p3),
        (ch.Composed(hemi, ch.AffineSimplex([[0.2, 0.1], [0.7, 0.1], [0.2, 0.6]])), p2),
        (glued_cap(), p2),
    ]
    got = {}
    for m, pts in cases:
        vals, jacs = values_and_jacobians(m, pts)
        got[type(m).__name__] = hashlib.sha256(vals.tobytes() + jacs.tobytes()).hexdigest()[:16]
    assert got == EVALUATOR_BYTES


def count_batches(monkeypatch, m: ch.SingularSimplex) -> list:
    """The (values, jacobian) flags of every later ``m.batch`` call, in order."""
    calls, batch = [], m.batch

    def counting(cols, values=True, jacobian=True):
        calls.append((values, jacobian))
        return batch(cols, values, jacobian)

    monkeypatch.setattr(m, "batch", counting)
    return calls


def test_a_prism_or_cone_over_a_composed_map_asks_its_inner_map_once(monkeypatch):
    # the composite asks the composed map for values and Jacobian in one
    # call, and the composed map asks its own inner map once for each
    piece = ch.AffineSimplex([[0.2, 0.1], [0.7, 0.1], [0.2, 0.6]])
    composed = ch.Composed(ch.ExprMap(["a1*a2", "sin(a1) + a2"], 2), piece)
    calls = count_batches(monkeypatch, piece)
    pts = np.array([[0.3, 0.2, 0.1], [0.5, 0.1, 0.6]])
    values_and_jacobians(ch.PrismMap(composed), pts)
    assert calls == [(True, False), (False, True)]
    calls.clear()
    ch.Cone(composed).jacobian_many(pts)
    assert calls == [(True, False), (False, True)]


def test_a_cone_asks_its_inner_map_once_for_values_and_jacobian(monkeypatch):
    sigma = ch.ExprMap(["a1*a2", "sin(a1) + a2"], 2)
    calls = count_batches(monkeypatch, sigma)
    values_and_jacobians(ch.Cone(sigma), np.array([[0.3, 0.2, 0.1], [0.5, 0.1, 0.2]]))
    assert calls == [(True, True)]


def test_a_cone_jacobian_at_the_cone_point_is_nan_without_a_warning():
    # the cone point is never handed to the wrapped simplex (under pytest's
    # filterwarnings = error, a 0/0 there fails the test)
    cone = ch.Cone(ch.ExprMap(["a1*a2", "sin(a1) + a2"], 2))
    pts = np.array([[0.0, 0.0, 0.0], [0.2, 0.3, 0.1]])
    jac = cone.jacobian_many(pts)
    assert np.isnan(jac[0]).all() and np.isfinite(jac[1]).all()
    np.testing.assert_array_equal(jac[1], cone.jacobian(pts[1]))
    np.testing.assert_array_equal(cone.evaluate_many(pts)[0], np.zeros(2))


def _domain_error(call):
    with pytest.raises(ex.ExprDomainError) as err:
        call()
    return str(err.value)


ONE_D = np.array([[0.0], [0.5]])
PRISM_1D = np.array([[0.0, 0.0], [0.5, 0.5]])


def _one_pass_error_cases():
    """(map, points, the call that raises the first error of evaluate_many
    then jacobian_many).  The composed and prism maps fail in two places at
    once, so that the order of their evaluations shows."""
    sqrt_t, sqrt_2t, log_t = (ch.ExprMap(c, 1) for c in (["sqrt(t)"], ["t", "sqrt(2*t)"], ["t", "log(t)"]))
    sqrt_3t = ch.ExprMap(["t", "sqrt(3*t)"], 1)
    return [
        # inner values, outer values, outer Jacobian, inner Jacobian
        (ch.Composed(sqrt_2t, sqrt_t), ONE_D, lambda: sqrt_2t.jacobian_many(sqrt_t.evaluate_many(ONE_D))),
        (ch.Composed(log_t, sqrt_t), ONE_D, lambda: log_t.evaluate_many(sqrt_t.evaluate_many(ONE_D))),
        # inner values, inner Jacobian
        (ch.PrismMap(log_t), PRISM_1D, lambda: log_t.evaluate_many(ONE_D)),
        (ch.PrismMap(sqrt_3t), PRISM_1D, lambda: sqrt_3t.jacobian_many(ONE_D)),
        (ch.ExprMap(["t", "sqrt(t)"], 1), ONE_D, lambda: sqrt_t.jacobian_many(ONE_D)),
        (ch.Cone(log_t), np.array([[0.5, 0.0]]), lambda: log_t.evaluate_many(ONE_D)),
        (ch.Cone(sqrt_3t), np.array([[0.5, 0.0]]), lambda: sqrt_3t.jacobian_many(ONE_D)),
    ]


@pytest.mark.parametrize("case", range(len(_one_pass_error_cases())))
def test_one_pass_evaluation_raises_the_first_error_of_the_two_batches(case):
    m, pts, first = _one_pass_error_cases()[case]
    expected = _domain_error(first)
    assert _domain_error(lambda: (m.evaluate_many(pts), m.jacobian_many(pts))) == expected
    assert _domain_error(lambda: values_and_jacobians(m, pts)) == expected


CONTINUITY_DEPTH = 20  # check_continuity probes down to 2^-CONTINUITY_DEPTH


def check_continuity(sigma: ch.SingularSimplex) -> float:
    """Spot-check continuity on a boundary-approaching grid.

    For sample points on each facet, evaluates along the inward segment at
    offsets 2^-k down to 2^-CONTINUITY_DEPTH and returns the largest gap
    between the deepest sample and the facet value.  A validation, not a
    proof: small output is evidence of continuity at the boundary, nothing
    more."""
    d = sigma.dim
    if d == 0:
        return 0.0
    center = np.full(d, 1.0 / (d + 1))
    grid = ch.interior_grid(d - 1)
    offsets = 2.0 ** -np.arange(4, CONTINUITY_DEPTH + 1, 4)
    worst = 0.0
    for x0 in np.vstack([ch.face_map(d, i).evaluate_many(grid) for i in range(d + 1)]):
        vals = sigma.evaluate_many(np.vstack([x0, x0 + offsets[:, None] * (center - x0)]))
        gaps = np.abs(vals[1:] - vals[0]).max(axis=1)
        rising = gaps[1:] > gaps[:-1] + 1e-9
        worst = max(worst, float(gaps[1:][rising].max(initial=0.0)), float(gaps[-1]))
    return worst


def test_continuity_spot_check():
    # continuous maps: residual gaps at offset 2^-20 are small; a map that
    # cannot be evaluated on the closed simplex raises instead
    assert check_continuity(ch.ExprMap(["t", "sqrt(t)"], 1)) <= 1e-2
    assert check_continuity(ch.Cone(ch.ExprMap(["a1 + a2^2", "a2"], 2))) <= 1e-5

    with pytest.raises(ex.ExprDomainError):
        check_continuity(ch.ExprMap(["t", "atan(1/t)"], 1))


def test_expression_maps_compile_on_first_use(monkeypatch):
    # loading parses every simplex and form and compiles none of them;
    # integrating one simplex against one form compiles one program of the
    # simplex's components and row-major Jacobian entries and one of the
    # form's coefficients, once each, and nothing else
    compile_many, programs = ex.compile_many, []
    monkeypatch.setattr(ex, "compile_many", lambda es: programs.append(list(es)) or compile_many(es))
    man = mf.load_manifest(CIRCLE)
    maps = [s for s in man.simplices.values() if isinstance(s, ch.ExprMap)]
    assert len(maps) == len(man.simplices) > 1 and len(man.forms) > 1
    assert programs == []
    assert not any(s._programs for s in maps)
    assert not any("_program" in vars(f) for f in man.forms.values())
    sigma, omega = man.simplices["upper_sqrt"], man.forms["x_dy"]
    for _ in range(2):
        assert qd.integrate_simplex(sigma, omega, 1e-8).converged
    jac = [ex.diff(c, j + 1) for c in sigma.components for j in range(sigma.dim)]
    assert programs == [[*sigma.components, *jac], [c for _, c in omega.terms]]
    assert not any(s._programs for s in maps if s is not sigma)
    assert not any("_program" in vars(f) for f in man.forms.values() if f is not omega)
