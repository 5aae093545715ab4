import math

import numpy as np
import pytest

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import quad as qd
from periodlab import stokes as st
from periodlab.expr import ExprDomainError


def test_fundamental_theorem_on_sqrt_curve():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    f = fo.Form(0, 2, [((), "a1*a2")])
    rep = st.stokes_residual(sigma, f, 1e-6)
    assert rep.verdict == "pass"
    assert rep.rhs == pytest.approx(1.0)  # f(1,1) - f(0,0)
    assert rep.residual <= 1e-6


def test_unconverged_side_makes_the_verdict_inconclusive():
    # one cell cannot resolve the sqrt endpoint: no pass or fail is claimed
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    f = fo.Form(0, 2, [((), "a1*a2")])
    rep = st.stokes_residual(sigma, f, 1e-6, qd.QuadConfig(max_cells=1))
    assert not rep.lhs.converged
    assert rep.verdict == "inconclusive"


def test_parabola_sheet_stokes():
    sigma = ch.ExprMap(["a1^2", "a2"], 2)
    omega = fo.Form(1, 2, [((2,), "a1")])
    rep = st.stokes_residual(sigma, omega, 1e-6)
    assert rep.verdict == "pass"
    assert rep.lhs.value == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert rep.rhs == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_affine_simplex_linear_form_is_near_exact():
    sigma = ch.AffineSimplex([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    omega = fo.Form(1, 2, [((1,), "a2 + 1"), ((2,), "3*a1 - a2")])
    rep = st.stokes_residual(sigma, omega, 1e-10)
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-10


def test_check_chain_circle_with_zero_form():
    upper = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    lower = ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1)
    c = ch.Chain(1, [(upper, 1), (lower, 1)])
    f = fo.Form(0, 2, [((), "a1*a2 + sin(a1)")])
    rep = st.check_chain(c, f, 1e-6)
    assert rep.verdict == "pass"
    assert rep.sum_abs_residuals <= 2e-6


def test_check_chain_two_half_disk_cones():
    # the 2-chain of cones over the two arcs: boundary is the circle plus
    # cancelling radii; omega = x dy integrates to the enclosed area
    upper = ch.Cone(ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1))
    lower = ch.Cone(ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1))
    c = ch.Chain(2, [(upper, 1), (lower, 1)])
    omega = fo.Form(1, 2, [((2,), "a1")])
    rep = st.check_chain(c, omega, 1e-6)
    assert rep.verdict == "pass"
    assert rep.sum_abs_residuals <= 2e-6
    assert rep.lhs == pytest.approx(math.pi, abs=1e-6)


def test_check_chain_empty():
    rep = st.check_chain(ch.Chain(2), fo.Form(1, 2, [((1,), "a2")]), 1e-6)
    assert rep.residual == 0.0
    assert rep.verdict == "pass"


def test_check_chain_prism_as_two_triangles():
    # [0,1] x Delta_1 split along the diagonal
    lowtri = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    uptri = ch.AffineSimplex([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c = ch.Chain(2, [(lowtri, 1), (uptri, 1)])
    omega = fo.Form(1, 2, [((1,), "sin(a2)"), ((2,), "a1*a1")])
    rep = st.check_chain(c, omega, 1e-6)
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-6


def test_stokes_cone_closure():
    corpus = [
        ch.ExprMap(["t", "t^2"], 1),
        ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1),
        ch.ExprMap(["t", "sqrt(t)"], 1),
        ch.ExprMap(["a1^2", "a2"], 2),
        ch.ExprMap(["a1", "a2", "sqrt(a1 + a2)"], 2),
    ]
    for sigma in corpus:
        if sigma.dim == 1:
            omega = fo.Form(0, sigma.ambient, [((), "a1*a2")])
            omega_up = fo.Form(1, sigma.ambient, [((1,), "a2"), ((2,), "a1*a1")])
        else:
            omega = fo.Form(1, sigma.ambient, [((2,), "a1")])
            omega_up = fo.Form(
                2, sigma.ambient, [((1, 2), "a1 + 1")]
            )
        base = st.stokes_residual(sigma, omega, 1e-6)
        assert base.verdict == "pass", sigma.components
        coned = st.stokes_residual(ch.Cone(sigma), omega_up, 1e-5)
        assert coned.verdict == "pass", sigma.components
        assert coned.residual <= 1e-5


def test_stokes_residual_invariant_under_subdivision():
    sigma = ch.ExprMap(["a1^2", "a2"], 2)
    omega = fo.Form(1, 2, [((2,), "a1"), ((1,), "cos(a2)")])
    direct = st.stokes_residual(sigma, omega, 1e-6)
    sd = ch.barycentric_subdivide(ch.Chain.of(sigma))
    subdivided = st.check_chain(sd, omega, 1e-6)
    assert direct.verdict == "pass" and subdivided.verdict == "pass"
    assert abs(direct.lhs.value - subdivided.lhs) <= 2e-6


def square_triangulation():
    tri1 = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    tri2 = ch.AffineSimplex([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return [((0, 1, 2), tri1), ((0, 2, 3), tri2)]


def test_triangulated_square():
    omega = fo.Form(1, 2, [((2,), "a1")])
    rep = st.triangulated_stokes(square_triangulation(), omega, 1e-8)
    assert rep.verdict == "pass"
    assert rep.total_lhs == pytest.approx(1.0, abs=1e-8)
    assert max(rep.interior_residuals.values()) <= 1e-9
    assert sorted(f for f, _, _, _ in rep.boundary_terms) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert rep.boundary_integral == pytest.approx(1.0, abs=1e-8)


def test_triangulated_closed_surface():
    verts = np.vstack([np.zeros((1, 3)), np.eye(3)])
    tops = []
    for i in range(4):
        idx = [k for k in range(4) if k != i]
        vv = verts[idx]
        key = tuple(idx)
        if i % 2 == 1:  # orient consistently
            vv = vv[[0, 2, 1]]
            key = (key[0], key[2], key[1])
        tops.append((key, ch.AffineSimplex(vv)))
    omega = fo.Form(1, 3, [((2,), "a1"), ((3,), "sin(a1)")])
    rep = st.triangulated_stokes(tops, omega, 1e-6)
    assert rep.verdict == "pass"
    assert rep.boundary_terms == []
    assert abs(rep.total_lhs) <= 1e-6
    assert max(rep.interior_residuals.values()) <= 1e-6


def test_triangulated_single_simplex_reduces_to_residual():
    sigma = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    omega = fo.Form(1, 2, [((2,), "a1")])
    rep = st.triangulated_stokes([((0, 1, 2), sigma)], omega, 1e-8)
    single = st.stokes_residual(sigma, omega, 1e-8)
    assert rep.boundary_integral == pytest.approx(single.rhs, abs=1e-10)
    assert rep.total_lhs == pytest.approx(single.lhs.value, abs=1e-10)
    assert len(rep.boundary_terms) == 3 and not rep.interior_residuals


def test_triangulated_nonmanifold_rejected():
    tri = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tops = [((0, 1, 2), tri), ((0, 1, 3), tri), ((0, 1, 4), tri)]
    with pytest.raises(st.NonManifoldError):
        st.triangulated_stokes(tops, fo.Form(1, 2, [((2,), "a1")]), 1e-6)


def test_triangulated_face_domain_error_names_the_face():
    # face 1 lies on a1 = 0, where the Jacobian of sqrt(a1) divides by zero
    tri = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sheet = ch.ExprMap(["a2", "sqrt(a1)"], 2)
    message = r"^face 1: division by zero in 1/\(2\*sqrt\(a1\)\)"
    with pytest.raises(ExprDomainError, match=message):
        st.triangulated_stokes([((0, 1, 2), tri), ((1, 2, 3), sheet)], fo.Form(1, 2, [((1,), "1")]))


def test_closed_form_corpus_with_finite_volume_passes_stokes():
    # every closed-form simplex in the corpus whose faces all have finite
    # volume also passes the Stokes check
    corpus = [
        ch.ExprMap(["t", "t^2 + 1"], 1),
        ch.ExprMap(["t^(3/2)", "t"], 1),
        ch.ExprMap(["a1 + a2", "a1*a2"], 2),
        ch.ExprMap(["a1", "a2", "sqrt(a1 + a2)"], 2),
    ]
    for sigma in corpus:
        fv = qd.finite_volume_check(sigma, 1e-5)
        assert fv.verdict == "yes"
        for i in range(sigma.dim + 1):
            face_fv = qd.finite_volume_check(sigma.face(i), 1e-5)
            assert face_fv.verdict == "yes"
        if sigma.dim == 1:
            omega = fo.Form(0, sigma.ambient, [((), "a1 + a2*a2")])
        else:
            omega = fo.Form(1, sigma.ambient, [((1,), "a2"), ((2,), "a1*a1")])
        assert st.stokes_residual(sigma, omega, 1e-6).verdict == "pass"
