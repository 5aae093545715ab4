import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from test_chains import random_interior_point

from periodlab import chains as ch
from periodlab import expr as ex
from periodlab import forms as fo


def test_exterior_derivative_x_dy():
    d = fo.exterior_derivative(fo.Form(1, 2, [((2,), "a1")]))
    assert d.terms == ((tuple((1, 2)), ex.const(1)),)


def test_exterior_derivative_rotational():
    w = fo.Form(1, 2, [((1,), "-a2"), ((2,), "a1")])
    d = fo.exterior_derivative(w)
    assert len(d.terms) == 1
    idx, coeff = d.terms[0]
    assert idx == (1, 2)
    assert ex.compile_expr(coeff)((0.3, 0.7)) == 2.0


def test_dd_is_zero_symbolically():
    f = fo.Form(0, 2, [((), "a1^2*a2 + sin(a1)")])
    dd = fo.exterior_derivative(fo.exterior_derivative(f))
    assert dd.is_zero()


def test_dd_zero_more_cases():
    for expr_text in ("a1*a2*a3", "a1^3 + a2*a3", "cos(a2)*a1"):
        f = fo.Form(0, 3, [((), expr_text)])
        assert fo.exterior_derivative(fo.exterior_derivative(f)).is_zero()


def test_coefficients_of_a_form_without_terms_are_an_empty_column_block():
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    for omega in (fo.Form(1, 2, []), fo.exterior_derivative(fo.Form(1, 2, [((1,), "a1")]))):
        assert omega.is_zero()
        assert omega.coefficients_many(points).shape == (3, 0)
    w = fo.Form(1, 2, [((1,), "a2"), ((2,), "2")])
    assert w.coefficients_many(points).tolist() == [[0.2, 2.0], [0.4, 2.0], [0.6, 2.0]]


def test_form_merge_requires_increasing_indices():
    with pytest.raises(ValueError):
        fo.Form(2, 3, [((2, 1), "1")])
    with pytest.raises(ValueError):
        fo.Form(1, 2, [((3,), "1")])


def test_pullback_identity_density():
    ident = ch.ExprMap(["a1", "a2"], 2)
    w = fo.Form(2, 2, [((1, 2), "1")])
    assert fo.pullback_top_many(ident, w, ch.interior_grid(2, 4)) == pytest.approx(1.0)


def test_pullback_sqrt_curve():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    w = fo.Form(1, 2, [((2,), "1")])
    assert fo.pullback_top_many(sigma, w, np.array([[0.25]])) == pytest.approx([1.0])


def test_pullback_parabola():
    sigma = ch.ExprMap(["a1^2", "a2"], 2)
    w = fo.Form(2, 2, [((1, 2), "1")])
    assert fo.pullback_top_many(sigma, w, np.array([[0.5, 0.1]])) == pytest.approx([1.0])


def test_pullback_linear_in_form_and_chain_terms():
    sigma = ch.ExprMap(["a1 + a2", "a1*a2", "a2"], 2)
    w1 = fo.Form(2, 3, [((1, 2), "a3")])
    w2 = fo.Form(2, 3, [((1, 3), "a1"), ((2, 3), "1")])
    p = np.array([[0.2, 0.3]])
    combined = fo.pullback_top_many(sigma, w1 + w2, p)
    assert combined == pytest.approx(
        fo.pullback_top_many(sigma, w1, p) + fo.pullback_top_many(sigma, w2, p)
    )


def test_pullback_against_finite_difference_jacobian():
    rng = np.random.default_rng(3)
    sigma = ch.ExprMap(["a1*a2 + a1", "sin(a2)", "exp(a1 - a2)"], 2)
    w = fo.Form(2, 3, [((1, 3), "a2 + 1"), ((2, 3), "a1*a3")])
    h = 1e-6
    for _ in range(25):
        p = 0.9 * random_interior_point(2, rng) + 0.02
        jac_fd = np.empty((3, 2))
        for j in range(2):
            up, dn = p.copy(), p.copy()
            up[j] += h
            dn[j] -= h
            jac_fd[:, j] = (sigma.evaluate(up) - sigma.evaluate(dn)) / (2 * h)
        x = sigma.evaluate(p)
        expected = 0.0
        for idx, coeff in w.terms:
            rows = [i - 1 for i in idx]
            expected += ex.compile_expr(coeff)(x) * np.linalg.det(jac_fd[rows, :])
        got = fo.pullback_top_many(sigma, w, p[None])[0]
        assert abs(got - expected) <= 1e-6 * (1 + abs(got))


def test_pullback_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    sigma = ch.Cone(ch.ExprMap(["t", "t^2"], 1))
    w = fo.Form(2, 2, [((1, 2), "a1 + 1")])
    pts = np.array([random_interior_point(2, rng) for _ in range(9)])
    batch = fo.pullback_top_many(sigma, w, pts)
    for k, p in enumerate(pts):
        assert batch[k] == pytest.approx(fo.pullback_top_many(sigma, w, p[None])[0])


HEMISPHERE = ch.ExprMap(["a1", "a2", "sqrt(1 - a1^2 - a2^2)"], 2)
SOLID = ch.ExprMap(["a1 + a2*a3", "a2 - a1^2", "a3 + sin(a1)", "a1*a3"], 3)
PULLBACK_CASES = {
    1: [(HEMISPHERE, fo.Form(1, 3, [((1,), "a3"), ((3,), "a1*a2")])),
        (SOLID, fo.Form(1, 4, [((2,), "a4"), ((4,), "1")]))],
    # a2 dz^dx: the minor of rows 3 and 1 of a map into R^3, a proper subset
    2: [(HEMISPHERE, fo.Form(2, 3, [((1, 3), "-a2")])),
        (SOLID, fo.Form(2, 4, [((1, 3), "a2"), ((2, 4), "1")])),
        (ch.ExprMap(["a1^2 + a2", "a1*a2"], 2), fo.Form(2, 2, [((1, 2), "1 + a1")]))],
    3: [(SOLID, fo.Form(3, 4, [((1, 2, 4), "a3"), ((1, 3, 4), "1")])),
        (ch.PrismMap(HEMISPHERE), fo.Form(3, 3, [((1, 2, 3), "a1")]))],
}


@pytest.mark.parametrize("degree", sorted(PULLBACK_CASES))
def test_pullback_batch_is_its_one_point_batches_bit_for_bit(degree):
    # every component, from the minors of the point-last rows of the Jacobian
    rng = np.random.default_rng(degree)
    for sigma, w in PULLBACK_CASES[degree]:
        pts = np.array([random_interior_point(sigma.dim, rng) for _ in range(9)])
        batch = fo.pullback_many(sigma, w, pts)
        assert list(batch) == [tuple(c) for c in itertools.combinations(range(1, sigma.dim + 1), degree)]
        for k, p in enumerate(pts):
            one = fo.pullback_many(sigma, w, p[None])
            assert all(batch[idx][k].tobytes() == one[idx][0].tobytes() for idx in batch)


# -- the A + B splitting ----------------------------------------------------

AB_CASES = {
    1: (ch.ExprMap(["sin(t) + 1", "t^2"], 1), fo.Form(1, 2, [((1,), "a1*a2 + 1")])),
    2: (ch.ExprMap(["a1 + a2^2", "a2", "a1*a2"], 2), fo.Form(2, 3, [((1, 2), "a1*a3 + 1")])),
}


def prism_points(rng, n, d, lo=0.0, hi=1.0):
    """n points (t, b) of [lo, hi] x Delta_d: t of shape (n,), b of shape (n, d)."""
    t = lo + (hi - lo) * rng.random(n)
    return t, np.array([random_interior_point(d, rng) for _ in range(n)])


class ProfiledPrism(ch.PrismMap):
    """(t, b) |-> f(t) * sigma(b) for a profile expression f in t.  The
    library's prism is the cone's chart, f = 1 - t; the A + B identities
    hold for every f, and are checked on other profiles through this map."""

    def __init__(self, inner: ch.SingularSimplex, profile):
        super().__init__(inner)
        self.profile = ex.parse(profile, 1) if isinstance(profile, str) else profile
        self._vf = ex.compile_vec(self.profile)
        self._vdf = ex.compile_vec(ex.diff(self.profile, 1))

    def batch(self, cols, values=True, jacobian=True):
        f = self._vf(cols[:1])
        ivals, ijac = self.inner.batch(cols[1:], jacobian=jacobian)
        jac = None
        if jacobian:
            jac = np.empty((self.ambient, self.dim, cols.shape[1]))
            jac[:, 0] = self._vdf(cols[:1]) * ivals
            jac[:, 1:] = f * ijac
        return f * ivals if values else None, jac

    def key(self):
        return ("profiled-prism", self.inner.key(), self.profile)


@dataclass
class DecompAB:
    """Split of the prism pullback tau^*(eta) into the time-independent part
    A (pure spatial top form) and the dt-carrying part B.  Minors come from
    np.linalg.det (1 for a 0x0 minor), f and f' from the profile expression,
    independently of the library's pullback."""

    sigma: ch.SingularSimplex
    profile: object  # Expr f(t)
    eta: fo.Form
    C: fo.Form

    def __post_init__(self):
        self.prism = ProfiledPrism(self.sigma, self.profile)
        self._vf, self._vdf = self.prism._vf, self.prism._vdf
        self._vh = ex.compile_vec(self.eta.terms[0][1])

    def _at(self, t, b):
        """f(t), f'(t), sigma(b), its Jacobian and h at the prism image
        f(t) sigma(b), for a batch t of shape (n,) and b of shape (n, d)."""
        t = np.asarray(t, dtype=float)[None]
        b = np.asarray(b, dtype=float)
        f = self._vf(t)
        sig = self.sigma.evaluate_many(b)
        h = self._vh((f[:, None] * sig).T)
        return f, self._vdf(t), sig, self.sigma.jacobian_many(b), h

    def A_density(self, t, b) -> np.ndarray:
        """Component of A against db_1 ^ ... ^ db_d at each (t, b)."""
        d = self.sigma.dim
        f, _, _, jac, h = self._at(t, b)
        return h * f**d * np.linalg.det(jac[:, :d, :d])

    def B_density(self, t, b) -> dict:
        """Components of B against dt ^ db_J for (d-1)-subsets J at each (t, b).

        Expanded per the product-rule splitting of d(tau_1)^...^d(tau_d):
        B = (h o tau) sum_i (-1)^{i-1} f' f^{d-1} sigma_i dt ^ dsigma_(omit i),
        i.e. the coefficient rides at the prism image while the differentials
        are those of the unscaled sigma."""
        d = self.sigma.dim
        f, df, sig, jac, h = self._at(t, b)
        lead = df * f ** (d - 1) * h
        out = {}
        for cols in itertools.combinations(range(d), d - 1):
            total = 0.0
            for i in range(1, d + 1):
                rows = [r for r in range(d) if r != i - 1]
                total += (-1) ** (i - 1) * sig[:, i - 1] * np.linalg.det(jac[:, rows][:, :, cols])
            out[tuple(c + 1 for c in cols)] = lead * total
        return out

    def direct(self, t, b) -> dict:
        """Components of the direct pullback of eta along the prism map,
        keyed over (t, b)-coordinate subsets (1 = t)."""
        return fo.pullback_many(self.prism, self.eta, np.column_stack([t, b]))

    def combined(self, t, b) -> dict:
        """A + B assembled in the same component convention as direct()."""
        d = self.sigma.dim
        out = {tuple(range(2, d + 2)): self.A_density(t, b)}
        for j, v in self.B_density(t, b).items():
            out[(1,) + tuple(i + 1 for i in j)] = v
        return out


def decompose_AB(sigma: ch.SingularSimplex, profile, eta: fo.Form) -> DecompAB:
    """Split tau^*(eta) for tau(t,b) = f(t) sigma(b) and a single-term
    eta = h dx_1^...^dx_d into A + B with

        A = tau^*(h) f^d  dsigma_1^...^dsigma_d,
        B = dt ^ (df/dt) f^{d-1} tau^*(C),
        C = h sum_i (-1)^{i-1} x_i dx_1^...^(omit i)...^dx_d.
    """
    d = sigma.dim
    if len(eta.terms) != 1 or eta.terms[0][0] != tuple(range(1, d + 1)):
        raise ValueError("eta must be a single term h dx_1^...^dx_d")
    if eta.degree != d:
        raise ValueError("eta must have degree equal to dim(sigma)")
    profile = ex.parse(profile, 1) if isinstance(profile, str) else profile
    h = eta.terms[0][1]
    terms = []
    for i in range(1, d + 1):
        idx = tuple(j for j in range(1, d + 1) if j != i)
        terms.append((idx, ex.mul(ex.const((-1) ** (i - 1)), ex.mul(h, ex.var(i)))))
    return DecompAB(sigma, profile, eta, fo.Form(d - 1, eta.ambient, terms))


def exact_det3(m):
    (a, b, c), (d, e, f), (g, h, i) = ([Fraction(float(x)) for x in row] for row in m)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize("scale", [1e-100, 1e-8, 1.0, 1e8, 1e100])
def test_closed_form_3x3_minors_are_exact_to_a_few_ulps(scale):
    # a few ulps of Hadamard's bound (the product of the row lengths), near
    # singular matrices included.  np.linalg.det agrees as closely at unit
    # scale; far from it, it drifts by hundreds of ulps at 1e100
    rng = np.random.default_rng(3)
    sub = rng.standard_normal((300, 3, 3)) * scale
    sub[:100, 2] = sub[:100, 0] + sub[:100, 1] * (1.0 + 1e-9)
    sub[100:120, :, 0] = 0.0
    ulp = np.finfo(float).eps * np.prod(np.linalg.norm(sub, axis=2), axis=1)
    got = fo._det_many(sub)
    assert all(abs(Fraction(x) - exact_det3(m)) <= 2 * Fraction(u) for x, m, u in zip(got, sub, ulp))
    assert (got[100:120] == 0.0).all()
    if scale == 1.0:
        assert (np.abs(got - np.linalg.det(sub)) <= 4 * ulp).all()


def test_decompose_constant_profile_has_no_B():
    sigma = ch.ExprMap(["sin(t)", "t^2"], 1)
    eta = fo.Form(1, 2, [((1,), "a1 + a2^2")])
    dec = decompose_AB(sigma, "1", eta)
    t, b = prism_points(np.random.default_rng(0), 20, 1)
    assert all(np.all(v == 0.0) for v in dec.B_density(t, b).values())
    # and A alone carries the pullback, independent of t
    assert dec.A_density(t, b) == pytest.approx(dec.A_density(np.full(20, 0.5), b))


def test_decompose_d1_explicit():
    # sigma(b) = (b), f = 1 - t, eta = dx1: A = (1-t) db, B = -b dt
    sigma = ch.ExprMap(["t"], 1)
    eta = fo.Form(1, 1, [((1,), "1")])
    dec = decompose_AB(sigma, "1 - t", eta)
    t, b = prism_points(np.random.default_rng(1), 30, 1)
    assert dec.A_density(t, b) == pytest.approx(1.0 - t)
    assert dec.B_density(t, b)[()] == pytest.approx(-b[:, 0])


@pytest.mark.parametrize("d", [1, 2])
def test_decompose_matches_direct_pullback(d):
    sigma, eta = AB_CASES[d]
    dec = decompose_AB(sigma, "1 - t^2", eta)
    t, b = prism_points(np.random.default_rng(d), 100, d, 0.0005, 0.9995)
    direct = dec.direct(t, b)
    combined = dec.combined(t, b)
    assert set(direct) == set(combined)
    for key, val in direct.items():
        assert np.all(np.abs(val - combined[key]) <= 1e-10 * (1 + np.abs(val)))
    # values do not depend on how the points are batched: A and B on the
    # batch equal the same points taken as batches of one, bit for bit
    singles = [dec.combined(t[k : k + 1], b[k : k + 1]) for k in range(len(t))]
    for key, val in combined.items():
        np.testing.assert_array_equal(val, np.concatenate([one[key] for one in singles]))


def test_decompose_face_restrictions():
    for d in AB_CASES:
        check_face_restrictions(d)


def check_face_restrictions(d):
    # A vanishes on I x F (the restriction of the full pullback equals the
    # restricted B part); only A survives on {0,1} x Delta_d
    sigma, eta = AB_CASES[d]
    dec = decompose_AB(sigma, "1 - t^2", eta)
    rng = np.random.default_rng(9)
    n = 100
    for i in range(d + 1):
        face = ch.face_map(d, i)
        t, c = prism_points(rng, n, d - 1, 0.0005, 0.9995)
        # direct restriction: pull eta back along (t, c) |-> f(t) sigma(face(c))
        restricted_prism = ProfiledPrism(ch.Composed(sigma, face), dec.profile)
        direct = fo.pullback_many(restricted_prism, eta, np.column_stack([t, c]))
        # B restricted through the face embedding
        beta = dec.B_density(t, face.evaluate_many(c))
        jac_face = face.jacobian_many(c)
        for K in itertools.combinations(range(1, d), d - 1):
            cols = [k - 1 for k in K]
            want = 0.0
            for J, bval in beta.items():
                rows = [j - 1 for j in J]
                want += bval * np.linalg.det(jac_face[:, rows][:, :, cols])
            got = direct[(1,) + tuple(k + 1 for k in K)]
            assert np.all(np.abs(got - want) <= 1e-10 * (1 + np.abs(got)))
        # the pure-spatial component on the face (the A side) vanishes:
        # the face domain has only d-1 spatial directions, so there is no
        # spatial d-subset at all
        spatial_keys = [k for k in direct if 1 not in k]
        assert all(len(k) < d + 1 for k in spatial_keys)
    # on {0,1} x Delta_d the dt components die: direct == A alone
    _, b = prism_points(rng, n, d)
    spatial = tuple(range(2, d + 2))
    for t_edge in (0.0, 1.0):
        t = np.full(n, t_edge)
        direct = dec.direct(t, b)[spatial]
        assert np.all(np.abs(direct - dec.A_density(t, b)) <= 1e-10 * (1 + np.abs(direct)))


def test_decompose_rejects_multi_term_eta():
    sigma = ch.ExprMap(["t", "t^2"], 1)
    eta = fo.Form(1, 2, [((1,), "1"), ((2,), "1")])
    with pytest.raises(ValueError):
        decompose_AB(sigma, "1 - t", eta)
