import math
from dataclasses import dataclass

import numpy as np
import pytest

from periodlab import chains as ch
from periodlab import expr as ex
from periodlab import forms as fo
from periodlab import periods as pe
from test_quad import OVAL_AREA, OVAL_LOWER, OVAL_UPPER, X_DY


@dataclass
class RepresentativeComparison:
    form_names: list
    periods_1: list
    periods_2: list
    differences: list
    max_difference: float
    all_converged: bool


def compare_representatives(c1, c2, forms, tol=1e-8, config=None) -> RepresentativeComparison:
    """Per-form difference of periods of two homologous cycles.

    Homology of c1 - c2 is the caller's assertion; this reports the numeric
    consequence (differences should sit within combined quadrature error)."""
    pm = pe.period_matrix([c1, c2], forms, tol, config)
    p1 = [e.value for e in pm.entries[0]]
    p2 = [e.value for e in pm.entries[1]]
    diffs = [a - b for a, b in zip(p1, p2)]
    return RepresentativeComparison(
        pm.form_names,
        p1,
        p2,
        diffs,
        max(abs(d) for d in diffs) if diffs else 0.0,
        pm.all_converged(),
    )


def winding_form(ambient=2, x=1, y=2):
    return fo.Form(
        1,
        ambient,
        [
            ((x,), f"-a{y}/(a{x}^2 + a{y}^2)"),
            ((y,), f"a{x}/(a{x}^2 + a{y}^2)"),
        ],
    )


def circle_trig():
    upper = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    lower = ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1)
    return pe.GeometricCycle("gamma", ch.Chain(1, [(upper, 1), (lower, 1)]))


def circle_sqrt():
    upper = ch.ExprMap(["1 - 2*t", "sqrt(1 - (1 - 2*t)^2)"], 1)
    lower = ch.ExprMap(["2*t - 1", "-sqrt(1 - (2*t - 1)^2)"], 1)
    return pe.GeometricCycle("gamma_semialg", ch.Chain(1, [(upper, 1), (lower, 1)]))


def test_circle_period_is_two_pi():
    pm = pe.period_matrix([circle_trig()], [("dtheta", winding_form())], 1e-8)
    assert pm.all_converged()
    assert pm.values()[0, 0] == pytest.approx(2 * math.pi, abs=1e-6)


def test_flat_torus_diagonal():
    a = ch.ExprMap(["cos(2*pi*t)", "sin(2*pi*t)", "1", "0"], 1)
    b = ch.ExprMap(["1", "0", "cos(2*pi*t)", "sin(2*pi*t)"], 1)
    cycles = [
        pe.GeometricCycle("A", ch.Chain(1, [(a, 1)])),
        pe.GeometricCycle("B", ch.Chain(1, [(b, 1)])),
    ]
    forms = [("t1", winding_form(4, 1, 2)), ("t2", winding_form(4, 3, 4))]
    pm = pe.period_matrix(cycles, forms, 1e-8)
    vals = pm.values()
    assert vals[0, 0] == pytest.approx(2 * math.pi, abs=1e-6)
    assert vals[1, 1] == pytest.approx(2 * math.pi, abs=1e-6)
    assert abs(vals[0, 1]) <= 1e-6
    assert abs(vals[1, 0]) <= 1e-6


def test_exact_form_pairs_to_zero():
    df = fo.exterior_derivative(fo.Form(0, 2, [((), "a1^2*a2 + sin(a1)")]))
    for cyc in (circle_trig(), circle_sqrt()):
        pm = pe.period_matrix([cyc], [("df", df)], 1e-8)
        assert abs(pm.values()[0, 0]) <= 1e-6


def test_non_closed_form_rejected():
    bad = fo.Form(1, 2, [((1,), "a2*a2")])
    with pytest.raises(pe.NotClosedError):
        pe.period_matrix([circle_trig()], [("bad", bad)], 1e-6)


def test_non_cycle_rejected():
    arc = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    open_chain = pe.GeometricCycle("open", ch.Chain(1, [(arc, 1)]))
    with pytest.raises(pe.NotClosedError):
        pe.period_matrix([open_chain], [("dtheta", winding_form())], 1e-6)


# closed, but d(omega) overflows to infinity for a1 > 0.87: resampled
OVERFLOWING = fo.Form(1, 2, [((1,), "a2*exp(16*a1)"), ((2,), "exp(16*a1)*2^1000*2^(-1000)/16")])
# the same, shifted: d(omega) overflows for a1 > -1.13, on most of [-2, 2]^2,
# so that 45 of the first 200 candidates are finite and the 100 accepted
# ones reach past them
MOSTLY_OVERFLOWING = fo.Form(1, 2, [((1,), "a2*exp(16*a1 + 32)"),
                                    ((2,), "exp(16*a1 + 32)*2^1000*2^(-1000)/16")])


def test_closedness_checks():
    assert pe.form_is_closed(winding_form())  # numeric fallback path
    assert pe.form_is_closed(fo.Form(1, 2, [((1,), "a2"), ((2,), "a1")]))  # symbolic
    assert not pe.form_is_closed(fo.Form(1, 2, [((1,), "a2*a2")]))
    assert pe.form_is_closed(OVERFLOWING)


def per_point_closedness(omega, rng_seed=20260808):
    """The sampled check one point at a time, as the batch replaces it:
    (verdict, indices of the candidates it accepted, up to the first at
    which d(omega) does not vanish)."""
    dw = fo.exterior_derivative(omega)
    fns = [ex.compile_vec(c) for _, c in dw.terms]
    rng = np.random.default_rng(rng_seed)
    accepted = []
    for i in range(pe.CLOSED_SAMPLES * 50):
        x = rng.uniform(-2.0, 2.0, omega.ambient)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = [float(fn(x.reshape(-1, 1))[0]) for fn in fns]
        except ex.ExprDomainError:
            continue
        if not all(math.isfinite(v) for v in vals):
            continue
        accepted.append(i)
        if any(abs(v) > 1e-8 for v in vals):
            return False, accepted
        if len(accepted) == pe.CLOSED_SAMPLES:
            return True, accepted
    return False, accepted


@pytest.mark.parametrize("omega", [
    winding_form(),
    fo.Form(1, 2, [((1,), "a2"), ((2,), "a1")]),  # closed symbolically: nothing sampled
    fo.Form(1, 2, [((1,), "a2*a2")]),
    OVERFLOWING,
    MOSTLY_OVERFLOWING,
    # d(a1*a2*log(a1)): closed where a1 > 0, and the batch raises on the rest
    fo.Form(1, 2, [((1,), "(log(a1) + 1)*a2"), ((2,), "a1*log(a1)")]),
    fo.Form(1, 2, [((1,), "a2*log(a1)")]),  # not closed where a1 > 0
    # closed, but defined on 1% of the candidates only: runs out of samples
    fo.Form(1, 2, [((1,), "(log(a1 - 1.96) + 1)*a2"), ((2,), "(a1 - 1.96)*log(a1 - 1.96)")]),
], ids=["winding", "symbolic", "not-closed", "overflow", "mostly-overflow", "log-hole", "log-hole-not-closed",
        "sparse-domain"])
def test_batched_closedness_matches_the_per_point_check(omega):
    verdict, accepted = per_point_closedness(omega)
    assert pe.form_is_closed(omega) == verdict
    dw = fo.exterior_derivative(omega)
    if not dw.is_zero():
        kept, values = pe._closed_samples(dw, 20260808)
        assert kept[: len(accepted)].tolist() == accepted
        assert values.shape == (len(kept), len(dw.terms))


def up_front_closed_samples(dw, rng_seed=20260808):
    """The closedness samples drawn all at once, CLOSED_SAMPLES * 50
    candidates, and evaluated one candidate at a time."""
    points = np.random.default_rng(rng_seed).uniform(-2.0, 2.0, (pe.CLOSED_SAMPLES * 50, dw.ambient))
    values = np.full((len(points), len(dw.terms)), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, p in enumerate(points):
            try:
                values[i] = dw.coefficients_many(p[None])[0]
            except ex.ExprDomainError:
                pass
    kept = np.flatnonzero(np.isfinite(values).all(axis=1))[: pe.CLOSED_SAMPLES]
    return kept, values[kept]


@pytest.mark.parametrize("omega", [
    fo.Form(0, 1, [((), "exp(200*a1^2)")]),  # d of it overflows where |a1| > 1.9
    fo.Form(0, 1, [((), "log(a1)")]),
    fo.Form(1, 2, [((1,), "(log(a1) + 1)*a2"), ((2,), "a1*log(a1)")]),
    fo.Form(1, 3, [((1,), "a2*a3"), ((2,), "sqrt(a3)*a1"), ((3,), "a1")]),
    fo.Form(2, 4, [((1, 2), "a3*log(a4 - 1.9)"), ((3, 4), "a1/a2")]),
], ids=["1-d-overflow", "1-d-log", "2-d-log-hole", "3-d-sqrt", "4-d-sparse"])
def test_closedness_samples_drawn_per_batch_are_the_up_front_draw(omega):
    # each batch of candidates comes from the one seeded generator when it
    # is evaluated; the stream, and so every kept index and value, is the
    # one that drawing every candidate first gives, bit for bit
    dw = fo.exterior_derivative(omega)
    kept, values = pe._closed_samples(dw, 20260808)
    ref_kept, ref_values = up_front_closed_samples(dw)
    assert kept.tolist() == ref_kept.tolist() and values.tobytes() == ref_values.tobytes()


def test_identical_representatives_agree_exactly():
    c = circle_trig()
    cmp = compare_representatives(c, c, [("dtheta", winding_form())], 1e-8)
    assert cmp.max_difference == 0.0


def test_smooth_vs_semialgebraic_representatives():
    cmp = compare_representatives(
        circle_trig(), circle_sqrt(), [("dtheta", winding_form())], 1e-7
    )
    assert cmp.all_converged
    assert cmp.max_difference <= 2e-6
    assert cmp.periods_1[0] == pytest.approx(2 * math.pi, abs=1e-6)
    assert cmp.periods_2[0] == pytest.approx(2 * math.pi, abs=1e-6)


def test_subdivided_representative_agrees():
    c = circle_trig()
    csd = pe.GeometricCycle("gamma_sd", ch.barycentric_subdivide(c.chain))
    cmp = compare_representatives(c, csd, [("dtheta", winding_form())], 1e-8)
    assert cmp.max_difference <= 2e-6


def test_bilinearity():
    c = circle_trig()
    w = winding_form()
    double_cycle = pe.GeometricCycle("2gamma", c.chain.scale(2))
    pm1 = pe.period_matrix([c], [("w", w)], 1e-9)
    pm2 = pe.period_matrix([double_cycle], [("w", w)], 1e-9)
    assert pm2.values()[0, 0] == pytest.approx(2 * pm1.values()[0, 0], abs=1e-8)
    pm3 = pe.period_matrix([c], [("2w", w.scale(2))], 1e-9)
    assert pm3.values()[0, 0] == pytest.approx(2 * pm1.values()[0, 0], abs=1e-8)


def test_reparametrised_cycle_same_periods():
    upper = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    lower = ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1)
    rho = ch.ExprMap(["t^2"], 1)  # orientation preserving self-map of [0,1]
    reparam = pe.GeometricCycle(
        "gamma_reparam",
        ch.Chain(1, [(ch.Composed(upper, rho), 1), (ch.Composed(lower, rho), 1)]),
    )
    cmp = compare_representatives(
        circle_trig(), reparam, [("dtheta", winding_form())], 1e-8
    )
    assert cmp.max_difference <= 2e-6


def test_chain_vanishes_geometrically():
    upper = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    c = ch.Chain(0)
    assert pe.chain_vanishes_geometrically(c)
    bd = ch.boundary(ch.Chain.of(upper))
    assert not pe.chain_vanishes_geometrically(bd)


def test_jobs_parallel_matches_serial():
    c = circle_trig()
    forms = [("w", winding_form()), ("df", fo.exterior_derivative(fo.Form(0, 2, [((), "a1*a2")])))]
    serial = pe.period_matrix([c], forms, 1e-8, jobs=1)
    parallel = pe.period_matrix([c], forms, 1e-8, jobs=4)
    assert serial.values().tolist() == parallel.values().tolist()


def test_chain_integral_sums_the_costs_and_keeps_the_first_miss():
    from periodlab import quad as qd

    # graded 1-simplices converge within any small budget; 2-simplices with a
    # square-root edge singularity do not
    w, budget = fo.Form(2, 2, [((1, 2), "1")]), qd.QuadConfig(max_cells=50)
    smooth = ch.Chain(2, [(ch.ExprMap(["a1 + a2", "a2"], 2), 1), (ch.ExprMap(["a1^2", "a2"], 2), 1)])
    edge_singular = [(ch.ExprMap(["a1", "sqrt(a2)"], 2), 1), (ch.ExprMap(["sqrt(a1)", "a2"], 2), -1)]
    mixed = ch.Chain(2, list(smooth.items()) + edge_singular)
    terms = [qd.integrate_simplex(s, w, 1e-12, budget) for s, _ in mixed.items()]
    r = pe.chain_integral(mixed, w, 1e-12, budget)
    assert [t.stop_reason for t in terms] == ["tol", "tol", "max_cells", "max_cells"]
    assert (r.stop_reason, r.converged, r.diverging) == ("max_cells", False, False)
    assert r.density_calls == sum(t.density_calls for t in terms)
    assert r.cells == sum(t.cells for t in terms)
    assert r.points == sum(t.points for t in terms)
    assert r.frozen_cells == sum(t.frozen_cells for t in terms)
    assert r.max_depth_reached == max(t.max_depth_reached for t in terms)
    assert r.subdivisions == sum(t.subdivisions for t in terms)
    assert pe.chain_integral(smooth, w, 1e-8).stop_reason == "tol"


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_oval_area_from_its_graded_charts(tol):
    # x dy over the oval of y^2 = x^3 - x: both charts are square-root
    # singular at both ends, and grading resolves them in tens of splits
    r = pe.chain_integral(ch.Chain(1, [(OVAL_UPPER, 1), (OVAL_LOWER, 1)]), X_DY, tol)
    assert r.converged and r.stop_reason == "tol" and r.frozen_cells == 0
    assert abs(r.value - OVAL_AREA) <= r.error_estimate <= 2 * tol  # each chart within tol
    assert r.subdivisions <= 200
