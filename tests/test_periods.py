import math
from dataclasses import dataclass

import pytest

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import periods as pe


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
    return pe.GeometricCycle("gamma_semialg", ch.Chain(1, [(upper, 1), (lower, 1)]),
                             provenance="semialgebraic graph arcs")


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


def test_closedness_checks():
    assert pe.form_is_closed(winding_form())  # numeric fallback path
    assert pe.form_is_closed(fo.Form(1, 2, [((1,), "a2"), ((2,), "a1")]))  # symbolic
    assert not pe.form_is_closed(fo.Form(1, 2, [((1,), "a2*a2")]))
    # closed, but d(omega) overflows to infinity for a1 > 0.87: resampled
    assert pe.form_is_closed(
        fo.Form(1, 2, [((1,), "a2*exp(16*a1)"), ((2,), "exp(16*a1)*2^1000*2^(-1000)/16")])
    )


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

    w, budget = winding_form(), qd.QuadConfig(max_cells=50)
    smooth, sqrt_arcs = circle_trig().chain, circle_sqrt().chain
    mixed = ch.Chain(1, list(smooth.items()) + list(sqrt_arcs.items()))
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
