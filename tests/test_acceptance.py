"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else; run with -s to see the lines.
"""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
from test_chains import prism_q, prism_q_inverse, random_interior_point
from test_periods import compare_representatives

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import glue as gl
from periodlab import homology as hm
from periodlab import periods as pe
from periodlab import quad as qd
from periodlab import stokes as st

ROOT = pathlib.Path(__file__).resolve().parent.parent


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


# -- criterion 1: cone/prism identities ------------------------------------


def test_criterion_1_cone_prism_identities():
    rng = np.random.default_rng(101)
    sigmas = {
        1: ch.ExprMap(["sin(t) + 1", "t^2"], 1),
        2: ch.ExprMap(["a1 + a2^2", "sin(a1)*a2", "a1*a2"], 2),
        3: ch.ExprMap(["a1 + a2*a3", "exp(a2 - a3)", "a3^2"], 3),
    }
    worst = 0.0
    n_points = 0
    for d, sigma in sigmas.items():
        prism = ch.PrismMap(sigma, "1 - t")
        cone = ch.Cone(sigma)
        for _ in range(3400):
            t = rng.random() * 0.999
            b = random_interior_point(d, rng)
            q = prism_q(t, b)
            gap = np.abs(prism.evaluate(np.concatenate(([t], b))) - cone.evaluate(q)).max()
            tt, bb = prism_q_inverse(q)
            gap = max(gap, abs(tt - t), np.abs(bb - b).max())
            worst = max(worst, gap)
            n_points += 1
    report(
        "criterion 1 (cone/prism identities, 1e-12)",
        n_points >= 10_000 and worst <= 1e-12,
        f"max error {worst:.2e} over {n_points} points",
    )


# -- criterion 2: finite volume --------------------------------------------

FV_CORPUS = [
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


def test_criterion_2_finite_volume():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    r = qd.integrate_simplex(sigma, fo.Form(1, 2, [((2,), "1")]), 1e-6)
    ok = r.converged and abs(r.value - 1.0) <= 1e-6
    detail = f"sqrt integral {r.value:.9f}"

    assert len(FV_CORPUS) == 10
    for s in FV_CORPUS:
        base = qd.finite_volume_check(s, 1e-5)
        coned = qd.finite_volume_check(ch.Cone(s), 1e-4)
        ok = ok and base.verdict == "yes" and coned.verdict == "yes"
        if base.verdict != "yes" or coned.verdict != "yes":
            detail += f"; cone stability broke at {s.components}"

    tsin = ch.ExprMap(["t", "t*sin(1/t)"], 1)
    rep = qd.finite_volume_check(tsin, 1e-6, qd.QuadConfig(max_cells=4000))
    ok = ok and rep.verdict == "no" and not rep.per_index[(2,)].converged
    detail += f"; oscillatory verdict {rep.verdict}"
    report("criterion 2 (finite volume + cone stability + divergence flag)", ok, detail)


# -- criterion 3: the A + B splitting ---------------------------------------


def test_criterion_3_decomposition():
    rng = np.random.default_rng(103)
    cases = {
        1: (ch.ExprMap(["sin(t) + 1", "t^2"], 1), fo.Form(1, 2, [((1,), "a1*a2 + 1")])),
        2: (
            ch.ExprMap(["a1 + a2^2", "a2", "a1*a2"], 2),
            fo.Form(2, 3, [((1, 2), "a1*a3 + 1")]),
        ),
    }
    worst = 0.0
    worst_face = 0.0
    for d, (sigma, eta) in cases.items():
        dec = fo.decompose_AB(sigma, "1 - t^2", eta)
        t = 0.999 * rng.random(120) + 0.0005
        b = np.array([random_interior_point(d, rng) for _ in range(120)])
        direct = dec.direct(t, b)
        combined = dec.combined(t, b)
        for key, val in direct.items():
            worst = max(worst, float(np.max(np.abs(val - combined[key]) / (1 + np.abs(val)))))
        # restriction claims: on I x F the restricted pullback equals the
        # B part alone; on {0,1} x Delta_d the spatial component is A alone
        import itertools as it

        t = 0.999 * rng.random(25) + 0.0005
        for i in range(d + 1):
            face = ch.face_map(d, i)
            c = np.array([random_interior_point(d - 1, rng) for _ in range(25)])
            restricted = ch.PrismMap(ch.Composed(sigma, face), dec.prism.profile)
            direct = fo.pullback_many(restricted, eta, np.column_stack([t, c]))
            beta = dec.B_density(t, face.evaluate_many(c))
            jac = face.jacobian_many(c)
            for K in it.combinations(range(1, d), d - 1):
                cols = [k - 1 for k in K]
                want = sum(
                    bval * np.linalg.det(jac[:, [j - 1 for j in J]][:, :, cols])
                    for J, bval in beta.items()
                )
                got = direct[(1,) + tuple(k + 1 for k in K)]
                worst_face = max(worst_face, float(np.max(np.abs(got - want) / (1 + np.abs(got)))))
        b = np.array([random_interior_point(d, rng) for _ in range(25)])
        spatial = tuple(range(2, d + 2))
        for t_edge in (0.0, 1.0):
            t = np.full(25, t_edge)
            direct = dec.direct(t, b)[spatial]
            gap = np.abs(direct - dec.A_density(t, b)) / (1 + np.abs(direct))
            worst_face = max(worst_face, float(np.max(gap)))
    ok = worst <= 1e-10 and worst_face <= 1e-10
    report(
        "criterion 3 (A+B splitting, 1e-10)",
        ok,
        f"identity {worst:.2e}, faces {worst_face:.2e}",
    )


# -- criterion 4: Stokes -----------------------------------------------------

STOKES_CORPUS = [
    (ch.ExprMap(["t", "t^2"], 1), "poly d1"),
    (ch.ExprMap(["t^3 - t", "2*t"], 1), "poly d1b"),
    (ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1), "trig d1"),
    (ch.ExprMap(["t", "sqrt(t)"], 1), "sqrt d1"),
    (ch.ExprMap(["t^(3/2)", "1 - t"], 1), "pow32 d1"),
    (ch.ExprMap(["a1^2", "a2"], 2), "poly d2"),
    (ch.ExprMap(["sin(a1)", "a2 + a1*a2"], 2), "trig d2"),
    (ch.ExprMap(["a1", "a2", "sqrt(a1 + a2)"], 2), "sqrt d2"),
]


def test_criterion_4_stokes():
    worst = 0.0
    ok = True
    detail = []
    for sigma, label in STOKES_CORPUS:
        if sigma.dim == 1:
            omega = fo.Form(0, sigma.ambient, [((), "a1*a2")])
            omega_up = fo.Form(
                1, sigma.ambient, [((1,), "a2"), ((2,), "a1*a1")]
            )
        else:
            omega = fo.Form(1, sigma.ambient, [((2,), "a1")])
            omega_up = fo.Form(2, sigma.ambient, [((1, 2), "a1 + 1")])
        rep = st.stokes_residual(sigma, omega, 1e-6)
        crep = st.stokes_residual(ch.Cone(sigma), omega_up, 1e-6)
        worst = max(worst, rep.residual, crep.residual)
        if rep.verdict != "pass" or crep.verdict != "pass":
            ok = False
            detail.append(f"{label}: {rep.verdict}/{crep.verdict}")

    tri1 = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    tri2 = ch.AffineSimplex([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    trep = st.triangulated_stokes(
        [((0, 1, 2), tri1), ((0, 2, 3), tri2)], fo.Form(1, 2, [((2,), "a1")]), 1e-8
    )
    cancel = max(trep.interior_residuals.values())
    ok = ok and trep.verdict == "pass"
    ok = ok and cancel <= 1e-9
    ok = ok and abs(trep.total_lhs - 1.0) <= 1e-8
    report(
        "criterion 4 (Stokes corpus + cones, 1e-6; square cancel 1e-9, area 1e-8)",
        ok,
        f"max residual {worst:.2e}, diagonal cancel {cancel:.2e}, "
        f"area {trep.total_lhs:.10f} {'; '.join(detail)}",
    )


# -- criterion 5: homology ---------------------------------------------------


def test_criterion_5_homology():
    hollow = hm.homology(hm.SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
    import itertools

    sphere = hm.homology(
        hm.SimplicialComplex(list(itertools.combinations(range(4), 3)))
    )
    tris = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    torus = hm.homology(hm.SimplicialComplex(tris))
    rp2 = hm.homology(
        hm.SimplicialComplex(
            [
                (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
            ]
        )
    )
    ok = (
        hollow.betti == [1, 1]
        and sphere.betti == [1, 0, 1]
        and torus.betti == [1, 2, 1]
        and rp2.betti == [1, 0, 0]
        and rp2.torsion[1] == [2]
        and not any(torus.torsion.values())
    )
    report(
        "criterion 5 (homology, exact integers)",
        ok,
        f"hollow {hollow.betti}, sphere {sphere.betti}, torus {torus.betti}, "
        f"rp2 {rp2.betti} torsion {rp2.torsion[1]}",
    )


# -- criterion 6: the period pairing ----------------------------------------


def winding(ambient, x, y):
    return fo.Form(
        1, ambient,
        [((x,), f"-a{y}/(a{x}^2 + a{y}^2)"), ((y,), f"a{x}/(a{x}^2 + a{y}^2)")],
    )


def test_criterion_6_periods():
    upper = ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1)
    lower = ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1)
    gamma = pe.GeometricCycle("gamma", ch.Chain(1, [(upper, 1), (lower, 1)]))
    pm = pe.period_matrix([gamma], [("dtheta", winding(2, 1, 2))], 1e-8)
    circle_err = abs(pm.values()[0, 0] - 2 * math.pi)
    ok = pm.all_converged() and circle_err <= 1e-6

    a = ch.ExprMap(["cos(2*pi*t)", "sin(2*pi*t)", "1", "0"], 1)
    b = ch.ExprMap(["1", "0", "cos(2*pi*t)", "sin(2*pi*t)"], 1)
    cyc_a = pe.GeometricCycle("A", ch.Chain(1, [(a, 1)]))
    cyc_b = pe.GeometricCycle("B", ch.Chain(1, [(b, 1)]))
    tm = pe.period_matrix(
        [cyc_a, cyc_b], [("t1", winding(4, 1, 2)), ("t2", winding(4, 3, 4))], 1e-8
    )
    vals = tm.values()
    diag_err = max(abs(vals[0, 0] - 2 * math.pi), abs(vals[1, 1] - 2 * math.pi))
    off_err = max(abs(vals[0, 1]), abs(vals[1, 0]))
    ok = ok and tm.all_converged() and diag_err <= 1e-6 and off_err <= 1e-6

    exact2 = fo.exterior_derivative(fo.Form(0, 2, [((), "a1^2*a2 + sin(a1)")]))
    exact4 = fo.exterior_derivative(fo.Form(0, 4, [((), "a1*a3 + cos(a2)*a4")]))
    e_err = abs(pe.period_matrix([gamma], [("df", exact2)], 1e-8).values()[0, 0])
    for cyc in (cyc_a, cyc_b):
        e_err = max(
            e_err, abs(pe.period_matrix([cyc], [("df", exact4)], 1e-8).values()[0, 0])
        )
    ok = ok and e_err <= 1e-6

    s_up = ch.ExprMap(["1 - 2*t", "sqrt(1 - (1 - 2*t)^2)"], 1)
    s_dn = ch.ExprMap(["2*t - 1", "-sqrt(1 - (2*t - 1)^2)"], 1)
    gamma_sa = pe.GeometricCycle("gamma_sa", ch.Chain(1, [(s_up, 1), (s_dn, 1)]))
    cmp_sa = compare_representatives(gamma, gamma_sa, [("dtheta", winding(2, 1, 2))], 1e-7)
    ok = ok and cmp_sa.max_difference <= 2e-6

    gamma_sd = pe.GeometricCycle("gamma_sd", ch.barycentric_subdivide(gamma.chain))
    cmp_sd = compare_representatives(gamma, gamma_sd, [("dtheta", winding(2, 1, 2))], 1e-8)
    ok = ok and cmp_sd.max_difference <= 2e-6

    report(
        "criterion 6 (periods: circle 2pi/torus diag 1e-6, exact 1e-6, reps 2e-6)",
        ok,
        f"circle {circle_err:.2e}, diag {diag_err:.2e}, off {off_err:.2e}, "
        f"exact {e_err:.2e}, smooth-vs-sqrt {cmp_sa.max_difference:.2e}, "
        f"subdivided {cmp_sd.max_difference:.2e}",
    )


# -- criterion 7: gluing ------------------------------------------------------


def test_criterion_7_gluing():
    from test_glue import (
        circle_glue_input,
        lower_semicircle,
        three_arc_pieces,
        upper_semicircle,
    )

    two = gl.glue(*circle_glue_input())
    rep2 = two.validate()
    ok = hm.homology(two.complex).betti == [1, 1]

    p1, p2, p3 = three_arc_pieces()
    three = gl.cover_and_triangulate(
        p1, [(p2, {(0,): (1,)}), (p3, {(0,): (1,), (2,): (2,)})]
    )
    rep3 = three.validate()
    ok = ok and hm.homology(three.complex).betti == [1, 1]
    tagged = set()
    for name, members in three.marks.items():
        if name.startswith("chart:"):
            tagged |= members
    all_simplices = {
        s for d in range(three.complex.dim + 1) for s in three.complex.simplices[d]
    }
    ok = ok and all_simplices <= tagged

    # degenerate case: empty overlap is the disjoint union
    t1 = upper_semicircle()
    t2 = lower_semicircle()
    empty = gl.glue(
        gl.Triangulation(t1.complex, dict(t1.evaluators), marks={}),
        gl.Triangulation(t2.complex, dict(t2.evaluators), marks={}),
        {},
    )
    ok = ok and empty.complex.n_cells(0) == 6 and empty.complex.n_cells(1) == 4
    ok = ok and hm.homology(empty.complex).betti == [2, 0]

    # degenerate case: same space, second triangulation refines: output == T2
    seg = ch.AffineSimplex([[0.0], [2.0]])
    T1 = gl.Triangulation(
        hm.SimplicialComplex([(0, 1)]),
        {(0, 1): seg, (0,): ch.AffineSimplex([[0.0]]), (1,): ch.AffineSimplex([[2.0]])},
        marks={"B": {(0,), (1,), (0, 1)}},
    )
    T2 = gl.Triangulation(
        hm.SimplicialComplex([(0, 1), (1, 2)]),
        {
            (0, 1): ch.AffineSimplex([[0.0], [1.0]]),
            (1, 2): ch.AffineSimplex([[1.0], [2.0]]),
            (0,): ch.AffineSimplex([[0.0]]),
            (1,): ch.AffineSimplex([[1.0]]),
            (2,): ch.AffineSimplex([[2.0]]),
        },
        marks={"B": {(0,), (1,), (2,), (0, 1), (1, 2)}},
    )
    table = {(0,): (0, 1), (1,): (0, 1), (2,): (1,), (0, 1): (0, 1), (1, 2): (0, 1)}
    same = gl.glue(T1, T2, table)
    ok = ok and sorted(same.complex.simplices[1]) == [(0, 1), (1, 2)]
    ok = ok and all(same.evaluators[s] is T2.evaluators[s] for s in same.complex.simplices[1])

    report(
        "criterion 7 (gluing: 2-arc/3-arc circles, degenerate cases)",
        ok,
        f"face agreement {max(rep2['face_agreement'], rep3['face_agreement']):.2e}",
    )


# -- criterion 8: determinism -------------------------------------------------

COMMANDS = [
    ["check-volume", "manifests/circle.json", "--simplex", "sqrt_graph"],
    ["check-stokes", "manifests/square.json", "--chain", "square", "--form", "x_dy"],
    ["check-stokes", "manifests/circle.json", "--simplex", "sqrt_graph", "--form", "f_xy"],
    ["cone", "manifests/circle.json", "--simplex", "sqrt_graph"],
    ["subdivide", "manifests/circle.json", "--chain", "gamma"],
    ["homology", "manifests/torus.json", "--complex", "T7"],
    ["periods", "manifests/circle.json", "--cycles", "gamma", "--forms", "dtheta"],
    [
        "glue", "manifests/circle_upper.json", "manifests/circle_lower.json",
        "--table", "manifests/circle_btable.json",
    ],
]


def test_criterion_8_determinism():
    ok = True
    detail = []
    for args in COMMANDS:
        outputs = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "periodlab", *args, "--deterministic"],
                capture_output=True,
                cwd=ROOT,
                env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
            )
            outputs.append(res.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            ok = False
            detail.append(args[0])
    report(
        "criterion 8 (deterministic byte-identical reports)",
        ok,
        f"commands checked: {len(COMMANDS)}" + (f"; unstable: {detail}" if detail else ""),
    )
