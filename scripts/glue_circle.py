#!/usr/bin/env python3
"""Glue three circle arcs into a triangulated circle and verify it.

Each arc is its own chart piece; the fold tags every output simplex with its
source piece, validates face agreement and injectivity by sampling, and
checks the homology of the result: Betti numbers [1, 1] on 4 edges.  It then
integrates d(theta) over the H_1 representative, two of whose four edges are
glued maps pulled back through a Newton inverse, and expects 2 pi in absolute
value to within the error estimate.  The script exits 1 when a check fails.
"""

import math
import sys

import numpy as np

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import glue as gl
from periodlab import homology as hm
from periodlab import periods as pe


def arc(theta0, theta1):
    return ch.ExprMap(
        [f"cos({theta0} + ({theta1} - ({theta0}))*t)", f"sin({theta0} + ({theta1} - ({theta0}))*t)"],
        1,
    )


def corner(theta):
    return ch.ExprMap([f"cos({theta})", f"sin({theta})"], 0)


def one_edge_piece(theta0, theta1):
    return gl.Triangulation(
        hm.SimplicialComplex([(0, 1)]),
        {(0, 1): arc(theta0, theta1), (0,): corner(theta0), (1,): corner(theta1)},
        marks={},
    )


p1 = one_edge_piece("0", "2/3*pi")
p2 = one_edge_piece("2/3*pi", "4/3*pi")
p3 = gl.Triangulation(
    hm.SimplicialComplex([(0, 1), (1, 2)]),
    {
        (0, 1): arc("4/3*pi", "5/3*pi"),
        (1, 2): arc("5/3*pi", "2*pi"),
        (0,): corner("4/3*pi"),
        (1,): corner("5/3*pi"),
        (2,): corner("2*pi"),
    },
    marks={},
)

if __name__ == "__main__":
    glued = gl.cover_and_triangulate(
        p1, [(p2, {(0,): (1,)}), (p3, {(0,): (1,), (2,): (2,)})]
    )
    print("glued complex:", glued.complex)
    report = glued.validate()
    hom = hm.homology(glued.complex)
    betti = hom.betti
    print("validation:", report)
    print("homology:", betti)
    for s in sorted(glued.complex.simplices[1]):
        charts = [n for n, m in glued.marks.items() if n.startswith("chart:") and s in m]
        mid = glued.evaluators[s].evaluate(np.array([0.5]))
        print(f"  edge {s}: midpoint ({mid[0]: .4f}, {mid[1]: .4f}), charts {charts}")
    ok = betti == [1, 1] and report["tops"] == 4
    print("a circle of 4 edges:", ok)
    (rep,) = hom.representatives[1]
    cycle = ch.Chain(1, [(glued.evaluators[s], c) for s, c in rep])
    dtheta = fo.Form(1, 2, [((1,), "-a2/(a1^2 + a2^2)"), ((2,), "a1/(a1^2 + a2^2)")])
    r = pe.chain_integral(cycle, dtheta, 1e-10)
    glued_edges = sum(isinstance(sigma, gl.GluedMap) for sigma, _ in cycle.items())
    period_ok = r.converged and abs(abs(r.value) - 2 * math.pi) <= max(r.error_estimate, 1e-12)
    print(f"d(theta) over the H_1 representative ({glued_edges} glued edges): "
          f"{r.value!r}, estimate {r.error_estimate:.1e}, converged {r.converged}")
    print("period 2 pi:", period_ok)
    sys.exit(0 if ok and period_ok else 1)
