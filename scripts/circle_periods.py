#!/usr/bin/env python3
"""Period of the angular form over the circle, three ways.

Compares a smooth trigonometric representative, a semialgebraic square-root
representative (singular pullback at the arc endpoints), and the barycentric
subdivision of the smooth one.  All three must converge to within 1e-6 of
2*pi; the script exits 1 otherwise.
"""

import math
import sys

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import periods as pe

winding = fo.Form(
    1, 2, [((1,), "-a2/(a1^2 + a2^2)"), ((2,), "a1/(a1^2 + a2^2)")]
)

trig = pe.GeometricCycle(
    "trig",
    ch.Chain(
        1,
        [
            (ch.ExprMap(["cos(pi*t)", "sin(pi*t)"], 1), 1),
            (ch.ExprMap(["cos(pi + pi*t)", "sin(pi + pi*t)"], 1), 1),
        ],
    ),
)
semialgebraic = pe.GeometricCycle(
    "semialgebraic",
    ch.Chain(
        1,
        [
            (ch.ExprMap(["1 - 2*t", "sqrt(1 - (1 - 2*t)^2)"], 1), 1),
            (ch.ExprMap(["2*t - 1", "-sqrt(1 - (2*t - 1)^2)"], 1), 1),
        ],
    ),
)
subdivided = pe.GeometricCycle("subdivided", ch.barycentric_subdivide(trig.chain))

if __name__ == "__main__":
    pm = pe.period_matrix(
        [trig, semialgebraic, subdivided], [("dtheta", winding)], 1e-7
    )
    print(f"target: 2*pi = {2 * math.pi:.12f}")
    for name, row in zip(pm.cycle_names, pm.entries):
        entry = row[0]
        print(
            f"{name:>14}: {entry.value:.12f}"
            f"  (err est {entry.error_estimate:.1e}, {entry.subdivisions} splits,"
            f" converged={entry.converged})"
        )
    ok = all(e.converged and abs(e.value - 2 * math.pi) <= 1e-6 for e, in pm.entries)
    print("all three within 1e-6 of 2*pi:", ok)
    sys.exit(0 if ok else 1)
