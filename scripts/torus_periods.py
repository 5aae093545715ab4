#!/usr/bin/env python3
"""Period matrix of the flat torus in R^4 against its two angular forms.

The matrix must converge to 2*pi times the identity, to within 1e-8; the
script exits 1 otherwise.
"""

import math
import sys

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import periods as pe


def winding(x, y):
    return fo.Form(
        1, 4, [((x,), f"-a{y}/(a{x}^2 + a{y}^2)"), ((y,), f"a{x}/(a{x}^2 + a{y}^2)")]
    )


cycles = [
    pe.GeometricCycle(
        "A", ch.Chain(1, [(ch.ExprMap(["cos(2*pi*t)", "sin(2*pi*t)", "1", "0"], 1), 1)])
    ),
    pe.GeometricCycle(
        "B", ch.Chain(1, [(ch.ExprMap(["1", "0", "cos(2*pi*t)", "sin(2*pi*t)"], 1), 1)])
    ),
]
forms = [("dtheta_1", winding(1, 2)), ("dtheta_2", winding(3, 4))]

if __name__ == "__main__":
    pm = pe.period_matrix(cycles, forms, 1e-9)
    print("period matrix (rows: cycles, cols: forms); 2*pi =", f"{2 * math.pi:.12f}")
    header = " ".join(f"{n:>16}" for n in pm.form_names)
    print(f"{'':>4}{header}")
    for name, row in zip(pm.cycle_names, pm.entries):
        print(f"{name:>4}" + " ".join(f"{e.value:16.12f}" for e in row))
    print("converged:", pm.all_converged())
    ok = pm.all_converged() and all(
        abs(e.value - (2 * math.pi if i == j else 0.0)) <= 1e-8
        for i, row in enumerate(pm.entries)
        for j, e in enumerate(row)
    )
    print("2*pi times the identity within 1e-8:", ok)
    sys.exit(0 if ok else 1)
