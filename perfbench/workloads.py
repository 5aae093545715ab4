"""The four workloads: seeded input generators and their job lists.

Each workload writes its manifests under its own output directory and hands
the program only those files (CLI jobs) or the objects loaded from them
(library jobs).  The seed chooses symmetries of the inputs: permutations
of the ambient coordinates, rotation angles of smooth circles,
reparametrisations, vertex labels.  These change the inputs but not the exact
answers, and they leave the adaptive work unchanged, so every seed measures
the same amount of work.

Integrals that exhaust the 20,000-cell budget take 7 to 17 s each through
the CLI, longer than a whole run.  The benchmark therefore runs them as
library calls with a ``QuadConfig`` whose ``max_cells`` is lowered
(``BUDGET_CELLS``): they stay budget-bound and deterministic, at a size that
fits many passes into one run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

import numpy as np

from oracle import (
    TWO_PI,
    Job,
    check_chain_stokes_report,
    check_period_report,
    check_quad_result,
    check_stokes_report,
    check_volume_report,
    report,
)

DEFECT_FACES = (
    "check-volume --faces: ExprDomainError from a face escapes cli.run as a "
    "traceback; it should exit 2 (ROADMAP known defect, item 1)"
)
DEFECT_SINGULAR_BOUND = (
    "t^(-1/2) endpoint singularity: the error estimate understates the true "
    "error once cells freeze (ROADMAP item 3)"
)
DEFECT_FD_FLOOR = (
    "GluedMap finite-difference Jacobian: noise near 1e-9 makes the error "
    "estimate understate the true error (ROADMAP item 4)"
)


def dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Seeded symmetries.
# ---------------------------------------------------------------------------


def neg(s: str) -> str:
    return f"-({s})"


def num(x: float) -> str:
    """A float literal the expression parser accepts as a whole component."""
    return repr(float(x)) if x >= 0 else f"-{-float(x)!r}"


@dataclasses.dataclass
class SignedPerm:
    """y_j = sign_j * x_{perm_j}: an exact isometry of R^n.  Applying it to a
    simplex and its inverse pullback to a form leaves every integral,
    verdict and volume unchanged, and changes no floating-point value except
    by sign or position."""

    perm: tuple
    signs: tuple

    @classmethod
    def draw(cls, rng, n, forms=()):
        """A seeded permutation of the coordinates, without sign flips, among
        those under which no term of ``forms`` changes sign.  A sign change
        adds a negation to an expression, which costs time at every
        evaluation; without one every seed does the same work."""
        plus = (1,) * n
        perms = [
            p for p in itertools.permutations(range(n))
            if all(cls(p, plus).term_sign(idx) > 0 for terms in forms for idx, _ in terms)
        ]
        return cls(perms[int(rng.integers(len(perms)))], plus)

    def components(self, comps):
        return [comps[p] if s > 0 else neg(comps[p]) for p, s in zip(self.perm, self.signs)]

    def point(self, x):
        return [float(s * x[p]) for p, s in zip(self.perm, self.signs)]

    def _inverse(self):
        inv = [0] * len(self.perm)
        for j, p in enumerate(self.perm):
            inv[p] = j
        return inv

    def form_terms(self, terms):
        """Transform form terms given over x as (indices, template) where the
        template names coordinates X1..Xn; returns manifest terms over y."""
        inv = self._inverse()
        subs = {
            f"X{i + 1}": (f"a{inv[i] + 1}" if self.signs[inv[i]] > 0 else f"(-a{inv[i] + 1})")
            for i in range(len(self.perm))
        }
        out = []
        for idx, template in terms:
            coeff = template
            for key in sorted(subs, reverse=True):
                coeff = coeff.replace(key, subs[key])
            new = sorted(inv[i - 1] + 1 for i in idx)
            out.append({"indices": new, "coeff": coeff if self.term_sign(idx) > 0 else neg(coeff)})
        return out

    def term_sign(self, idx):
        """Sign a form term over x-indices ``idx`` takes on over y."""
        inv = self._inverse()
        sign = 1
        new = [inv[i - 1] + 1 for i in idx]
        for i in idx:
            sign *= self.signs[inv[i - 1]]
        for a in range(len(new)):  # parity of the sort
            for b in range(a + 1, len(new)):
                if new[a] > new[b]:
                    sign = -sign
        return sign

    def index_name(self, idx):
        """Report key of the volume index that x-index ``idx`` becomes."""
        inv = self._inverse()
        return "dx_" + "_".join(str(j) for j in sorted(inv[i - 1] + 1 for i in idx))


def expr_map(comps, dim):
    return {"kind": "expr", "dim": dim, "components": comps}


def lib_config(pl, max_cells=None):
    """The CLI's quadrature policy, with the cell budget optionally lowered."""
    cfg = pl.quad.QuadConfig(max_depth=80)
    return cfg if max_cells is None else dataclasses.replace(cfg, max_cells=max_cells)


class Workload:
    name = ""
    why = ""
    # the tail percentile has ten samples beyond it per this many passes (see run.py)
    tail_passes = 7

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.rng = np.random.default_rng(seed)

    def generate(self):
        """Write the manifests; returns nothing.  Must be deterministic in the seed."""
        raise NotImplementedError

    def load(self, pl):
        """Objects the library jobs need, loaded from the generated files."""
        return None

    def jobs(self, pl, loaded) -> list:
        """The job list of one pass; ``loaded`` is what ``load`` returned."""
        raise NotImplementedError

    def path(self, name):
        return os.path.join(self.outdir, name)


# ---------------------------------------------------------------------------
# periods-circle
# ---------------------------------------------------------------------------

DTHETA = [((1,), "-X2/(X1^2 + X2^2)"), ((2,), "X1/(X1^2 + X2^2)")]
D_XY = [((1,), "X2"), ((2,), "X1")]


class PeriodsCircle(Workload):
    name = "periods-circle"
    why = (
        "1-D cells with tiny density batches: driver and per-call overhead "
        "dominate; budget-bound entries; the only workload that runs the --jobs pool"
    )
    BUDGET_CELLS = 1000

    def generate(self):
        rng = self.rng
        iso = SignedPerm.draw(rng, 2)
        phi = float(rng.uniform(0.0, TWO_PI))
        alpha = float(rng.uniform(0.1, 0.8))  # t -> t - alpha*t*(1-t), increasing

        def arc(start, warp=False):
            t = f"(t - {alpha!r}*t*(1 - t))" if warp else "t"
            ang = f"{phi!r} + {start} + pi*{t}"
            return iso.components([f"cos({ang})", f"sin({ang})"])

        up_sqrt = iso.components(["1 - 2*t", "sqrt(1 - (1 - 2*t)^2)"])
        lo_sqrt = iso.components(["2*t - 1", neg("sqrt(1 - (2*t - 1)^2)")])
        sd_pieces = [("sd_a", [[0.5], [1.0]], 1), ("sd_b", [[0.5], [0.0]], -1)]
        derived = []
        sd_terms = []
        for half, start in (("upper", "0"), ("lower", "pi")):
            for tag, verts, coeff in sd_pieces:
                name = f"{half}_{tag}"
                derived.append(
                    {
                        "name": name,
                        "map": {
                            "kind": "composed",
                            "of": expr_map(arc(start), 1),
                            "inner": {"kind": "affine", "vertices": verts},
                        },
                    }
                )
                sd_terms.append({"simplex": name, "coeff": coeff})
        circle = {
            "schema": "periodlab/1",
            "ambient_dim": 2,
            "simplices": [
                {"name": "upper_arc", "dim": 1, "components": arc("0")},
                {"name": "lower_arc", "dim": 1, "components": arc("pi")},
                {"name": "upper_rep", "dim": 1, "components": arc("0", warp=True)},
                {"name": "lower_rep", "dim": 1, "components": arc("pi", warp=True)},
                {"name": "upper_sqrt", "dim": 1, "components": up_sqrt},
                {"name": "lower_sqrt", "dim": 1, "components": lo_sqrt},
                {"name": "sqrt_graph", "dim": 1, "components": ["t", "sqrt(t)"]},
                {"name": "tsin_graph", "dim": 1, "components": ["t", "t*sin(1/t)"]},
            ],
            "derived_simplices": derived,
            "chains": [
                {"name": "gamma", "terms": [{"simplex": "upper_arc"}, {"simplex": "lower_arc"}]},
                {"name": "gamma_sd", "degree": 1, "terms": sd_terms},
                {"name": "gamma_rep", "terms": [{"simplex": "upper_rep"}, {"simplex": "lower_rep"}]},
                {
                    "name": "gamma_semialg",
                    "terms": [{"simplex": "upper_sqrt"}, {"simplex": "lower_sqrt"}],
                },
            ],
            "forms": [
                {"name": "dtheta", "degree": 1, "terms": iso.form_terms(DTHETA)},
                {"name": "d_xy", "degree": 1, "terms": iso.form_terms(D_XY)},
            ],
        }
        dump(self.path("circle.json"), circle)

        a, b = (float(x) for x in rng.uniform(0.0, TWO_PI, 2))
        torus = {
            "schema": "periodlab/1",
            "ambient_dim": 4,
            "simplices": [
                {
                    "name": "loop_a",
                    "dim": 1,
                    "components": [f"cos({a!r} + 2*pi*t)", f"sin({a!r} + 2*pi*t)", num(math.cos(b)), num(math.sin(b))],
                },
                {
                    "name": "loop_b",
                    "dim": 1,
                    "components": [num(math.cos(a)), num(math.sin(a)), f"cos({b!r} + 2*pi*t)", f"sin({b!r} + 2*pi*t)"],
                },
            ],
            "chains": [
                {"name": "cycle_a", "terms": [{"simplex": "loop_a"}]},
                {"name": "cycle_b", "terms": [{"simplex": "loop_b"}]},
            ],
            "forms": [
                {
                    "name": "dtheta_1",
                    "degree": 1,
                    "terms": [
                        {"indices": [1], "coeff": "-a2/(a1^2 + a2^2)"},
                        {"indices": [2], "coeff": "a1/(a1^2 + a2^2)"},
                    ],
                },
                {
                    "name": "dtheta_2",
                    "degree": 1,
                    "terms": [
                        {"indices": [3], "coeff": "-a4/(a3^2 + a4^2)"},
                        {"indices": [4], "coeff": "a3/(a3^2 + a4^2)"},
                    ],
                },
                {
                    "name": "exact_1",
                    "degree": 1,
                    "terms": [
                        {"indices": [1], "coeff": "a3"},
                        {"indices": [3], "coeff": "a1"},
                        {"indices": [2], "coeff": "cos(a2)"},
                    ],
                },
            ],
        }
        dump(self.path("torus.json"), torus)

    def load(self, pl):
        return pl.manifest.load_manifest(self.path("circle.json"))

    def jobs(self, pl, man):
        circle, torus = self.path("circle.json"), self.path("torus.json")
        budget = lib_config(pl, self.BUDGET_CELLS)

        def semialg_dxy():
            cyc = pl.periods.GeometricCycle("gamma_semialg", man.chains["gamma_semialg"])
            return pl.periods.period_matrix([cyc], [("d_xy", man.forms["d_xy"])], 1e-8, budget, jobs=2)

        def check_semialg_dxy(outcome, v):
            e = outcome.value.entries[0][0]
            v.quad("gamma_semialg.d_xy", e.value, e.error_estimate, e.converged, 0.0)

        def upper_sqrt():
            return pl.quad.integrate_simplex(man.simplices["upper_sqrt"], man.forms["dtheta"], 1e-12, budget)

        def tsin_volume():
            return pl.quad.finite_volume_check(man.simplices["tsin_graph"], 1e-6, budget)

        def check_tsin(outcome, v):
            rep = outcome.value
            v.expect(rep.verdict == "no", f"verdict {rep.verdict}, expected no")
            for idx, r in rep.per_index.items():
                answer = 1.0 if idx == (1,) else None
                v.quad(f"dx_{idx}", r.value, r.error_estimate, r.converged, answer, r.diverging)

        def check_subdivided_chain(outcome, v):
            # two arcs, each cut in two by its barycenter: four pieces, one
            # kept and one reversed per arc
            out = report(outcome)
            coeffs = sorted(term["coeff"] for term in out["chains"][0]["terms"])
            v.expect(len(out["derived_simplices"]) == 4, "expected 4 derived simplices")
            v.expect(coeffs == [-1, -1, 1, 1], f"coefficients {coeffs}, expected [-1, -1, 1, 1]")

        smooth = [[TWO_PI, 0.0]] * 3
        return [
            Job(
                "periods-smooth",
                check_period_report(smooth),
                argv=["periods", circle, "--cycles", "gamma,gamma_sd,gamma_rep", "--forms", "dtheta,d_xy", "--jobs", "2"],
            ),
            Job(
                "periods-semialg-dtheta",
                check_period_report([[TWO_PI]]),
                argv=["periods", circle, "--cycles", "gamma_semialg", "--forms", "dtheta", "--jobs", "2"],
            ),
            Job("periods-semialg-dxy-budget", check_semialg_dxy, call=semialg_dxy, defect=DEFECT_SINGULAR_BOUND),
            Job("upper-sqrt-1e-12-budget", check_quad_result(math.pi), call=upper_sqrt, defect=DEFECT_SINGULAR_BOUND),
            Job(
                "periods-torus",
                check_period_report([[TWO_PI, 0.0, 0.0], [0.0, TWO_PI, 0.0]]),
                argv=["periods", torus, "--cycles", "cycle_a,cycle_b", "--forms", "dtheta_1,dtheta_2,exact_1", "--jobs", "2"],
            ),
            Job(
                "volume-sqrt-graph",
                check_volume_report("yes", {"dx_1": 1.0, "dx_2": 1.0}),
                argv=["check-volume", circle, "--simplex", "sqrt_graph"],
            ),
            Job("volume-tsin-graph-budget", check_tsin, call=tsin_volume),
            Job("subdivide-gamma", check_subdivided_chain, argv=["subdivide", circle, "--chain", "gamma"]),
            Job(
                "volume-tsin-graph-faces",
                lambda outcome, v: None,
                argv=["check-volume", circle, "--simplex", "tsin_graph", "--faces", "--max-depth", "8"],
                expect_exit=2,
                defect=DEFECT_FACES,
            ),
        ]


# ---------------------------------------------------------------------------
# stokes-cones
# ---------------------------------------------------------------------------

# Hemisphere graph z = R*sqrt(1 - a1^2 - a2^2) over the sheared simplex
# x = a1 + S*a2, y = a2.  Exact integrals over it:
#   z dx          -> R*(1 - S)*(pi/4 - sqrt(2)*pi/8)
#   x dy          -> 1/2
#   cone volume   -> R*pi*(sqrt(2) - 1)/6   (also d(x dy^dz) over the cone)
HEMI_R, HEMI_S = 1.3, 0.25
HEMI = [f"X1 + {HEMI_S}*X2", "X2", f"{HEMI_R}*sqrt(1 - X1^2 - X2^2)"]
# second graph: z = sqrt(1 - a1^2 - a2^2) + a1*a2/2 over x = a1, y = a2
#   z dx          -> pi/4 - sqrt(2)*pi/8 - 1/12
HEMI2 = ["X1", "X2", "sqrt(1 - X1^2 - X2^2) + X1*X2/2"]
Z_DX = [((1,), "X3")]
X_DY = [((2,), "X1")]
X_DYDZ = [((2, 3), "X1")]


def _domain(comps):
    """Component templates over the simplex coordinates a1, a2."""
    return [c.replace("X1", "a1").replace("X2", "a2") for c in comps]


class StokesCones(Workload):
    name = "stokes-cones"
    why = (
        "2-D cells and cones: density batches of 40+ points and composed/cone "
        "Jacobians make per-point evaluation dominate; runs the prism driver"
    )
    DISK_SECTORS = 6

    def generate(self):
        rng = self.rng
        iso3 = SignedPerm.draw(rng, 3, (Z_DX, X_DY, X_DYDZ))
        iso2 = SignedPerm.draw(rng, 2, (X_DY,))
        self.iso3 = iso3
        hemi = iso3.components(_domain(HEMI))
        hemi2 = iso3.components(_domain(HEMI2))
        space = {
            "schema": "periodlab/1",
            "ambient_dim": 3,
            "simplices": [
                {"name": "hemi", "dim": 2, "components": hemi},
                {"name": "hemi2", "dim": 2, "components": hemi2},
            ],
            "derived_simplices": [
                {"name": "hemi_cone", "map": {"kind": "cone", "of": expr_map(hemi, 2)}},
            ],
            "forms": [
                {"name": "z_dx", "degree": 1, "terms": iso3.form_terms(Z_DX)},
                {"name": "x_dy", "degree": 1, "terms": iso3.form_terms(X_DY)},
                {"name": "x_dydz", "degree": 2, "terms": iso3.form_terms(X_DYDZ)},
            ],
        }
        dump(self.path("space.json"), space)

        phase = float(rng.uniform(0.0, TWO_PI))
        n = self.DISK_SECTORS
        sectors = []
        for i in range(n):
            t0 = phase + TWO_PI * i / n
            span = TWO_PI / n
            arc = iso2.components([f"cos({t0!r} + {span!r}*t)", f"sin({t0!r} + {span!r}*t)"])
            sectors.append({"name": f"sector_{i}", "map": {"kind": "cone", "of": expr_map(arc, 1)}})
        plane = {
            "schema": "periodlab/1",
            "ambient_dim": 2,
            "simplices": [
                {"name": "tri_lower", "dim": 2, "components": iso2.components(["a1 + a2", "a2"])},
                {"name": "tri_upper", "dim": 2, "components": iso2.components(["a1", "a1 + a2"])},
                {"name": "para", "dim": 2, "components": iso2.components(["a1^2", "a2"])},
            ],
            "derived_simplices": sectors,
            "chains": [
                {"name": "square", "terms": [{"simplex": "tri_lower"}, {"simplex": "tri_upper"}]},
            ],
            "forms": [{"name": "x_dy", "degree": 1, "terms": iso2.form_terms(X_DY)}],
        }
        dump(self.path("plane.json"), plane)

    def load(self, pl):
        return pl.manifest.load_manifest(self.path("plane.json"))

    def jobs(self, pl, plane):
        space, flat = self.path("space.json"), self.path("plane.json")
        cone_vol = HEMI_R * math.pi * (math.sqrt(2.0) - 1.0) / 6.0
        base = math.pi / 4.0 - math.sqrt(2.0) * math.pi / 8.0
        n = self.DISK_SECTORS
        tops = [((0, 1 + i, 1 + (i + 1) % n), plane.simplices[f"sector_{i}"]) for i in range(n)]

        def disk():
            return pl.stokes.triangulated_stokes(tops, plane.forms["x_dy"], 1e-10)

        def check_disk(outcome, v):
            rep = outcome.value
            v.expect(rep.verdict == "pass", f"verdict {rep.verdict}, expected pass")
            v.expect(len(rep.interior_residuals) == n, "interior faces did not pair up")
            # the report carries no error estimates; 1e-12 is the quadrature
            # tolerance the verdict was asked for (tol/100)
            v.quad("total_lhs", rep.total_lhs, 1e-12, None, math.pi)
            v.quad("boundary", rep.boundary_integral, 1e-12, None, math.pi)

        def check_cone(outcome, v):
            (derived,) = report(outcome)["derived_simplices"]
            v.expect(derived["map"]["kind"] == "cone", "cone CLI emitted no cone")
            v.expect(derived["map"]["of"]["dim"] == 2, "cone lost its 2-simplex base")

        def stokes(manifest, simplex, form, tol, answer):
            return Job(
                f"stokes-{simplex}-{form}-{tol}",
                check_stokes_report(answer),
                argv=["check-stokes", manifest, "--simplex", simplex, "--form", form, "--tol", tol],
            )

        def volume(manifest, simplex, tol, answers):
            return Job(
                f"volume-{simplex}-{tol}",
                check_volume_report("yes", answers),
                argv=["check-volume", manifest, "--simplex", simplex, "--tol", tol],
            )

        return [
            stokes(space, "hemi", "z_dx", "1e-8", HEMI_R * (1.0 - HEMI_S) * base),
            stokes(space, "hemi", "x_dy", "1e-10", 0.5),
            stokes(space, "hemi2", "z_dx", "1e-7", base - 1.0 / 12.0),
            volume(space, "hemi", "1e-6", {self.iso3.index_name((1, 2)): 0.5}),
            volume(space, "hemi_cone", "1e-6", {"dx_1_2_3": cone_vol}),
            stokes(space, "hemi_cone", "x_dydz", "1e-6", cone_vol),
            Job("cone-hemi", check_cone, argv=["cone", space, "--simplex", "hemi"]),
            Job(
                "stokes-square-chain",
                check_chain_stokes_report(1.0),
                argv=["check-stokes", flat, "--chain", "square", "--form", "x_dy", "--tol", "1e-10"],
            ),
            stokes(flat, "para", "x_dy", "1e-10", 1.0 / 3.0),
            volume(flat, "para", "1e-8", {"dx_1_2": 1.0 / 3.0}),
            Job("triangulated-disk", check_disk, call=disk),
        ]


# ---------------------------------------------------------------------------
# homology-sd
# ---------------------------------------------------------------------------


def face_closure(tops):
    out = set()
    for s in tops:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return out


def barycentric_subdivision(tops):
    """Flag complex of the face poset, top cells only: the vertices are the
    faces of the input, and each full flag below a maximal simplex is a top
    cell.  Independent of the program's own subdivision."""
    faces = sorted(face_closure(tops), key=lambda f: (len(f), f))
    name = {f: i for i, f in enumerate(faces)}
    maximal = [f for f in faces if not any(len(g) > len(f) and set(f) <= set(g) for g in faces)]
    out = []
    for m in maximal:
        for order in itertools.permutations(m):
            out.append(tuple(sorted(name[tuple(sorted(order[:k]))] for k in range(1, len(m) + 1))))
    return out


def n_cells(tops) -> int:
    return len(face_closure(tops))


T7 = sorted(sorted((i % 7, (i + 1) % 7, (i + 3) % 7)) for i in range(7)) + sorted(
    sorted((i % 7, (i + 2) % 7, (i + 3) % 7)) for i in range(7)
)
RP2_6 = [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
]
# name: (top simplices, subdivisions, betti numbers, torsion by degree)
COMPLEXES = {
    "hollow_triangle": ([[0, 1], [1, 2], [0, 2]], 5, [1, 1], {}),
    "full_triangle": ([[0, 1, 2]], 2, [1, 0, 0], {}),
    "sphere_dDelta3": ([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], 2, [1, 0, 1], {}),
    "rp2_6": (RP2_6, 1, [1, 0, 0], {1: [2]}),
    "torus_7": (T7, 1, [1, 2, 1], {}),
    "T7": (T7, 1, [1, 2, 1], {}),
}


class HomologySD(Workload):
    name = "homology-sd"
    why = (
        "exact integer SNF only, no quadrature: float-layer changes should "
        "move nothing here; sparse-SNF work shows only here"
    )

    def generate(self):
        # one manifest per complex: the CLI loads the whole manifest per command
        self.cells = {}
        for name, (tops, depth, _, _) in COMPLEXES.items():
            for _ in range(depth):
                tops = barycentric_subdivision(tops)
            # seeded labels in the original order: a permutation that reorders
            # them changes the SNF pivot sequence, and the work by up to 15%
            verts = sorted({v for s in tops for v in s})
            labels = sorted(int(x) for x in self.rng.choice(10 * len(verts), len(verts), replace=False))
            relabel = dict(zip(verts, labels))
            tops = sorted(sorted(relabel[v] for v in s) for s in tops)
            self.cells[name] = n_cells(tops)
            dump(self.path(f"{name}_sd.json"), {"schema": "periodlab/1", "complexes": [{"name": name, "simplices": tops}]})
        originals = [{"name": name, "simplices": COMPLEXES[name][0]} for name in ("rp2_6", "T7")]
        dump(self.path("originals.json"), {"schema": "periodlab/1", "complexes": originals})

    def jobs(self, pl, _):
        originals = self.path("originals.json")

        def homology_check(betti, torsion):
            def check(outcome, v):
                h = report(outcome)["results"]["homology"]
                v.expect(h["betti"] == betti, f"betti {h['betti']}, expected {betti}")
                want = {str(d): torsion.get(d, []) for d in range(len(betti))}
                v.expect(h["torsion"] == want, f"torsion {h['torsion']}, expected {want}")
                for d, reps in h["representatives"].items():
                    for rep in reps:
                        v.expect(_is_cycle(rep), f"degree-{d} representative is not a cycle")

            return check

        def subdivide_check(name, tops):
            # same number of top cells as our own subdivision, same Euler characteristic
            want = barycentric_subdivision(tops)

            def check(outcome, v):
                got = report(outcome)["complexes"][0]["simplices"]
                v.expect(len(got) == len(want), f"{name}: {len(got)} top cells, expected {len(want)}")
                v.expect(_euler(got) == _euler(tops), f"{name}: Euler characteristic changed")

            return check

        out = [
            Job(
                f"homology-{name}-sd-{self.cells[name]}",
                homology_check(betti, torsion),
                argv=["homology", self.path(f"{name}_sd.json"), "--complex", name],
            )
            for name, (_, _, betti, torsion) in COMPLEXES.items()
        ]
        out.append(Job("homology-rp2_6", homology_check([1, 0, 0], {1: [2]}), argv=["homology", originals, "--complex", "rp2_6"]))
        for name in ("rp2_6", "T7"):
            out.append(
                Job(f"subdivide-{name}", subdivide_check(name, COMPLEXES[name][0]), argv=["subdivide", originals, "--complex", name])
            )
        return out


def _euler(tops) -> int:
    return sum((-1) ** (len(f) - 1) for f in face_closure(tops))


def _is_cycle(rep) -> bool:
    """Boundary of an integer chain given as [{"simplex", "coeff"}] is zero."""
    acc: dict = {}
    for term in rep:
        s = term["simplex"]
        if len(s) == 1:
            return True  # degree 0: every chain is a cycle
        for i in range(len(s)):
            face = tuple(s[:i] + s[i + 1:])
            acc[face] = acc.get(face, 0) + (-1) ** i * term["coeff"]
    return all(c == 0 for c in acc.values())


# ---------------------------------------------------------------------------
# glue-disk
# ---------------------------------------------------------------------------


def _arc(a0, a1):
    return [f"cos({a0} + ({a1} - ({a0}))*t)", f"sin({a0} + ({a1} - ({a0}))*t)"]


# Upper half-disk as one curved triangle: level a2 is the chord at height
# sin(pi*a2/2), traversed linearly in a1.  Vertex 0 -> (1,0), 1 -> (-1,0),
# 2 -> (0,1); the diameter (a2 = 0) is straight and carries the overlap.
HALF_DISK = ["cos(pi*a2/2)*(1 - a2 - 2*a1)/(1 - a2)", "sin(pi*a2/2)"]
SPLIT_X = 0.2  # the lower piece splits the diameter at x = SPLIT_X
BOTTOM = (0.1, -0.8)


class GlueDisk(Workload):
    name = "glue-disk"
    why = (
        "the only workload where glue does the work: Newton inverse per point, "
        "its cache, the finite-difference Jacobian and the per-point fallback"
    )
    BUDGET_CELLS = 300

    def generate(self):
        # The glued circle is the same for every seed: at its tolerance the
        # result is set by finite-difference noise, so any change to its
        # inputs changes how far it refines.  The seed turns the half-disk.
        iso = SignedPerm.draw(self.rng, 2)

        def piece(name, complex_name, tops, evaluators, marks):
            return {
                "schema": "periodlab/1",
                "ambient_dim": 2,
                "complexes": [{"name": complex_name, "simplices": tops}],
                "triangulations": [
                    {"name": name, "complex": complex_name, "evaluators": evaluators, "marks": {"B": marks}}
                ],
            }

        def ev(simplex, m):
            return {"simplex": simplex, "map": m}

        def pt(x, y, iso=iso):
            return {"kind": "affine", "vertices": [iso.point((x, y))]}

        same = SignedPerm((0, 1), (1, 1))
        upper = piece(
            "upper", "upper_K", [[0, 1], [1, 2]],
            [
                ev([0, 1], expr_map(_arc("0", "pi/2"), 1)),
                ev([1, 2], expr_map(_arc("pi/2", "pi"), 1)),
                ev([0], pt(1.0, 0.0, same)), ev([1], pt(0.0, 1.0, same)), ev([2], pt(-1.0, 0.0, same)),
            ],
            [[0], [2]],
        )
        lower = piece(
            "lower", "lower_K", [[0, 1], [1, 2]],
            [
                ev([0, 1], expr_map(_arc("pi", "3/2*pi"), 1)),
                ev([1, 2], expr_map(_arc("3/2*pi", "2*pi"), 1)),
                ev([0], pt(-1.0, 0.0, same)), ev([1], pt(0.0, -1.0, same)), ev([2], pt(1.0, 0.0, same)),
            ],
            [[0], [2]],
        )
        dump(self.path("circle_upper.json"), upper)
        dump(self.path("circle_lower.json"), lower)
        dump(
            self.path("circle_btable.json"),
            {"mark": "B", "containment": [{"tau": [0], "sigma": [2]}, {"tau": [2], "sigma": [0]}]},
        )

        cap = piece(
            "cap", "cap_K", [[0, 1, 2]],
            [
                ev([0, 1, 2], expr_map(iso.components(HALF_DISK), 2)),
                ev([0], pt(1.0, 0.0)), ev([1], pt(-1.0, 0.0)), ev([2], pt(0.0, 1.0)),
                ev([0, 1], {"kind": "affine", "vertices": [iso.point((1.0, 0.0)), iso.point((-1.0, 0.0))]}),
            ],
            [[0], [1], [0, 1]],
        )
        self.base_points = {0: (-1.0, 0.0), 1: (SPLIT_X, 0.0), 2: (1.0, 0.0), 3: BOTTOM}
        base = piece(
            "base", "base_K", [[0, 1, 3], [1, 2, 3]],
            [
                ev(list(s), {"kind": "affine", "vertices": [iso.point(self.base_points[v]) for v in s]})
                for s in ([0, 1, 3], [1, 2, 3])
            ],
            [[0], [1], [2], [0, 1], [1, 2]],
        )
        dump(self.path("cap.json"), cap)
        dump(self.path("base.json"), base)
        dump(
            self.path("cap_btable.json"),
            {
                "mark": "B",
                "containment": [
                    {"tau": [0], "sigma": [1]},
                    {"tau": [2], "sigma": [0]},
                    {"tau": [1], "sigma": [0, 1]},
                    {"tau": [0, 1], "sigma": [0, 1]},
                    {"tau": [1, 2], "sigma": [0, 1]},
                ],
            },
        )

    def jobs(self, pl, _):
        budget = lib_config(pl, self.BUDGET_CELLS)
        circle_out, disk_out = self.path("glued_circle.json"), self.path("glued_disk.json")
        state: dict = {}
        dtheta = pl.forms.Form(1, 2, [((1,), "-a2/(a1^2 + a2^2)"), ((2,), "a1/(a1^2 + a2^2)")])
        area = pl.forms.Form(2, 2, [((1, 2), "1")])

        def glue_job(name, m1, m2, table, out):
            return Job(
                name,
                lambda outcome, v: None,
                argv=["glue", self.path(m1), self.path(m2), "--table", self.path(table), "--out", out],
            )

        def load(key, out):
            def call():
                state[key] = pl.manifest.load_manifest(out)
                return state[key]

            def check(outcome, v):
                (tri,) = outcome.value.triangulations.values()
                v.expect(len(tri.top_simplices()) == 4, "glued triangulation should have 4 tops")

            return Job(f"load-{key}", check, call=call)

        def validate(key):
            def call():
                (tri,) = state[key].triangulations.values()
                return tri.validate()

            def check(outcome, v):
                v.expect(outcome.value["face_agreement"] <= 1e-10, "face evaluators disagree")

            return Job(f"validate-{key}", check, call=call)

        def circle_integral():
            (tri,) = state["circle"].triangulations.values()
            terms = [(tri.evaluators[s], _edge_orientation(tri.evaluators[s])) for s in tri.top_simplices()]
            chain = pl.chains.Chain(1, terms)
            return pl.periods.chain_integral(chain, dtheta, 1e-10, budget)

        def disk_top(k):
            def call():
                (tri,) = state["disk"].triangulations.values()
                s = tri.top_simplices()[k]
                return pl.quad.integrate_simplex(tri.evaluators[s], area, 1e-7, lib_config(pl))

            def check(outcome, v):
                (tri,) = state["disk"].triangulations.values()
                s = tri.top_simplices()[k]
                r = outcome.value
                v.quad(f"area{s}", abs(r.value), r.error_estimate, r.converged, self._top_area(s))

            return Job(f"disk-area-top{k}", check, call=call)

        return [
            glue_job("glue-circle", "circle_upper.json", "circle_lower.json", "circle_btable.json", circle_out),
            load("circle", circle_out),
            validate("circle"),
            Job("circle-dtheta-1e-10-budget", check_quad_result(TWO_PI), call=circle_integral, defect=DEFECT_FD_FLOOR),
            glue_job("glue-disk", "cap.json", "base.json", "cap_btable.json", disk_out),
            load("disk", disk_out),
            validate("disk"),
        ] + [disk_top(k) for k in range(4)]

    def _top_area(self, s):
        """Exact area of a glued top.  Tops of the base keep its vertex ids
        0..3; a glued top joins the cap apex (id 4) with a base edge (i, j)
        on the diameter and covers the part of the half-disk over it: the
        cap's chords are linear in a1, so that part is (x_j - x_i)/2 of pi/2."""
        p = self.base_points
        if 4 in s:
            i, j = s[0], s[1]
            return abs(p[j][0] - p[i][0]) / 2.0 * math.pi / 2.0
        (x0, y0), (x1, y1), (x2, y2) = (p[v] for v in s)
        return abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2.0


def _edge_orientation(ev) -> int:
    """+1 when the edge runs counterclockwise around the origin."""
    p, q = ev.evaluate(np.array([0.25])), ev.evaluate(np.array([0.75]))
    return 1 if p[0] * q[1] - p[1] * q[0] > 0 else -1


WORKLOADS = {w.name: w for w in (PeriodsCircle, StokesCones, HomologySD, GlueDisk)}
