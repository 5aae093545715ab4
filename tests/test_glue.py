import hashlib

import numpy as np
import pytest
from test_chains import glued_fan, random_interior_point, values_and_jacobians
from test_homology import finishes_within

from periodlab import chains as ch
from periodlab import forms as fo
from periodlab import glue as gl
from periodlab import homology as hm
from periodlab import periods as pe
from periodlab import quad as qd
from periodlab.expr import ExprDomainError


def arc(theta0, theta1):
    return ch.ExprMap(
        [f"cos({theta0} + ({theta1} - ({theta0}))*t)", f"sin({theta0} + ({theta1} - ({theta0}))*t)"],
        1,
    )


def point(x, y):
    return ch.AffineSimplex([[float(x), float(y)]])


def upper_semicircle():
    K = hm.SimplicialComplex([(0, 1), (1, 2)])
    return gl.Triangulation(
        K,
        {
            (0, 1): arc("0", "pi/2"),
            (1, 2): arc("pi/2", "pi"),
            (0,): point(1, 0),
            (1,): point(0, 1),
            (2,): point(-1, 0),
        },
        marks={"B": {(0,), (2,)}},
    )


def lower_semicircle():
    K = hm.SimplicialComplex([(0, 1), (1, 2)])
    return gl.Triangulation(
        K,
        {
            (0, 1): arc("pi", "3/2*pi"),
            (1, 2): arc("3/2*pi", "2*pi"),
            (0,): point(-1, 0),
            (1,): point(0, -1),
            (2,): point(1, 0),
        },
        marks={"B": {(0,), (2,)}},
    )


def test_newton_inverse_affine_and_nonlinear():
    aff = ch.AffineSimplex([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    x = gl.invert_simplex_map(aff, np.array([1.0, 1.5]))
    assert np.allclose(aff.evaluate(x), [1.0, 1.5], atol=1e-12)
    curved = ch.ExprMap(["a1 + a2^2", "a2"], 2)
    target = curved.evaluate(np.array([0.3, 0.4]))
    x = gl.invert_simplex_map(curved, target)
    assert np.abs(curved.evaluate(x) - target).max() <= 1e-11
    with pytest.raises(gl.InputCompatibilityError):
        gl.invert_simplex_map(aff, np.array([5.0, 5.0]))


def test_batched_inverse_matches_per_point_solves():
    curved = ch.ExprMap(["a1 + a2^2", "a2"], 2)
    rng = np.random.default_rng(12)
    xs = np.vstack([[random_interior_point(2, rng) for _ in range(6)], np.eye(2), [[0.0, 0.0]]])
    ys = curved.evaluate_many(xs)
    batch = gl.invert_simplex_map(curved, ys)
    for y, x in zip(ys, batch):
        np.testing.assert_array_equal(x, gl.invert_simplex_map(curved, y))
    assert np.abs(curved.evaluate_many(batch) - ys).max() <= 1e-12
    with pytest.raises(gl.InputCompatibilityError):
        gl.invert_simplex_map(curved, np.vstack([ys, [[5.0, 5.0]]]))


def test_a_newton_inverse_through_a_composed_map_asks_its_outer_map_for_what_it_uses(monkeypatch):
    # a residual needs the outer values alone and a Gauss-Newton step the
    # outer Jacobian alone: one outer call per call of the composed map,
    # and none computes both
    cap = ch.ExprMap(["cos(pi*a2/2)*(1 - a2 - 2*a1)/(1 - a2)", "sin(pi*a2/2)"], 2)
    composed = ch.Composed(cap, ch.AffineSimplex([[0.2, 0.1], [0.7, 0.1], [0.2, 0.6]]))
    rng = np.random.default_rng(4)
    targets = composed.evaluate_many(np.array([random_interior_point(2, rng) for _ in range(100)]))
    asked, public, batch = [], [], cap.batch
    monkeypatch.setattr(cap, "batch", lambda cols, values=True, jacobian=True: (
        asked.append((values, jacobian)) or batch(cols, values, jacobian)))
    for name in ("evaluate_many", "jacobian_many"):
        method = getattr(composed, name)
        monkeypatch.setattr(composed, name, lambda pts, name=name, method=method: (
            public.append(name) or method(pts)))
    x = gl.invert_simplex_map(composed, targets)
    assert asked == [(name == "evaluate_many", name == "jacobian_many") for name in public]
    # seven residuals and six steps: 7 outer value batches, where a Jacobian
    # that came with its values made 13
    assert (public.count("evaluate_many"), public.count("jacobian_many")) == (7, 6)
    assert np.abs(composed.evaluate_many(x) - targets).max() <= 1e-12


def reference_invert_simplex_map(f, y):
    """invert_simplex_map as it was before its rows were updated in place
    under masks: every step gathers its live rows and scatters them back.
    Its unchanged affine branch is left out."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return reference_invert_simplex_map(f, y[None])[0]
    scale = 1.0 + gl._max_abs(y)
    d = f.dim
    centre = np.full(d, 1.0 / (d + 1))
    seeds = [centre] + [0.9 * v + 0.1 * centre for v in ch.reference_vertices(d)]
    out = np.empty((y.shape[0], d))
    best = np.full(y.shape[0], np.inf)
    todo = np.arange(y.shape[0])
    for seed in seeds:
        yt, lim = y[todo], gl.NEWTON_TOL * scale[todo]
        x = np.tile(seed, (todo.size, 1))
        r = f.evaluate_many(x) - yt
        res = gl._max_abs(r)
        live = res > lim
        for _ in range(gl.NEWTON_MAX_ITER):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            x[idx], r[idx], res[idx], moved = reference_gauss_newton(f, x[idx], yt[idx], r[idx], res[idx])
            live[idx] = moved & (res[idx] > lim[idx])
        done = res <= lim
        polish = np.flatnonzero(done & (res > 0.0))
        if polish.size:
            x[polish], r[polish], res[polish], _ = reference_gauss_newton(
                f, x[polish], yt[polish], r[polish], res[polish], min_lam=0.5
            )
        best[todo] = np.minimum(best[todo], res)
        out[todo[done]] = x[done]
        todo = todo[~done]
        if todo.size == 0:
            return out
    raise gl.InputCompatibilityError(
        f"Newton inverse failed: residual {best[todo].max():.3e} at tolerance {gl.NEWTON_TOL:.1e}"
    )


def reference_gauss_newton(f, x, y, r, res, min_lam=1e-12):
    step = -gl._lstsq(f.jacobian_many(x), r[:, :, None])[:, :, 0]
    moved = np.zeros(x.shape[0], dtype=bool)
    pending = np.arange(x.shape[0])
    lam = 1.0
    while pending.size and lam > min_lam:
        xn = gl._project_to_simplex(x[pending] + lam * step[pending])
        rn = f.evaluate_many(xn) - y[pending]
        resn = gl._max_abs(rn)
        ok = resn < res[pending]
        acc = pending[ok]
        x[acc], r[acc], res[acc], moved[acc] = xn[ok], rn[ok], resn[ok], True
        pending = pending[~ok]
        lam *= 0.5
    return x, r, res, moved


CAP = ch.ExprMap(["cos(pi*a2/2)*(1 - a2 - 2*a1)/(1 - a2)", "sin(pi*a2/2)"], 2)
ORACLE_BATCHES = [
    # the cap: interior rows from the centre seed, its two regular vertices,
    # points on its edges, and its centre, an exact hit (residual 0, no polish)
    (CAP, [[0.2, 0.3], [0.6, 0.1], [0.05, 0.9], [0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.5],
           [0.4, 0.6], [1 / 3, 1 / 3]]),
    # the cap composed with an affine map, its vertices and an edge point
    (ch.Composed(CAP, ch.AffineSimplex([[0.2, 0.1], [0.7, 0.1], [0.2, 0.6]])),
     [[0.3, 0.3], [0.1, 0.7], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1 / 3, 1 / 3]]),
    # a circle arc of 1.9 pi: t >= 0.975 needs the seed near vertex 1
    (ch.ExprMap(["cos(19/10*pi*t)", "sin(19/10*pi*t)"], 1), [[0.1], [0.5], [0.975], [0.99], [0.0], [1.0]]),
    # a wave: 0.275 and 0.28 converge from a later seed after short steps
    # (2^-12 for 0.28), and 0.9 and 0.98 backtrack to a step of 1/4
    (ch.ExprMap(["t", "sin(9*t)/3"], 1), [[0.275], [0.28], [0.5], [0.9], [0.98], [0.1], [0.0], [1.0]]),
    # half steps from the centre from 0.71 on
    (ch.ExprMap(["t", "exp(4*t)"], 1), [[0.71], [0.75], [0.2], [0.5]]),
    # a cubic fold whose first full steps overshoot
    (ch.ExprMap(["a1 + 3*a2^2", "a2 + 2*a1^3"], 2), [[0.13, 0.58], [0.77, 0.12], [0.72, 0.12], [0.2, 0.2]]),
]


@pytest.mark.parametrize("f, pts", ORACLE_BATCHES)
def test_the_inverse_is_the_reference_bit_for_bit(f, pts):
    targets = f.evaluate_many(np.array(pts))
    x = gl.invert_simplex_map(f, targets)
    np.testing.assert_array_equal(x, reference_invert_simplex_map(f, targets))
    for y, xk in zip(targets, x):  # and each row as it would be alone
        np.testing.assert_array_equal(xk, reference_invert_simplex_map(f, y))


@pytest.mark.parametrize("target", [[0.0, -0.5], [1.5, 0.2]])
def test_an_unreachable_target_fails_the_inverse_as_the_reference_does(target):
    # one row off the image among rows that converge: the same message
    targets = np.vstack([CAP.evaluate_many(np.array([[0.2, 0.3], [0.6, 0.1]])), [target]])
    with pytest.raises(gl.InputCompatibilityError) as ref:
        reference_invert_simplex_map(CAP, targets)
    with pytest.raises(gl.InputCompatibilityError) as new:
        gl.invert_simplex_map(CAP, targets)
    assert str(new.value) == str(ref.value)


def test_least_squares_solves_each_system_alone():
    # one rank-deficient system in a batch must not change how the others
    # are solved: glued densities stay elementwise
    rng = np.random.default_rng(5)
    J = rng.normal(size=(4, 3, 2))
    J[2] = [[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]  # rank 1: J^T J is singular
    B = rng.normal(size=(4, 3, 2))
    batch = gl._lstsq(J, B)
    for k in range(4):
        np.testing.assert_array_equal(batch[k], gl._lstsq(J[k : k + 1], B[k : k + 1])[0])


SEGMENT = ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "v_slots, roles",
    [
        ([0], [("x", 0), ("w", 0), ("w", 1)]),  # a role kind other than v/w
        ([0], [("v", 3), ("w", 0), ("w", 1)]),  # a v role past v_slots
        ([2], [("v", 0), ("w", 0), ("w", 1)]),  # a v slot past sigma's vertices
        ([0], [("v", 0), ("w", 0), ("w", 2)]),  # w roles that are not tau's vertices
        ([0], [("v", 0), ("w", 0)]),  # a vertex of tau without a role
        ([0], [("v", 0.0), ("w", 0), ("w", 1)]),  # an index that is not an integer
    ],
    ids=["kind", "v-role", "v-slot", "w-roles", "w-missing", "float-index"],
)
def test_glued_map_rejects_descriptions_out_of_range(v_slots, roles):
    with pytest.raises(ValueError):
        gl.GluedMap(SEGMENT, SEGMENT, v_slots, roles)


def circle_glue_input():
    return upper_semicircle(), lower_semicircle(), {(0,): (2,), (2,): (0,)}


def test_glue_circle_complex_and_homology():
    G = gl.glue(*circle_glue_input())
    assert G.complex.n_cells(0) == 4 and G.complex.n_cells(1) == 4
    assert hm.homology(G.complex).betti == [1, 1]
    report = G.validate()
    assert report["face_agreement"] <= 1e-10


def test_glued_evaluator_face_restrictions():
    # restricted to the w-face the glued map is h2 on that simplex; at the
    # v-vertex it is h1's value
    G = gl.glue(*circle_glue_input())
    t2 = lower_semicircle()
    glued_edges = [s for s, ev in G.evaluators.items() if isinstance(ev, gl.GluedMap)]
    assert glued_edges, "expected glued evaluators in the output"
    for edge in glued_edges:
        ev = G.evaluators[edge]
        # w-vertex: barycentric mass entirely on the tau part
        w_slot = next(i for i, r in enumerate(ev.roles) if r[0] == "w")
        coords = np.zeros(ev.dim)
        if w_slot > 0:
            coords[w_slot - 1] = 1.0
        w_val = ev.evaluate(coords)
        tau_val = ev.h2_tau.evaluate(np.zeros(0))
        assert np.abs(w_val - tau_val).max() <= 1e-10
        # v-vertex
        v_slot = next(i for i, r in enumerate(ev.roles) if r[0] == "v")
        coords = np.zeros(ev.dim)
        if v_slot > 0:
            coords[v_slot - 1] = 1.0
        v_val = ev.evaluate(coords)
        ref = np.zeros(ev.h1_sigma.dim + 1)
        ref[ev.v_slots[0]] = 1.0
        h1_val = ev.h1_sigma.evaluate(ref[1:])
        assert np.abs(v_val - h1_val).max() <= 1e-10


def test_glued_evaluator_continuity_at_vanishing_w_mass():
    G = gl.glue(*circle_glue_input())
    ev = next(e for e in G.evaluators.values() if isinstance(e, gl.GluedMap))
    v_slot = next(i for i, r in enumerate(ev.roles) if r[0] == "v")
    w_slot = 1 - v_slot  # dim 1: two slots
    limit_coords = np.zeros(ev.dim)
    if v_slot > 0:
        limit_coords[v_slot - 1] = 1.0
    limit = ev.evaluate(limit_coords)
    prev_gap = None
    for k in range(2, 26, 4):
        a = 2.0**-k
        coords = np.zeros(ev.dim)
        if v_slot > 0:
            coords[v_slot - 1] = 1.0 - a
        if w_slot > 0:
            coords[w_slot - 1] = a
        gap = np.abs(ev.evaluate(coords) - limit).max()
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-12
        prev_gap = gap
    assert prev_gap <= 1e-6


def disk_glue_input():
    """The half-disk cap glued over a two-triangle base along the diameter,
    which the base splits at x = 0.2."""
    cap = gl.Triangulation(
        hm.SimplicialComplex([(0, 1, 2)]),
        {
            (0, 1, 2): ch.ExprMap(["cos(pi*a2/2)*(1 - a2 - 2*a1)/(1 - a2)", "sin(pi*a2/2)"], 2),
            (0, 1): ch.AffineSimplex([[1.0, 0.0], [-1.0, 0.0]]),
            (0,): point(1, 0),
            (1,): point(-1, 0),
            (2,): point(0, 1),
        },
        marks={"B": {(0,), (1,), (0, 1)}},
    )
    xy = {0: (-1.0, 0.0), 1: (0.2, 0.0), 2: (1.0, 0.0), 3: (0.1, -0.8)}
    base = gl.Triangulation(
        hm.SimplicialComplex([(0, 1, 3), (1, 2, 3)]),
        {s: ch.AffineSimplex([xy[v] for v in s]) for s in ((0, 1, 3), (1, 2, 3))},
        marks={"B": {(0,), (1,), (2,), (0, 1), (1, 2)}},
    )
    table = {(0,): (1,), (2,): (0,), (1,): (0, 1), (0, 1): (0, 1), (1, 2): (0, 1)}
    return cap, base, table


def test_glue_checks_and_normalises_the_containment_table():
    upper, lower = upper_semicircle(), lower_semicircle()
    with pytest.raises(gl.InputCompatibilityError, match="misses marked simplices"):
        gl.glue(upper, lower, {(0,): (2,)})
    with pytest.raises(gl.InputCompatibilityError, match="not marked in the first piece"):
        gl.glue(upper, lower, {(0,): (2,), (2,): (1,)})
    cap, base, table = disk_glue_input()
    G = gl.glue(cap, base, table)
    R = gl.glue(cap, base, {k[::-1]: v[::-1] for k, v in table.items()})
    assert {s: ev.key() for s, ev in R.evaluators.items()} == {s: ev.key() for s, ev in G.evaluators.items()}


def scanned_evaluator(T, s):
    """The evaluator of s by a scan of the whole complex: its own, else the
    restriction of the first proper coface with an evaluator, by dimension,
    then in the complex's order."""
    if s in T.evaluators:
        return T.evaluators[s]
    for d in range(len(s), T.complex.dim + 1):
        for parent in T.complex.simplices[d]:
            if set(s) <= set(parent) and parent in T.evaluators:
                ref = ch.reference_vertices(len(parent) - 1)
                return ch.Composed(T.evaluators[parent], ch.AffineSimplex(ref[[parent.index(v) for v in s]]))
    return None


def test_evaluator_lookup_matches_a_scan_of_the_complex():
    cap, base, _ = disk_glue_input()
    twice = gl.subdivide_triangulation(gl.subdivide_triangulation(base))
    # evaluators on an edge and on both tops: a vertex of the edge restricts
    # the edge's, the lowest-dimensional carrier, and the shared edge (1, 2)
    # the first top's
    mixed = gl.Triangulation(
        hm.SimplicialComplex([(0, 1, 2), (1, 2, 3)]),
        {(0, 1, 2): ch.AffineSimplex([[0, 0], [1, 0], [0, 1]]),
         (1, 2, 3): ch.AffineSimplex([[1, 0], [0, 1], [1, 1]]),
         (2, 3): ch.AffineSimplex([[0, 1], [1, 1]])},
    )
    assert mixed._carriers[(2,)] == (2, 3) and mixed._carriers[(1, 2)] == (0, 1, 2)
    for T in (cap, base, twice, mixed):
        for s in T.complex.cells():
            assert T.evaluator_for(s).key() == scanned_evaluator(T, s).key()
    assert len(twice.complex.cells()) == 233
    with pytest.raises(KeyError, match="no evaluator covers"):
        gl.Triangulation(hm.SimplicialComplex([(0, 1)]), {(0,): point(0, 0)}).evaluator_for((1,))


def test_a_triangulation_rejects_a_simplex_named_twice():
    a, b = ch.AffineSimplex([[0, 0], [1, 0]]), ch.AffineSimplex([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"simplex \(0, 1\) has a second evaluator"):
        gl.Triangulation(hm.SimplicialComplex([(0, 1)]), {(0, 1): a, (1, 0): b})


def reference_validate(T):
    """Triangulation.validate by brute force: the carriers of each shared face
    by a scan of every top, and the sample clouds of every pair of tops."""
    d = T.complex.dim
    tops = T.top_simplices()
    ref = ch.reference_vertices(d)
    shared = []  # (face, the tops that carry it), for faces of two or more
    for ftuple in T.complex.simplices.get(d - 1, []) if d >= 1 else []:
        carriers = [t for t in tops if set(ftuple) <= set(t)]
        if len(carriers) >= 2:
            shared.append((ftuple, carriers))
    cloud = ch.interior_grid(d)
    batches = {t: [cloud] for t in tops}
    rows = {}
    for ftuple, carriers in shared:
        face_grid = ch.interior_grid(d - 1)
        for t in carriers:
            start = sum(len(b) for b in batches[t])
            rows[ftuple, t] = slice(start, start + len(face_grid))
            face = ch.AffineSimplex(ref[[t.index(v) for v in ftuple]])
            batches[t].append(face.evaluate_many(face_grid))
    vals = {t: T.evaluators[t].evaluate_many(np.vstack(b)) for t, b in batches.items()}
    face_worst = 0.0
    for ftuple, carriers in shared:
        first = vals[carriers[0]][rows[ftuple, carriers[0]]]
        for t in carriers[1:]:
            face_worst = max(face_worst, float(np.abs(vals[t][rows[ftuple, t]] - first).max()))
    if face_worst > gl.FACE_TOL:
        raise gl.InputCompatibilityError(f"face evaluators disagree by {face_worst:.2e}")
    clouds = [vals[t][: len(cloud)] for t in tops]
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            dists = np.linalg.norm(clouds[i][:, None, :] - clouds[j][None, :, :], axis=2)
            if dists.min() < gl.COLLISION_TOL:
                raise gl.InputCompatibilityError(
                    f"interiors of {tops[i]} and {tops[j]} collide in sampling"
                )
    return {"face_agreement": face_worst, "tops": len(tops), "status": "sampled, not certified"}


def subdivided(T, k):
    for _ in range(k):
        T = gl.subdivide_triangulation(T)
    return T


def validation_cases():
    cap, base, table = disk_glue_input()
    for T in (cap, base, gl.glue(cap, base, table), gl.glue(*circle_glue_input())):
        yield from (T, subdivided(T, 1), subdivided(T, 2))


def test_validate_matches_the_brute_force_reference():
    reports = [(T.validate(), reference_validate(T)) for T in validation_cases()]
    assert [new for new, _ in reports] == [old for _, old in reports]
    assert [new["tops"] for new, _ in reports] == [1, 6, 36, 2, 12, 72, 4, 24, 144, 4, 8, 16]


def with_evaluators(T, replace=None, extra=()):
    """T with the top evaluators in ``replace`` (top -> evaluator) swapped in
    and the ``extra`` (top, evaluator) pairs added."""
    K = hm.SimplicialComplex(T.top_simplices() + [s for s, _ in extra])
    return gl.Triangulation(K, {**T.evaluators, **(replace or {}), **dict(extra)})


def raised(validate, T):
    with pytest.raises(gl.InputCompatibilityError) as info:
        validate(T)
    return str(info.value)


def test_validate_reports_a_face_mismatch_as_the_reference_does():
    T = subdivided(disk_glue_input()[1], 1)
    top = T.top_simplices()[5]
    corners = T.evaluators[top].evaluate_many(np.vstack([np.zeros((1, 2)), np.eye(2)]))
    corners[2] += 1e-6  # one vertex off: the top no longer meets its neighbours
    bad = with_evaluators(T, {top: ch.AffineSimplex(corners)})
    message = raised(gl.Triangulation.validate, bad)
    assert message == raised(reference_validate, bad)
    assert message.startswith("face evaluators disagree by")


def test_validate_reports_the_first_collision_as_the_reference_does():
    # two extra tops, apart from the rest of the complex, with copies of the
    # evaluators of tops 7 and 3; they sort last, as tops 12 and 13, so the
    # first colliding pair is (3, 13)
    T = subdivided(disk_glue_input()[1], 1)
    tops = T.top_simplices()
    n = len(T.complex.vertices)
    extra = [((n, n + 1, n + 2), T.evaluators[tops[7]]),
             ((n + 3, n + 4, n + 5), T.evaluators[tops[3]])]
    bad = with_evaluators(T, extra=extra)
    message = raised(gl.Triangulation.validate, bad)
    assert message == raised(reference_validate, bad)
    assert message == f"interiors of {tops[3]} and {(n + 3, n + 4, n + 5)} collide in sampling"


def test_validate_leaves_boundary_facets_unevaluated():
    # a2*log(a2) is undefined on the facet a2 = 0, which no other top shares
    T = gl.Triangulation(
        hm.SimplicialComplex([(0, 1, 2)]), {(0, 1, 2): ch.ExprMap(["a1", "a2*log(a2)"], 2)}
    )
    assert T.validate() == reference_validate(T)


def test_validate_finds_a_collision_across_a_gap_between_the_sample_boxes():
    # the samples of [0, 1] end at 0.6 and those of the overlapping segment
    # start 5e-8 further on: the boxes do not meet, the samples still collide
    a = 0.4 + 5e-8
    T = gl.Triangulation(
        hm.SimplicialComplex([(0, 1), (2, 3)]),
        {(0, 1): ch.AffineSimplex([[0.0], [1.0]]), (2, 3): ch.AffineSimplex([[a], [a + 1.0]])},
    )
    message = raised(gl.Triangulation.validate, T)
    assert message == raised(reference_validate, T)
    assert message == "interiors of (0, 1) and (2, 3) collide in sampling"


def test_validate_of_a_fine_triangulation_is_fast():
    # the base after four subdivisions: 2,592 tops, which a pairwise scan of
    # the sample clouds took about a minute to validate
    T = subdivided(disk_glue_input()[1], 4)
    with finishes_within(5):
        report = T.validate()
    assert report["tops"] == 2592 and report["face_agreement"] <= 1e-12


def test_subdivide_triangulation_puts_each_vertex_at_its_barycenter():
    # new vertex v stands for the simplex cells()[v] of the old complex and
    # sits at the image of its barycenter; faces still agree after the split
    for T in (upper_semicircle(), disk_glue_input()[1]):
        sd = gl.subdivide_triangulation(T)
        cells = T.complex.cells()
        for v in sd.complex.vertices:
            top = next(t for t in T.top_simplices() if set(cells[v]) <= set(t))
            ref = ch.reference_vertices(len(top) - 1)
            bary = ref[[top.index(x) for x in cells[v]]].mean(axis=0)
            assert np.abs(sd.evaluator_for((v,)).evaluate(np.zeros(0)) - T.evaluators[top].evaluate(bary)).max() <= 1e-12
        assert sd.validate()["face_agreement"] <= 1e-12
        assert hm.homology(sd.complex).betti == hm.homology(T.complex).betti


def test_glued_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    for inp in (circle_glue_input(), disk_glue_input()):
        G = gl.glue(*inp)
        glued = [e for e in G.evaluators.values() if isinstance(e, gl.GluedMap)]
        assert {e.dim for e in glued} == {1, inp[0].complex.dim}
        for ev in glued:
            pts = np.array([0.8 * random_interior_point(ev.dim, rng) + 0.05 for _ in range(5)])
            jac = ev.jacobian_many(pts)
            h = 1e-6
            for j in range(ev.dim):
                step = h * np.eye(ev.dim)[j]
                fd = (ev.evaluate_many(pts + step) - ev.evaluate_many(pts - step)) / (2 * h)
                assert np.abs(jac[:, :, j] - fd).max() <= 1e-7 * (1 + np.abs(fd).max())


def test_a_glued_pullback_inverts_g_once_per_batch(monkeypatch):
    inversions = []

    def counting(f, y, invert=gl.invert_simplex_map):
        inversions.append(len(y))
        return invert(f, y)

    monkeypatch.setattr(gl, "invert_simplex_map", counting)
    G = gl.glue(*disk_glue_input())
    top = G.evaluators[(0, 1, 4)]
    assert isinstance(top, gl.GluedMap)
    rng = np.random.default_rng(12)
    values_and_jacobians(top, np.array([random_interior_point(2, rng) for _ in range(6)]))
    assert inversions == [6]
    inversions.clear()
    r = qd.integrate_simplex(top, fo.Form(2, 2, [((1, 2), "1")]), 1e-7)
    # 9 splits in 2 calls: the root's, then one that splits 16 cells, the
    # first four levels of the tree and the first cell of the fifth
    assert len(inversions) == r.density_calls == 2
    assert (r.value.hex(), r.error_estimate.hex(), r.subdivisions) == (
        "0x1.e28c731dd951ap-1", "0x1.0f3c204300000p-24", 9)
    # a batch with points of zero w-mass too, over a vertex tau: the first
    # batch inverts tau's one point, and a second batch inverts nothing
    inversions.clear()
    pts = np.array([[0.3, 0.0], [0.2, 0.5], [0.0, 0.0], [0.6, 0.0], [0.1, 0.1]])
    fan = glued_fan()
    values_and_jacobians(fan, pts)
    values_and_jacobians(fan, pts[::-1])
    assert inversions == [1]


def test_a_glued_batch_of_values_alone_inverts_g_once_over_all_its_points(monkeypatch):
    # the same one inverse as a batch with Jacobians, at tau's vertex 0 where
    # the w-mass vanishes; the values are those of the batch that inverted
    # only where there is w-mass, byte for byte
    fan = glued_fan()
    inversions = []
    monkeypatch.setattr(fan, "_g", lambda u, g=fan._g: inversions.append(len(u)) or g(u))
    pts = np.array([[0.3, 0.0], [0.2, 0.5], [0.0, 0.0], [0.6, 0.0], [0.1, 0.1]])
    vals = fan.evaluate_many(pts)
    assert inversions == [5]
    assert hashlib.sha256(vals.tobytes()).hexdigest()[:16] == "f05d2e83520b0883"


def test_a_failed_glued_inverse_raises_as_the_two_batches_do():
    t2 = gl.Triangulation(hm.SimplicialComplex([(0,)]), {(0,): point(5.0, 5.0)}, marks={"B": {(0,)}})
    G = gl.glue(upper_semicircle(), t2, {(0,): (0,)})
    ev = next(e for e in G.evaluators.values() if isinstance(e, gl.GluedMap))
    pts = np.array([[0.25], [0.5]])
    with pytest.raises(gl.InputCompatibilityError) as two:
        ev.evaluate_many(pts), ev.jacobian_many(pts)
    with pytest.raises(gl.InputCompatibilityError) as one:
        values_and_jacobians(ev, pts)
    assert str(one.value) == str(two.value)


def test_a_glued_map_over_a_vertex_keeps_the_bytes_of_a_fresh_map(monkeypatch):
    inversions = []
    monkeypatch.setattr(gl, "invert_simplex_map", lambda f, y, invert=gl.invert_simplex_map: (
        inversions.append(len(y)) or invert(f, y)))
    fan = glued_fan()
    # an empty first batch neither fails nor fills the memo
    vals, jacs = values_and_jacobians(fan, np.zeros((0, 2)))
    assert (vals.shape, jacs.shape, "_g_vertex" in vars(fan)) == ((0, 2), (0, 2, 2), False)
    first = np.array([[0.3, 0.0], [0.2, 0.5], [0.0, 0.0], [0.6, 0.0], [0.1, 0.1]])
    second = np.array([[0.25, 0.25], [0.7, 0.1], [0.0, 0.4]])
    for pts in (first, second):
        got = values_and_jacobians(fan, pts)
        fresh = values_and_jacobians(glued_fan(), pts)
        for a, b in zip(got, fresh):
            assert a.tobytes() == b.tobytes()
    assert inversions == [0, 1, 1, 1]  # the empty batch's, the first batch's, one per fresh map
    # the memo is each row of a batch of tau's point, as an inverse of all of them makes it
    u = np.zeros((4, 0))
    assert fan._g(u).tobytes() == gl.invert_simplex_map(fan.h1_sigma, fan.h2_tau.evaluate_many(u)).tobytes()


def test_a_failed_inverse_over_a_vertex_is_not_memoised(monkeypatch):
    t2 = gl.Triangulation(hm.SimplicialComplex([(0,)]), {(0,): point(5.0, 5.0)}, marks={"B": {(0,)}})
    G = gl.glue(upper_semicircle(), t2, {(0,): (0,)})
    ev = next(e for e in G.evaluators.values() if isinstance(e, gl.GluedMap))
    assert ev.h2_tau.dim == 0
    inversions = []
    monkeypatch.setattr(gl, "invert_simplex_map", lambda f, y, invert=gl.invert_simplex_map: (
        inversions.append(len(y)) or invert(f, y)))
    errors = []
    for _ in range(2):
        with pytest.raises(gl.InputCompatibilityError) as err:
            values_and_jacobians(ev, np.array([[0.25], [0.5]]))
        errors.append(str(err.value))
    assert errors[0] == errors[1] and inversions == [1, 1]


@pytest.mark.parametrize("target, residual", [((5.0, 5.0), "4.613e+00"), ((0.0, 1.2), "2.000e-01")])
def test_a_target_above_the_caps_apex_is_not_in_its_image(target, residual):
    # a backtracking trial projected onto the apex, where the cap divides by
    # zero, is rejected instead of ending the inverse in a domain error
    with pytest.raises(gl.InputCompatibilityError) as err:
        gl.invert_simplex_map(CAP, np.array(target))
    assert str(err.value) == f"Newton inverse failed: residual {residual} at tolerance 1.0e-12"


def test_a_trial_off_the_domain_is_rejected_and_moves_no_other_row():
    # from the centre seed, the full step for t = 0.26 lands at t = 0.18,
    # below the square root's domain; its half step is taken instead
    f = ch.ExprMap(["t", "sqrt(t - 1/4)"], 1)
    targets = f.evaluate_many(np.array([[0.26], [0.8]]))
    with pytest.raises(ExprDomainError):
        reference_invert_simplex_map(f, targets)
    x = gl.invert_simplex_map(f, targets)
    assert np.abs(f.evaluate_many(x) - targets).max() <= 1e-12
    np.testing.assert_array_equal(x[1], reference_invert_simplex_map(f, targets[1]))
    # a seed off the domain still ends the inverse in its domain error
    with pytest.raises(ExprDomainError):
        gl.invert_simplex_map(ch.ExprMap(["t", "1/(2*t - 1)"], 1), np.array([0.2, -5 / 3]))


def test_glued_circle_period_converges_at_1e_10():
    # the exact Jacobian carries no finite-difference noise, so the glued
    # edges integrate d(theta) to 2 pi at a tolerance of 1e-10
    G = gl.glue(*circle_glue_input())
    dtheta = fo.Form(1, 2, [((1,), "-a2/(a1^2 + a2^2)"), ((2,), "a1/(a1^2 + a2^2)")])
    terms = []
    for s in G.top_simplices():
        ev = G.evaluators[s]
        p, q = ev.evaluate(np.array([0.25])), ev.evaluate(np.array([0.75]))
        terms.append((ev, 1 if p[0] * q[1] - p[1] * q[0] > 0 else -1))  # counterclockwise
    config = qd.QuadConfig(max_cells=300)
    r = pe.chain_integral(ch.Chain(1, terms), dtheta, 1e-10, config)
    assert r.converged
    assert abs(r.value - 2 * np.pi) <= r.error_estimate + 1e-13


def test_glue_empty_overlap_is_disjoint_union():
    t1 = upper_semicircle()
    t2 = lower_semicircle()
    t1e = gl.Triangulation(t1.complex, dict(t1.evaluators), marks={})
    t2e = gl.Triangulation(t2.complex, dict(t2.evaluators), marks={})
    G = gl.glue(t1e, t2e, {})
    assert G.complex.n_cells(0) == 6 and G.complex.n_cells(1) == 4
    assert hm.homology(G.complex).betti == [2, 0]


def test_glue_identical_pieces_returns_refinement():
    seg = ch.AffineSimplex([[0.0], [2.0]])
    t1 = gl.Triangulation(
        hm.SimplicialComplex([(0, 1)]),
        {(0, 1): seg, (0,): ch.AffineSimplex([[0.0]]), (1,): ch.AffineSimplex([[2.0]])},
        marks={"B": {(0,), (1,), (0, 1)}},
    )
    t2 = gl.Triangulation(
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
    G = gl.glue(t1, t2, table)
    assert sorted(G.complex.simplices[1]) == [(0, 1), (1, 2)]
    for s in G.complex.simplices[1]:
        assert G.evaluators[s] is t2.evaluators[s]


def test_glue_rejects_b_condition_violation():
    # an edge with both endpoints marked but not itself marked
    t1 = gl.Triangulation(
        hm.SimplicialComplex([(0, 1)]),
        {(0, 1): ch.AffineSimplex([[0.0], [1.0]]), (0,): ch.AffineSimplex([[0.0]]),
         (1,): ch.AffineSimplex([[1.0]])},
        marks={"B": {(0,), (1,)}},
    )
    t2 = gl.Triangulation(
        hm.SimplicialComplex([(0,)]),
        {(0,): ch.AffineSimplex([[0.0]])},
        marks={"B": {(0,)}},
    )
    with pytest.raises(gl.InputCompatibilityError, match=r"^first piece: \(0, 1\) has every vertex in mark 'B'"):
        gl.glue(t1, t2, {(0,): (0,)})


def _one_edge(marked):
    return gl.Triangulation(
        hm.SimplicialComplex([(0, 1)]),
        {(0, 1): ch.AffineSimplex([[1.0, 0.0], [0.0, 1.0]]), (0,): point(1, 0), (1,): point(0, 1)},
        marks={"B": marked},
    )


def _one_vertex(marked):
    return gl.Triangulation(hm.SimplicialComplex([(0,)]), {(0,): point(1, 0)}, marks={"B": marked})


def _upper_semicircle_marking(marked):
    T = upper_semicircle()
    return gl.Triangulation(T.complex, T.evaluators, marks={"B": marked})


@pytest.mark.parametrize(
    "t1, t2, table, message",
    [
        (upper_semicircle(), _one_edge({(0,), (1,)}), {(0,): (0,), (1,): (2,)}, "second piece: (0, 1)"),
        # a mark that is not face-closed: its vertex (0,) is not marked
        (_upper_semicircle_marking({(0, 1)}), _one_vertex({(0,)}), {(0,): (0, 1)}, "first piece: (0,)"),
    ],
    ids=["second-piece", "unmarked-vertex"],
)
def test_glue_names_the_piece_and_simplex_of_a_b_condition_violation(t1, t2, table, message):
    with pytest.raises(gl.InputCompatibilityError) as err:
        gl.glue(t1, t2, table)
    assert str(err.value) == (
        f"{message} has every vertex in mark 'B' but is not marked (B-condition); "
        "mark it, or triangulate the piece so that the overlap is a full subcomplex"
    )


def test_glue_rejects_image_mismatch():
    # tau's image is nowhere near the carrier simplex: the inverse must fail
    t1 = upper_semicircle()
    t2 = gl.Triangulation(
        hm.SimplicialComplex([(0,)]),
        {(0,): point(5.0, 5.0)},
        marks={"B": {(0,)}},
    )
    G = gl.glue(t1, t2, {(0,): (0,)})  # construction is lazy; evaluation trips the inverse
    ev = next(e for e in G.evaluators.values() if isinstance(e, gl.GluedMap))
    with pytest.raises(gl.InputCompatibilityError):
        mid = np.full(ev.dim, 1.0 / (ev.dim + 1))
        ev.evaluate(mid)


def three_arc_pieces():
    # the closing arc carries two edges so that its two marked endpoints do
    # not share an edge (the B-condition)
    def one_edge(theta0, theta1):
        return gl.Triangulation(
            hm.SimplicialComplex([(0, 1)]),
            {
                (0, 1): arc(theta0, theta1),
                (0,): ch.ExprMap([f"cos({theta0})", f"sin({theta0})"], 0),
                (1,): ch.ExprMap([f"cos({theta1})", f"sin({theta1})"], 0),
            },
            marks={},
        )

    p1 = one_edge("0", "2/3*pi")
    p2 = one_edge("2/3*pi", "4/3*pi")
    p3 = gl.Triangulation(
        hm.SimplicialComplex([(0, 1), (1, 2)]),
        {
            (0, 1): arc("4/3*pi", "5/3*pi"),
            (1, 2): arc("5/3*pi", "2*pi"),
            (0,): ch.ExprMap(["cos(4/3*pi)", "sin(4/3*pi)"], 0),
            (1,): ch.ExprMap(["cos(5/3*pi)", "sin(5/3*pi)"], 0),
            (2,): ch.ExprMap(["1", "0"], 0),
        },
        marks={},
    )
    return p1, p2, p3


def test_cover_and_triangulate_two_arcs():
    G = gl.cover_and_triangulate(
        upper_semicircle(), [(lower_semicircle(), {(0,): (2,), (2,): (0,)})]
    )
    assert hm.homology(G.complex).betti == [1, 1]
    all_simplices = {s for d in range(G.complex.dim + 1) for s in G.complex.simplices[d]}
    tagged = G.marks.get("chart:0", set()) | G.marks.get("chart:1", set())
    assert all_simplices <= tagged


def test_cover_and_triangulate_three_arcs():
    p1, p2, p3 = three_arc_pieces()
    # step 1 joins arc 1 and arc 2 at the angle-2pi/3 point; afterwards the
    # accumulated ids are: 0, 1 from piece 2 and 2 for piece 1's free end
    # (second-piece ids survive a glue, first-piece ids shift past them)
    step1 = {(0,): (1,)}
    # step 2 closes the circle: piece 3 runs from angle 4pi/3 (its vertex 0)
    # back to angle 0 (its vertex 2)
    step2 = {(0,): (1,), (2,): (2,)}
    G = gl.cover_and_triangulate(p1, [(p2, step1), (p3, step2)])
    assert hm.homology(G.complex).betti == [1, 1]
    G.validate()
    # the glued loop really closes up on the unit circle
    for s in G.complex.simplices[0]:
        assert np.hypot(*G.evaluator_for(s).evaluate(np.zeros(0))) == pytest.approx(1.0, abs=1e-9)
    all_simplices = {s for d in range(G.complex.dim + 1) for s in G.complex.simplices[d]}
    tagged = set()
    for name, members in G.marks.items():
        if name.startswith("chart:"):
            tagged |= members
    assert all_simplices <= tagged


def test_cover_and_triangulate_leaves_inputs_alone():
    p1, p2, p3 = three_arc_pieces()
    G = gl.cover_and_triangulate(p1, [(p2, {(0,): (1,)}), (p3, {(0,): (1,), (2,): (2,)})])
    assert [p.marks for p in (p1, p2, p3)] == [{}, {}, {}]
    # the output is the one the in-place version produced
    assert {name: sorted(m) for name, m in G.marks.items()} == {
        "B": [(0,), (2,)],
        "chart:0": [(2, 3)],
        "chart:1": [(0, 3), (3,)],
        "chart:2": [(0,), (0, 1), (1,), (1, 2), (2,)],
    }
    assert sorted(G.complex.simplices[1]) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert sorted(G.evaluators) == sorted(s for d in (0, 1) for s in G.complex.simplices[d])


def test_single_piece_cover_is_identity():
    T = upper_semicircle()
    G = gl.cover_and_triangulate(T, [])
    assert G is T
