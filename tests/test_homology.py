import contextlib
import itertools
import math
import random
import re
import signal

import pytest
from hypothesis import given, settings, strategies as st

from periodlab import homology as hm


def hollow_triangle():
    return hm.SimplicialComplex([(0, 1), (1, 2), (0, 2)])


def torus_7():
    tris = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return hm.SimplicialComplex(tris)


def rp2_6():
    return hm.SimplicialComplex(
        [
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
            (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
        ]
    )


def sphere():
    return hm.SimplicialComplex(list(itertools.combinations(range(4), 3)))


def wedge(A, B):
    """A and B glued at their smallest vertices; B's other vertices are moved
    past A's."""
    shift = max(A.vertices) + 1
    joint, base = A.vertices[0], B.vertices[0]

    def moved(v):
        return joint if v == base else v + shift

    tops = [A.simplices[d] for d in range(A.dim + 1)] + [
        [tuple(moved(v) for v in s) for s in B.simplices[d]] for d in range(B.dim + 1)
    ]
    return hm.SimplicialComplex([s for group in tops for s in group])


def moore_3():
    """Mod-3 Moore space: a disk whose boundary 9-gon wraps three times
    around the triangle (0, 1, 2); H_1 = Z/3."""
    tris = []
    for i in range(9):
        c, c1, u, u1 = i % 3, (i + 1) % 3, 3 + i, 3 + (i + 1) % 9
        tris += [(c, c1, u), (c1, u, u1), (u, u1, 12)]
    return hm.SimplicialComplex(tris)


def suspension(K):
    """Two cones over K glued along it: H_d of the suspension is the reduced
    H_{d-1} of K."""
    north, south = max(K.vertices) + 1, max(K.vertices) + 2
    return hm.SimplicialComplex([s + (apex,) for s in hm.maximal_simplices(K) for apex in (north, south)])


def dense_homology(K):
    """Reference: the dense algorithm.  Kernel lattice from the SNF's V, the
    next boundary map in kernel coordinates, and a second SNF whose U^-1
    re-expresses the kernel basis so the image becomes diagonal."""
    betti, torsion, reps = [], {}, {}
    for d in range(K.dim + 1):
        n_d = K.n_cells(d)
        bd = hm.boundary_matrix(K, d) if d >= 1 else []
        if not bd or not bd[0]:
            kernel = hm._identity(n_d)
        else:
            snf = hm.smith_normal_form(bd)
            kernel = [[snf.V[r][c] for c in range(snf.rank, n_d)] for r in range(n_d)]
        k_rank = len(kernel[0]) if kernel else 0
        bd_next = hm.boundary_matrix(K, d + 1) if d + 1 <= K.dim else []
        if not bd_next or not bd_next[0]:
            betti.append(k_rank)
            torsion[d] = []
            gens = [[kernel[r][c] for r in range(n_d)] for c in range(k_rank)]
        else:
            snf_k = hm.smith_normal_form(kernel)
            um = hm._mat_mul(snf_k.U, bd_next)
            B = []
            for i in range(k_rank):
                assert all(x % snf_k.diagonal[i] == 0 for x in um[i])
                B.append([x // snf_k.diagonal[i] for x in um[i]])
            assert all(x == 0 for row in um[k_rank:] for x in row)
            snf_b = hm.smith_normal_form(hm._mat_mul(snf_k.V, B))
            betti.append(k_rank - snf_b.rank)
            torsion[d] = [x for x in snf_b.diagonal[: snf_b.rank] if x > 1]
            new_basis = hm._mat_mul(kernel, snf_b.U_inv)
            gens = [[new_basis[r][c] for r in range(n_d)] for c in range(snf_b.rank, k_rank)]
        reps[d] = [[(K.simplices[d][r], g[r]) for r in range(n_d) if g[r] != 0] for g in gens]
    return hm.HomologyResult(betti, torsion, reps)


def check_against_dense(K):
    """Sparse and dense homology agree on Betti numbers and torsion; every
    representative is a cycle, and the representatives generate the free
    part: [boundary_{d+1} | reps] has rank rank(boundary_{d+1}) + betti_d and
    its invariant factors > 1 are exactly the torsion."""
    h, ref = hm.homology(K), dense_homology(K)
    assert h.betti == ref.betti
    assert h.torsion == ref.torsion
    for d, reps in h.representatives.items():
        assert len(reps) == h.betti[d]
        vecs = []
        index = {s: i for i, s in enumerate(K.simplices[d])}
        for rep in reps:
            assert [index[s] for s, _ in rep] == sorted(index[s] for s, _ in rep)
            vec = [0] * K.n_cells(d)
            for simplex, coeff in rep:
                assert coeff != 0
                vec[index[simplex]] = coeff
            if d >= 1:
                M = hm.boundary_matrix(K, d)
                assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in M)
            vecs.append(vec)
        bd = hm.boundary_matrix(K, d + 1) if d < K.dim else [[] for _ in range(K.n_cells(d))]
        rank_bd = hm.smith_normal_form(bd).rank if bd and bd[0] else 0
        joined = [row + [v[i] for v in vecs] for i, row in enumerate(bd)]
        snf = hm.smith_normal_form(joined) if joined and joined[0] else None
        assert (snf.rank if snf else 0) == rank_bd + h.betti[d]
        assert [x for x in (snf.diagonal[: snf.rank] if snf else []) if x > 1] == h.torsion[d]


def test_complex_closure_and_ordering():
    K = hm.SimplicialComplex([(2, 0, 1)])
    assert K.simplices[0] == [(0,), (1,), (2,)]
    assert K.simplices[1] == [(0, 1), (0, 2), (1, 2)]
    assert (0, 1) in K and (0, 1, 2) in K


def test_complex_rejects_an_empty_simplex_and_a_repeated_vertex():
    # (0, 0, 1) was read as the edge (0, 1)
    for tops, message in (([()], "empty simplex"), ([(0, 0, 1), (1, 2)], "repeated vertex in simplex (0, 0, 1)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            hm.SimplicialComplex(tops)


def test_boundary_matrix_hollow_triangle():
    K = hollow_triangle()
    M = hm.boundary_matrix(K, 1)
    assert len(M) == 3 and len(M[0]) == 3
    for j in range(3):
        assert sum(M[i][j] for i in range(3)) == 0  # each edge: head - tail


def test_boundary_composition_vanishes():
    for K in (hm.SimplicialComplex([(0, 1, 2)]), torus_7(), rp2_6()):
        for d in range(2, K.dim + 1):
            m1 = hm.boundary_matrix(K, d - 1)
            m2 = hm.boundary_matrix(K, d)
            prod = hm._mat_mul(m1, m2)
            assert all(all(x == 0 for x in row) for row in prod)


def test_torus_boundary_matrix_shape_and_incidence():
    K = torus_7()
    M = hm.boundary_matrix(K, 2)
    assert len(M) == 21 and len(M[0]) == 14
    for row in M:  # every edge lies in exactly two triangles
        nz = [x for x in row if x != 0]
        assert len(nz) == 2 and all(abs(x) == 1 for x in nz)


def test_snf_examples():
    s = hm.smith_normal_form([[2, 0], [0, 3]])
    assert s.diagonal == [1, 6]
    s = hm.smith_normal_form([[0, 0], [0, 0]])
    assert s.diagonal == [0, 0] and s.rank == 0
    s = hm.smith_normal_form(hm.boundary_matrix(hollow_triangle(), 1))
    assert s.diagonal == [1, 1, 0]


def assert_smith_form(M, s):
    """U M V = D with D diagonal, nonnegative and a divisibility chain;
    U and V invertible with the returned inverses."""
    m, n = len(M), len(M[0])
    S = hm._mat_mul(hm._mat_mul(s.U, M), s.V)
    for i in range(m):
        for j in range(n):
            want = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
            assert S[i][j] == want
    nz = [x for x in s.diagonal if x != 0]
    assert len(nz) == s.rank
    assert all(x > 0 for x in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    assert hm._mat_mul(s.U, s.U_inv) == hm._identity(m)
    assert hm._mat_mul(s.V, s.V_inv) == hm._identity(n)


@contextlib.contextmanager
def finishes_within(seconds):
    """Fail with TimeoutError, rather than hang, when the body runs long."""

    def timeout(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_snf_properties_random():
    # dense matrices up to 7 x 7: large enough for a poor choice of Euclid
    # divisor to blow the coefficients up
    rng = random.Random(42)
    with finishes_within(30):
        for _ in range(400):
            m = rng.randint(1, 7)
            n = rng.randint(1, 7)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            assert_smith_form(M, hm.smith_normal_form(M))


def test_snf_dense_matrix_finishes():
    # reducing by each remainder as it appears, rather than by the least
    # entry of the row and column, grows these entries past 2^129 by the
    # fourth pivot
    M = [
        [0, 0, 0, -4, 2], [4, 5, 5, -2, -1], [8, -9, 0, 0, -4], [0, 5, 0, 2, -4],
        [-5, -2, -4, 6, 0], [8, -9, 0, 0, 0], [3, 6, 7, 9, -8],
    ]
    with finishes_within(2):
        s = hm.smith_normal_form(M)
    assert_smith_form(M, s)
    assert s.diagonal == [1, 1, 1, 1, 2]


def test_homology_classics():
    assert hm.homology(hollow_triangle()).betti == [1, 1]
    assert hm.homology(hm.SimplicialComplex([(0, 1, 2)])).betti == [1, 0, 0]
    assert hm.homology(sphere()).betti == [1, 0, 1]
    h = hm.homology(torus_7())
    assert h.betti == [1, 2, 1]
    assert all(not t for t in h.torsion.values())
    h = hm.homology(rp2_6())
    assert h.betti == [1, 0, 0]
    assert h.torsion[1] == [2]
    h = hm.homology(wedge(rp2_6(), rp2_6()))
    assert h.betti == [1, 0, 0]
    assert h.torsion[1] == [2, 2]
    h = hm.homology(moore_3())
    assert h.betti == [1, 0, 0]
    assert h.torsion[1] == [3]


def test_representatives_are_cycles():
    for K in (hollow_triangle(), torus_7(), rp2_6(), sphere()):
        h = hm.homology(K)
        for d, reps in h.representatives.items():
            if d == 0:
                continue
            M = hm.boundary_matrix(K, d)
            index = {s: i for i, s in enumerate(K.simplices[d])}
            for rep in reps:
                vec = [0] * K.n_cells(d)
                for simplex, coeff in rep:
                    vec[index[simplex]] = coeff
                out = [sum(M[i][j] * vec[j] for j in range(len(vec))) for i in range(len(M))]
                assert all(x == 0 for x in out)


def test_betti_invariant_under_subdivision():
    for K in (hollow_triangle(), rp2_6(), sphere()):
        Ksd = hm.barycentric_subdivide_complex(K)
        assert hm.homology(Ksd).betti == hm.homology(K).betti
        assert hm.homology(Ksd).torsion == hm.homology(K).torsion


def test_subdivision_counts():
    K = hm.SimplicialComplex([(0, 1, 2)])
    Ksd = hm.barycentric_subdivide_complex(K)
    assert Ksd.n_cells(2) == 6
    assert Ksd.n_cells(0) == 7
    # non-pure complex: a triangle with a dangling edge
    K2 = hm.SimplicialComplex([(0, 1, 2), (2, 3)])
    K2sd = hm.barycentric_subdivide_complex(K2)
    assert hm.homology(K2sd).betti == hm.homology(K2).betti


def test_euler_characteristic_matches_betti():
    for K in (hollow_triangle(), torus_7(), rp2_6(), sphere()):
        h = hm.homology(K)
        assert sum((-1) ** d * K.n_cells(d) for d in range(K.dim + 1)) == sum(
            (-1) ** d * b for d, b in enumerate(h.betti)
        )


def test_boundary_matrix_degree_out_of_range():
    with pytest.raises(ValueError):
        hm.boundary_matrix(hollow_triangle(), 2)
    with pytest.raises(ValueError):
        hm.boundary_matrix(hollow_triangle(), 0)


@pytest.mark.parametrize(
    "make",
    [
        hollow_triangle, torus_7, rp2_6, sphere, moore_3,
        lambda: wedge(rp2_6(), rp2_6()),
        lambda: wedge(hollow_triangle(), rp2_6()),
        lambda: wedge(rp2_6(), suspension(rp2_6())),
        lambda: wedge(moore_3(), torus_7()),
        lambda: wedge(sphere(), hm.SimplicialComplex([(0, 1), (1, 2), (0, 2), (2, 3)])),
        lambda: hm.barycentric_subdivide_complex(rp2_6()),
        lambda: hm.barycentric_subdivide_complex(hm.SimplicialComplex([(0, 1, 2), (2, 3), (3, 4), (2, 4)])),
    ],
)
def test_sparse_matches_dense_reference_on_fixtures(make):
    check_against_dense(make())


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 8))
    simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    K = hm.SimplicialComplex(draw(st.lists(simplex, min_size=1, max_size=8)))
    extra = draw(st.sampled_from([None, rp2_6, moore_3, hollow_triangle]))
    if extra is not None:
        K = wedge(K, extra())
    elif sum(K.n_cells(d) for d in range(K.dim + 1)) <= 30 and draw(st.booleans()):
        K = hm.barycentric_subdivide_complex(K)
    return K


@settings(max_examples=80, deadline=None)
@given(small_complexes())
def test_sparse_matches_dense_reference_random(K):
    check_against_dense(K)


def test_leftover_block_stays_small_on_subdivided_torus(monkeypatch):
    # unit pivots take out all but the cells that carry homology, so the
    # dense Smith form never sees the complex itself (the dense algorithm
    # passed it the 252 x 756 boundary map)
    K = hm.barycentric_subdivide_complex(hm.barycentric_subdivide_complex(torus_7()))
    sides = []
    snf = hm.smith_normal_form

    def recording(M):
        sides.append(max(len(M), len(M[0]) if M else 0))
        return snf(M)

    monkeypatch.setattr(hm, "smith_normal_form", recording)
    assert hm.homology(K).betti == [1, 2, 1]
    assert max(sides, default=0) <= 10
    sides.clear()
    assert hm.homology(hm.barycentric_subdivide_complex(rp2_6())).torsion[1] == [2]
    assert sides and max(sides) <= 10


def test_maximal_flags_match_brute_force():
    fixtures = [
        hollow_triangle(), torus_7(), rp2_6(), sphere(), moore_3(),
        hm.SimplicialComplex([(0, 1, 2), (2, 3)]),
        hm.SimplicialComplex([(0, 1, 2), (3, 4), (4, 5), (3, 5), (6,)]),
    ]
    for K in fixtures:
        cells = [s for d in range(K.dim + 1) for s in K.simplices[d]]
        brute = [s for s in cells if not any(set(s) < set(t) for t in cells)]
        assert hm.maximal_simplices(K) == brute
        names, flags = hm.maximal_flags(K)
        assert list(names) == cells
        want = []
        for s in brute:
            for order in itertools.permutations(s):
                want.append([tuple(sorted(order[k:])) for k in range(len(s))])
        assert sorted(flags) == sorted(want)
        assert [f[0] for f in flags] == [s for s in brute for _ in range(math.factorial(len(s)))]
