"""Integer simplicial homology via Smith normal form.

Everything is exact: boundary matrices have entries in {-1, 0, 1}, the Smith
reduction runs over Python's arbitrary-precision integers, and homology
generators come from the kernel lattice re-expressed so the image subgroup is
diagonal.  Orientation of an abstract simplex is its increasing vertex order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "SimplicialComplex",
    "SNFResult",
    "HomologyResult",
    "boundary_matrix",
    "smith_normal_form",
    "homology",
    "barycentric_subdivide_complex",
    "maximal_flags",
]


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under faces.

    Simplices are strictly increasing vertex tuples, kept sorted per
    dimension so column/row bases are reproducible.
    """

    def __init__(self, simplices):
        by_dim: dict[int, set] = {}
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not s:
                raise ValueError("empty simplex")
            for k in range(1, len(s) + 1):
                for face in itertools.combinations(s, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        self.dim = max(by_dim) if by_dim else -1
        self.simplices = {d: sorted(by_dim.get(d, ())) for d in range(self.dim + 1)}
        self._index = {
            d: {s: i for i, s in enumerate(self.simplices[d])} for d in range(self.dim + 1)
        }

    @property
    def vertices(self):
        return [v for (v,) in self.simplices.get(0, [])]

    def n_cells(self, d: int) -> int:
        return len(self.simplices.get(d, []))

    def index_of(self, simplex, d=None) -> int:
        s = tuple(sorted(simplex))
        return self._index[len(s) - 1][s]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.n_cells(d) for d in range(self.dim + 1))

    def __contains__(self, simplex):
        s = tuple(sorted(simplex))
        return s in self._index.get(len(s) - 1, {})

    def __repr__(self):
        counts = [self.n_cells(d) for d in range(self.dim + 1)]
        return f"<SimplicialComplex cells={counts}>"


def boundary_matrix(K: SimplicialComplex, d: int):
    """Integer matrix of the d-th boundary map, rows (d-1)-cells, columns
    d-cells; entry (F, s) = (-1)^i when F is s with vertex i removed."""
    if d < 1 or d > K.dim:
        raise ValueError(f"degree {d} out of range")
    rows = K.n_cells(d - 1)
    cols = K.n_cells(d)
    M = [[0] * cols for _ in range(rows)]
    for j, s in enumerate(K.simplices[d]):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            M[K._index[d - 1][face]][j] = (-1) ** i
    return M


@dataclass
class SNFResult:
    diagonal: list
    U: list
    U_inv: list
    V: list
    V_inv: list
    rank: int


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M) -> SNFResult:
    """U*M*V = diag(s_1 | s_2 | ...), U and V unimodular; exact arithmetic."""
    A = [row[:] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U, Ui = _identity(m), _identity(m)
    V, Vi = _identity(n), _identity(n)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        Ui_col_swap(i, j)

    def Ui_col_swap(i, j):
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def row_add(dst, src, k):
        # R_dst += k R_src  (U likewise; U_inv gets the inverse column op)
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]
        for r in range(m):
            Ui[r][src] -= k * Ui[r][dst]

    def col_add(dst, src, k):
        for r in range(m):
            A[r][dst] += k * A[r][src]
        for r in range(n):
            V[r][dst] += k * V[r][src]
        Vi[src] = [a - k * b for a, b in zip(Vi[src], Vi[dst])]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    def clear_around(t):
        """Euclidean reduction of row/column t until the pivot divides out."""
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t] != 0:  # remainder smaller than pivot: promote
                        row_swap(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
        if A[t][t] < 0:
            row_negate(t)

    t = 0
    while True:
        # minimal-magnitude nonzero pivot in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        clear_around(t)
        t += 1
    rank = t
    # enforce the divisibility chain: a violating pair (a, b) is replaced by
    # (gcd, lcm) by folding column k+1 into column k and re-reducing
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            if A[k + 1][k + 1] % A[k][k] != 0:
                changed = True
                col_add(k, k + 1, 1)
                clear_around(k)
                clear_around(k + 1)
    diag = [A[i][i] for i in range(min(m, n))]
    return SNFResult(diag, U, Ui, V, Vi, rank)


def _mat_mul(A, B):
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            out[i][j] = sum(Ai[t] * B[t][j] for t in range(k))
    return out


def _kernel_basis(M, n_cols):
    """Columns generating the integer kernel lattice of M (via SNF's V)."""
    if not M or not M[0]:
        return _identity(n_cols), None
    snf = smith_normal_form(M)
    basis = [[snf.V[r][c] for c in range(snf.rank, n_cols)] for r in range(n_cols)]
    return basis, snf


@dataclass
class HomologyResult:
    betti: list
    torsion: dict
    representatives: dict

    def to_dict(self):
        return {
            "betti": self.betti,
            "torsion": {str(d): t for d, t in self.torsion.items()},
            "representatives": {
                str(d): [
                    [{"simplex": list(s), "coeff": c} for s, c in rep] for rep in reps
                ]
                for d, reps in self.representatives.items()
            },
        }


def homology(K: SimplicialComplex) -> HomologyResult:
    """Betti numbers, torsion coefficients, and representative cycles.

    For each degree the kernel lattice of the boundary map is re-expressed so
    the image of the next boundary map becomes diagonal; basis vectors beyond
    the image rank generate the free part, diagonal entries > 1 its torsion.
    """
    betti = []
    torsion = {}
    reps = {}
    for d in range(K.dim + 1):
        n_d = K.n_cells(d)
        bd = boundary_matrix(K, d) if d >= 1 else []
        kernel, _ = _kernel_basis(bd, n_d)
        k_rank = len(kernel[0]) if kernel and kernel[0] is not None else 0
        if d + 1 <= K.dim:
            bd_next = boundary_matrix(K, d + 1)
        else:
            bd_next = []
        if not bd_next or not bd_next[0]:
            rank_next = 0
            betti.append(k_rank)
            torsion[d] = []
            gens = [[kernel[r][c] for r in range(n_d)] for c in range(k_rank)]
        else:
            # express image columns in kernel coordinates: kernel * B = bd_next
            snf_k = smith_normal_form(kernel)
            um = _mat_mul(snf_k.U, bd_next)
            B = [[0] * len(bd_next[0]) for _ in range(k_rank)]
            for i in range(k_rank):
                s = snf_k.diagonal[i]
                for j in range(len(bd_next[0])):
                    q, r = divmod(um[i][j], s)
                    if r != 0:
                        raise ArithmeticError("image does not lie in the kernel lattice")
                B[i] = [um[i][j] // s for j in range(len(bd_next[0]))]
            for i in range(k_rank, len(um)):
                if any(x != 0 for x in um[i]):
                    raise ArithmeticError("image does not lie in the kernel lattice")
            B = _mat_mul(snf_k.V, B)
            snf_b = smith_normal_form(B)
            rank_next = snf_b.rank
            betti.append(k_rank - rank_next)
            torsion[d] = [x for x in snf_b.diagonal[: snf_b.rank] if x > 1]
            new_basis = _mat_mul(kernel, snf_b.U_inv)
            gens = [
                [new_basis[r][c] for r in range(n_d)] for c in range(rank_next, k_rank)
            ]
        reps[d] = [
            [(K.simplices[d][r], g[r]) for r in range(n_d) if g[r] != 0] for g in gens
        ]
    return HomologyResult(betti, torsion, reps)


def maximal_flags(K: SimplicialComplex):
    """(names, flags) for the barycentric subdivision of K: ``names`` numbers
    the simplices of K (the new vertices) by dimension, then sorted order;
    ``flags`` lists, for each maximal simplex in that order, every chain of
    codimension-one faces from it down to a vertex, top first."""
    names = {}
    for d in range(K.dim + 1):
        for s in K.simplices[d]:
            names[s] = len(names)
    flags = []

    def descend(chain, s):
        if len(s) == 1:
            flags.append(chain + [s])
            return
        for f in itertools.combinations(s, len(s) - 1):
            descend(chain + [s], f)

    for s in names:
        d = len(s) - 1
        is_maximal = d == K.dim or all(
            tuple(sorted(set(s) | {v})) not in K._index[d + 1] for v in K.vertices if v not in s
        )
        if is_maximal:
            descend([], s)
    return names, flags


def barycentric_subdivide_complex(K: SimplicialComplex) -> SimplicialComplex:
    """Flag complex of the face poset: vertices are the simplices of K, top
    cells the maximal chains of proper faces below each maximal simplex."""
    names, flags = maximal_flags(K)
    return SimplicialComplex([tuple(names[s] for s in flag) for flag in flags])
