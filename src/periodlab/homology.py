"""Integer simplicial homology: sparse elimination of unit pivots, then the
Smith normal form of the small block that is left.

Everything is exact: boundary matrices have entries in {-1, 0, 1}, and all
arithmetic runs over Python's arbitrary-precision integers.  Orientation of an
abstract simplex is its increasing vertex order.

A complex adds every k-subset of each simplex to one set per dimension, then
sorts and indexes them.  ``homology`` builds each degree's boundary columns
once, as sparse dicts without the rows the degree below paired off.  A pivot
step clears the pivot's row from each other column in it by one loop over
the pivot column, which also updates the row index, and records the column
operation; representatives are lifted through the records in one backward
pass.
"""

from __future__ import annotations

import heapq
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
    "maximal_simplices",
]


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under faces.

    Simplices are strictly increasing vertex tuples, kept sorted per
    dimension so column/row bases are reproducible.
    """

    def __init__(self, simplices):
        faces: list[set] = []  # faces[d]: the d-simplices
        for s in simplices:
            s = tuple(sorted(s))
            if not s:
                raise ValueError("empty simplex")
            if len(set(s)) < len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
            faces += [set() for _ in range(len(s) - len(faces))]
            for k in range(len(s)):
                faces[k].update(itertools.combinations(s, k + 1))
        self.dim = len(faces) - 1
        self.simplices = {d: sorted(f) for d, f in enumerate(faces)}
        self._index = {d: dict(zip(s, range(len(s)))) for d, s in self.simplices.items()}

    def cells(self) -> list:
        """Every simplex, by dimension, then sorted order."""
        return [s for d in range(self.dim + 1) for s in self.simplices[d]]

    @property
    def vertices(self):
        return [v for (v,) in self.simplices.get(0, [])]

    def n_cells(self, d: int) -> int:
        return len(self.simplices.get(d, []))

    def __contains__(self, simplex):
        s = tuple(sorted(simplex))
        return s in self._index.get(len(s) - 1, {})

    def __repr__(self):
        counts = [self.n_cells(d) for d in range(self.dim + 1)]
        return f"<SimplicialComplex cells={counts}>"


def _boundary_columns(K: SimplicialComplex, d: int, drop=()) -> list:
    """The columns of ``boundary_matrix(K, d)`` as dicts, row -> nonzero
    entry, without the rows in ``drop``."""
    index, signs = K._index[d - 1], [(i, (-1) ** i) for i in range(d + 1)]
    return [{row: sign for i, sign in signs if (row := index[s[:i] + s[i + 1 :]]) not in drop}
            for s in K.simplices[d]]


def boundary_matrix(K: SimplicialComplex, d: int):
    """Integer matrix of the d-th boundary map, rows (d-1)-cells, columns
    d-cells; entry (F, s) = (-1)^i when F is s with vertex i removed."""
    if d < 1 or d > K.dim:
        raise ValueError(f"degree {d} out of range")
    cols = _boundary_columns(K, d)
    return [[col.get(i, 0) for col in cols] for i in range(K.n_cells(d - 1))]


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
    # U^-1 and V are kept transposed, so every operation on the four is on rows
    U, Uit, Vt, Vi = _identity(m), _identity(m), _identity(n), _identity(n)

    def row_add(dst, src, k):  # R_dst += k R_src; U^-1 takes the inverse column op
        for X, i, j, c in ((A, dst, src, k), (U, dst, src, k), (Uit, src, dst, -k)):
            X[i] = [a + c * b for a, b in zip(X[i], X[j])]

    def col_add(dst, src, k):  # C_dst += k C_src; V^-1 takes the inverse row op
        for row in A:
            row[dst] += k * row[src]
        for X, i, j, c in ((Vt, dst, src, k), (Vi, src, dst, -k)):
            X[i] = [a + c * b for a, b in zip(X[i], X[j])]

    def row_swap(i, j):
        for X in (A, U, Uit):
            X[i], X[j] = X[j], X[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for X in (Vt, Vi):
            X[i], X[j] = X[j], X[i]

    def clear_around(t):
        """Euclidean reduction of row/column t: move their least nonzero
        entry to the pivot, reduce both by it, repeat until both are clear.
        Always dividing by the least entry keeps the coefficients small."""
        while True:
            line = [(abs(A[i][t]), 0, i) for i in range(t, m) if A[i][t]]
            line += [(abs(A[t][j]), 1, j) for j in range(t + 1, n) if A[t][j]]
            if not line:
                break
            _, is_col, k = min(line)
            (col_swap if is_col else row_swap)(t, k)
            if len(line) == 1:
                break
            for i in range(t + 1, m):
                if A[i][t]:
                    row_add(i, t, -(A[i][t] // A[t][t]))
            for j in range(t + 1, n):
                if A[t][j]:
                    col_add(j, t, -(A[t][j] // A[t][t]))
        if A[t][t] < 0:
            for X in (A, U, Uit):
                X[t] = [-a for a in X[t]]

    rank = 0
    while True:  # pivot: least nonzero magnitude in the remaining block, first in row order
        block = [(abs(A[i][j]), i, j) for i in range(rank, m) for j in range(rank, n) if A[i][j]]
        if not block:
            break
        _, i, j = min(block)
        row_swap(rank, i)
        col_swap(rank, j)
        clear_around(rank)
        rank += 1
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
    Ui, V = ([list(col) for col in zip(*X)] for X in (Uit, Vt))
    return SNFResult(diag, U, Ui, V, Vi, rank)


def _mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


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


def _eliminate(cols: list) -> tuple:
    """Gaussian elimination of sparse integer columns (row -> entry dicts),
    in place, on +-1 pivots: shortest column first, on its unit entry in the
    shortest row, until no column left has a unit entry.  Returns the pivots
    (column -> row) and the column operations, in order: (x, b, c) for
    ``cols[x] += c * cols[b]``.  Non-pivot columns end as their Schur
    complement."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, {})[j] = None
    ops, pivots = [], {}
    heap = sorted((len(col), j) for j, col in enumerate(cols) if col)  # a sorted list is a heap
    while heap:
        n, b = heapq.heappop(heap)
        col = cols[b]
        if b in pivots or len(col) != n:
            continue  # stale entry: the column changed after it was queued
        units = [(len(rows[i]), i) for i, v in col.items() if v in (1, -1)]
        if not units:
            continue
        a = min(units)[1]
        pivots[b] = a
        for i in col:
            del rows[i][b]
        for x in rows.pop(a):
            cx = cols[x]
            c = -cx[a] * col[a]  # clears row a: col[a] is +-1
            for i, v in col.items():  # cx += c * col, the row index kept in step
                w = cx.get(i, 0) + c * v
                if w:
                    cx[i] = w
                    rows[i][x] = None
                else:
                    del cx[i]
                    if i != a:  # row a has left the index
                        del rows[i][x]
            ops.append((x, b, c))
            if cx:
                heapq.heappush(heap, (len(cx), x))
    return pivots, ops


def _lift(ops: list, coeffs: dict) -> dict:
    """The combination of original columns (column -> nonzero coefficient)
    whose image is the sum of coeffs[x] * cols[x] after the column
    operations ``ops``.  One backward pass, updating ``coeffs``: each
    ``cols[x] += c * cols[b]`` adds c times what b is the image of to what x
    is, and b was a pivot, never changed again, by then."""
    for x, b, c in reversed(ops):
        if x in coeffs:
            coeffs[b] = coeffs.get(b, 0) + c * coeffs[x]
    return {j: c for j, c in coeffs.items() if c}


def homology(K: SimplicialComplex) -> HomologyResult:
    """Betti numbers, torsion coefficients, and representative cycles.

    Each boundary map, on the rows the one below left, is eliminated on its
    unit pivots; the cells no pivot pairs off span a small chain complex with
    the same homology.  Per degree, the Smith normal form of its boundary
    block in kernel coordinates gives the torsion (diagonal entries > 1), the
    free generators (row operations) and the next kernel basis (column
    operations).  Generators lift to cycles of K through the elimination's
    column operations: a deterministic Z-basis of the free part."""
    left = [list(range(K.n_cells(0)))]  # cells no pivot has paired off
    blocks, ops, pivots = [], [[]], {}
    for d in range(1, K.dim + 1):
        # rows the degree below paired off (its pivot columns) are dropped
        cols = _boundary_columns(K, d, pivots)
        pivots, done = _eliminate(cols)
        paired = set(pivots.values())
        left[d - 1] = [x for x in left[d - 1] if x not in paired]
        left.append([x for x in range(len(cols)) if x not in pivots])
        blocks.append(cols)
        ops.append(done)
    betti, torsion, reps = [], {}, {}
    basis = coords = _identity(len(left[0]))  # kernel of the block below
    for d in range(K.dim + 1):
        above = left[d + 1] if d < K.dim else []
        B = _mat_mul(coords, [[blocks[d][x].get(i, 0) for x in above] for i in left[d]])
        r, torsion[d] = 0, []
        if any(map(any, B)):
            snf = smith_normal_form(B)
            r, torsion[d] = snf.rank, [x for x in snf.diagonal if x > 1]
            basis = _mat_mul(basis, snf.U_inv)
            next_basis, coords = [row[r:] for row in snf.V], snf.V_inv[r:]
        else:
            next_basis = coords = _identity(len(above))
        reps[d] = []
        for g in list(zip(*basis))[r:]:
            chain = _lift(ops[d], {x: c for x, c in zip(left[d], g) if c})
            reps[d].append([(K.simplices[d][i], c) for i, c in sorted(chain.items())])
        betti.append(len(reps[d]))
        basis = next_basis
    return HomologyResult(betti, torsion, reps)


def maximal_flags(K: SimplicialComplex):
    """(names, flags) for the barycentric subdivision of K: ``names`` numbers
    the simplices of K (the new vertices) by dimension, then sorted order;
    ``flags`` lists, for each maximal simplex in that order, every chain of
    codimension-one faces from it down to a vertex, top first, dropping the
    largest vertex first."""
    names = {s: i for i, s in enumerate(K.cells())}
    flags = [
        [tuple(sorted(order[k:])) for k in range(len(s))]
        for s in maximal_simplices(K)
        for order in itertools.permutations(reversed(s))
    ]
    return names, flags


def maximal_simplices(K: SimplicialComplex) -> list:
    """The simplices of K that are a face of no other one (as K is closed under
    faces: a facet of none), by dimension, then sorted order."""
    cells = K.cells()
    facets = {s[:i] + s[i + 1 :] for s in cells for i in range(len(s))}
    return [s for s in cells if s not in facets]


def barycentric_subdivide_complex(K: SimplicialComplex) -> SimplicialComplex:
    """Flag complex of the face poset: vertices are the simplices of K, top
    cells the maximal chains of proper faces below each maximal simplex."""
    names, flags = maximal_flags(K)
    return SimplicialComplex([tuple(names[s] for s in flag) for flag in flags])
