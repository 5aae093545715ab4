"""Period matrices: pairing homology cycles with closed forms by integration.

A cycle is accepted if its boundary cancels, either structurally (terms merge
to zero as chain elements) or geometrically (leftover boundary terms pair up
pointwise on a grid with opposite coefficients).  A form is accepted as
closed if its exterior derivative merges to zero symbolically, else if it
vanishes at 100 deterministic sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain, boundary, interior_grid
from .expr import values_or_fill
from .forms import Form, exterior_derivative
from .quad import QuadConfig, QuadResult, integrate_simplex

__all__ = [
    "GeometricCycle",
    "PeriodMatrix",
    "period_matrix",
    "chain_integral",
    "chain_vanishes_geometrically",
    "form_is_closed",
    "NotClosedError",
]


CANCEL_TOL = 1e-10  # terms within this of each other on the grid cancel
CLOSED_SAMPLES = 100  # points at which a numerically closed form must vanish


class NotClosedError(ValueError):
    """Input failed the closedness diagnostics."""


def chain_vanishes_geometrically(c: Chain) -> bool:
    """True when the chain's terms cancel up to pointwise-equal geometry.

    Structurally equal terms already merged in the Chain; what remains is
    grouped by comparing evaluations on an interior grid."""
    grid = interior_grid(c.degree)
    groups: list[list] = []  # [(fingerprint, coeff_sum)]
    for sigma, n in c.items():
        fp = sigma.evaluate_many(grid)
        for g in groups:
            if g[0].shape == fp.shape and np.abs(g[0] - fp).max() <= CANCEL_TOL:
                g[1] += n
                break
        else:
            groups.append([fp, n])
    return all(g[1] == 0 for g in groups)


def form_is_closed(omega: Form, rng_seed: int = 20260808) -> bool:
    dw = exterior_derivative(omega)
    if dw.is_zero():
        return True
    kept, values = _closed_samples(dw, rng_seed)
    return len(kept) == CLOSED_SAMPLES and bool((np.abs(values) <= 1e-8).all())


def _closed_samples(dw: Form, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the first CLOSED_SAMPLES of CLOSED_SAMPLES * 50 seeded
    candidates in [-2, 2]^n at which every coefficient of dw is defined and
    finite, and the coefficients there.  The candidates are drawn and
    evaluated in batches of CLOSED_SAMPLES * 2, in order, until enough of
    them are finite; a batch that raises (a form with a hole in its domain)
    is evaluated one candidate at a time."""
    rng = np.random.default_rng(rng_seed)
    size = CLOSED_SAMPLES * 2
    kept, rows, found = [], [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is outside the domain too
        for start in range(0, CLOSED_SAMPLES * 50, size):
            points = rng.uniform(-2.0, 2.0, (size, dw.ambient))
            values = values_or_fill(dw.coefficients_many, points, np.nan, len(dw.terms))
            ok = np.flatnonzero(np.isfinite(values).all(axis=1))
            kept.append(start + ok)
            rows.append(values[ok])
            found += len(ok)
            if found >= CLOSED_SAMPLES:
                break
    return np.concatenate(kept)[:CLOSED_SAMPLES], np.concatenate(rows)[:CLOSED_SAMPLES]


@dataclass
class GeometricCycle:
    name: str
    chain: Chain

    def check_closed(self):
        if self.chain.degree == 0:
            return
        if not chain_vanishes_geometrically(boundary(self.chain)):
            raise NotClosedError(f"cycle {self.name!r}: boundary does not cancel")


@dataclass
class PeriodMatrix:
    cycle_names: list
    form_names: list
    entries: list  # rows of QuadResult

    def values(self) -> np.ndarray:
        return np.array([[e.value for e in row] for row in self.entries])

    def all_converged(self) -> bool:
        return all(e.converged for row in self.entries for e in row)

    def to_dict(self):
        return {
            "cycles": self.cycle_names,
            "forms": self.form_names,
            "values": [[e.value for e in row] for row in self.entries],
            "error_estimates": [[e.error_estimate for e in row] for row in self.entries],
            "diagnostics": [[e.diagnostics() for e in row] for row in self.entries],
            "converged": self.all_converged(),
        }


def chain_integral(
    c: Chain, omega: Form, tol: float = 1e-8, config: QuadConfig | None = None
) -> QuadResult:
    """Integral of omega over a chain: coefficient-weighted simplex integrals."""
    if omega.degree != c.degree:
        raise ValueError(f"chain_integral needs a degree-{c.degree} form, got degree {omega.degree}")
    value = err = absint = 0.0
    splits = calls = cells = points = depth = frozen = 0
    results = []
    for sigma, n in c.items():
        r = integrate_simplex(sigma, omega, tol, config)
        value += n * r.value
        err += abs(n) * r.error_estimate
        absint += abs(n) * r.abs_integral_estimate
        splits += r.subdivisions
        calls += r.density_calls
        cells += r.cells
        points += r.points
        depth = max(depth, r.max_depth_reached)
        frozen += r.frozen_cells
        results.append(r)
    conv = all(r.converged for r in results)
    # the chain stops for the reason of its first term that missed tol
    reason = next((r.stop_reason for r in results if r.stop_reason != "tol"), "tol")
    diverging = any(r.diverging for r in results)
    return QuadResult(value, err, absint, conv, splits, diverging, reason, calls, cells, points,
                      depth, frozen)


def period_matrix(
    cycles: list,
    forms: list,
    tol: float = 1e-8,
    config: QuadConfig | None = None,
    jobs: int = 1,
    check_seed: int = 20260808,
) -> PeriodMatrix:
    """Pair each cycle with each closed form of ``forms``, a list of (name,
    Form) pairs; rejects non-cycles and non-closed forms with diagnostics.
    Entries are integrated one after another; ``jobs`` is accepted and has
    no effect."""
    for cyc in cycles:
        cyc.check_closed()
    for name, w in forms:
        if not form_is_closed(w, rng_seed=check_seed):
            raise NotClosedError(f"form {name!r} is not closed")
    entries = [[chain_integral(cyc.chain, w, tol, config) for _, w in forms] for cyc in cycles]
    return PeriodMatrix([c.name for c in cycles], [n for n, _ in forms], entries)
