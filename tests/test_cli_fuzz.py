"""The exit-code contract under fuzzing: README-style commands on mutated
reference manifests end 0, 1 or 2, with no exception escaping, an ``error:``
line on exit 2, and within a time bound.

A case applies one or two mutations to one input file of a command: a value
replaced by one of ``LEAVES``, a key deleted, or a list element duplicated.
Three mutations in four instead replace a value under one of ``NUMERIC``
(where a manifest keeps its expressions, dimensions, coefficients, vertex
coordinates and glue table), a number by one of ``NUMBERS`` and an expression
string by one of ``EXPRESSIONS``, so that most cases get past loading into
the numeric code.
Hypothesis draws the cases deterministically (``derandomize=True``)."""

import contextlib
import copy
import functools
import io
import json
import operator
import pathlib
import signal
import tempfile
import time

from hypothesis import given, settings, strategies as st

from periodlab import cli

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"
QUAD = ["--tol", "1e-3", "--max-depth", "6"]
# each command names its input files by their name in manifests/
COMMANDS = [
    ["check-volume", "circle.json", "--simplex", "sqrt_graph", "--faces", *QUAD],
    ["check-volume", "circle.json", "--simplex", "upper_sqrt", *QUAD],
    ["check-stokes", "square.json", "--chain", "square", "--form", "x_dy", *QUAD],
    ["check-stokes", "circle.json", "--simplex", "sqrt_graph", "--form", "f_xy", *QUAD],
    ["periods", "circle.json", "--cycles", "gamma,gamma_semialg", "--forms", "dtheta,d_xy", *QUAD],
    ["periods", "torus.json", "--cycles", "cycle_a,cycle_b", "--forms", "dtheta_1,exact_1", *QUAD],
    ["cone", "circle.json", "--simplex", "sqrt_graph"],
    ["subdivide", "circle.json", "--chain", "gamma"],
    ["subdivide", "torus.json", "--complex", "T7"],
    ["homology", "torus.json", "--complex", "T7"],
    ["homology", "complexes.json", "--complex", "rp2_6"],
    ["glue", "circle_upper.json", "circle_lower.json", "--table", "circle_btable.json"],
]
LEAVES = [None, -1, 10**6, "", [], {}, "sqrt(-1)", True, False]
NUMERIC = {"components", "coeff", "dim", "vertices", "containment"}
NUMBERS = [0, 2, -1, 0.5, 10**6, 1e300]
EXPRESSIONS = ["0", "1/t", "log(t)", "t^(1/3)", "t*sin(1/t)", "sqrt(t - 1/2)", "exp(1000*t)"]
FINISHES_WITHIN_S = 10.0


class _Overran(BaseException):
    """Raised by the alarm; no handler of the CLI catches it."""


def _paths(node, path=()):
    """The path and value of everything below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _like(value):
    """The replacements drawn for ``value`` under a NUMERIC key."""
    if isinstance(value, str):
        return EXPRESSIONS
    return NUMBERS if isinstance(value, (int, float)) and not isinstance(value, bool) else LEAVES


def _mutate(doc, data):
    """``doc`` with one value replaced, key deleted or list element duplicated."""
    below = list(_paths(doc))
    numeric = [p for p, v in below if NUMERIC.intersection(p) and _like(v) is not LEAVES]
    if numeric and data.draw(st.integers(0, 3)):
        *head, key = data.draw(st.sampled_from(numeric))
        parent = functools.reduce(operator.getitem, head, doc)
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_like(parent[key]))))
        return doc
    path = data.draw(st.sampled_from([(), *(p for p, _ in below)]))
    if not path:
        return copy.deepcopy(data.draw(st.sampled_from(LEAVES)))
    *head, key = path
    parent = functools.reduce(operator.getitem, head, doc)
    kind = data.draw(st.sampled_from(["replace", "delete" if isinstance(parent, dict) else "duplicate"]))
    if kind == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(LEAVES)))
    elif kind == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _on_alarm(signum, frame):
    raise _Overran(f"a case ran past {FINISHES_WITHIN_S} s")


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.data())
def test_mutated_manifests_keep_the_exit_code_contract(data):
    argv = data.draw(st.sampled_from(COMMANDS))
    files = [a for a in argv if a.endswith(".json")]
    target = data.draw(st.sampled_from(files))
    doc = json.loads((MANIFESTS / target).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate(doc, data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        mutated = pathlib.Path(tmp) / target
        mutated.write_text(json.dumps(doc))
        args = [str(mutated if a == target else MANIFESTS / a) if a in files else a for a in argv]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, FINISHES_WITHIN_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(args + ["--deterministic"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < FINISHES_WITHIN_S
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error:"), err.getvalue()
