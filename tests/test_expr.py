import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from periodlab import chains as ch
from periodlab import expr as ex


def test_parse_add_mul():
    e = ex.parse("a1 + 2*a2", 2)
    assert e == ex.Expr("add", (ex.var(1), ex.Expr("mul", (ex.const(2), ex.var(2)))))


def test_parse_sqrt():
    assert ex.parse("sqrt(a1)", 1) == ex.func("sqrt", ex.var(1))


def test_parse_out_of_range_variable():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("a3", 2)


def test_parse_unknown_identifier_offset():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("a1 + foo(a1)", 1)
    assert err.value.offset == 5


def test_parse_syntax_error_offset():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("a1 + ", 1)
    assert err.value.offset == 5


def test_a_digit_that_is_not_decimal_is_a_syntax_error_at_its_offset():
    # str.isdigit accepts "²" and "³", but int() and Fraction() do not
    for text, offset in (("t+²", 2), ("1³", 1), ("a1 + ³", 5), ("1/2²", 3)):
        with pytest.raises(ex.ExprSyntaxError) as err:
            ex.parse(text, 1)
        assert err.value.offset == offset, text
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("a1²", 1)
    assert (err.value.offset, "unknown identifier 'a1²'" in str(err.value)) == (0, True)


def test_syntax_errors_quote_the_source_text():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("(2 3", 1)
    assert str(err.value) == "expected ')', found '3' (at offset 3)"
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("t^(1/2", 1)
    assert str(err.value) == "expected ')', found end of input (at offset 6)"
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("a1 + 2.50 7/2", 1)
    assert str(err.value) == "trailing input '7/2' (at offset 10)"
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("a1 * ", 1)
    assert str(err.value) == "expected an operand, found end of input (at offset 5)"


def test_decimal_literals_are_exact():
    for text, q in (("1.25", Fraction(5, 4)), (".5", Fraction(1, 2)), ("3.", Fraction(3)),
                    ("0.1", Fraction(1, 10)), ("007.500", Fraction(15, 2)), ("٣.٥", Fraction(7, 2))):
        e = ex.parse(text, 1)
        assert (e.kind, e.value, type(e.value)) == ("const", q, Fraction), text


def test_nodes_are_immutable_and_rebuild_when_pickled():
    e = ex.parse("sin(a1)^2/3 + 1.25*a2", 2)
    with pytest.raises(AttributeError):
        e.kind = "sub"
    with pytest.raises(AttributeError):
        del e.args
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and hash(copy) == hash(e) and repr(copy) == repr(e) and copy is not e
    # equal values hash alike, whatever their number type
    assert ex.Expr("const", value=2) == ex.const(2) and hash(ex.Expr("const", value=2)) == hash(ex.const(2))
    with pytest.raises(ValueError):
        ex.Expr("tan", (e,))


def test_a_node_hashes_once_at_construction_and_pickles_across_processes():
    # the hash is set when the node is built, from its children's; a pickle
    # rebuilds the nodes, so a process with other string hashes gets its own
    e = ex.parse("sin(a1)^2/3 + 1.25*a2", 2)
    assert e._hash == hash(("add", e.args, None)) and e.args[0]._hash == hash(e.args[0])
    assert e != ex.parse("sin(a1)^2/3 + 1.25*a1", 2)
    code = ("import pickle, sys; from periodlab import expr as ex; e = pickle.loads(sys.stdin.buffer.read()); "
            "f = ex.parse('sin(a1)^2/3 + 1.25*a2', 2); assert e == f and hash(e) == hash(f)")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], input=pickle.dumps(e), env=env, check=True)


def test_t_is_alias_for_a1():
    assert ex.parse("t*t", 1) == ex.parse("a1*a1", 1)


def test_rational_literal_binds_tightly():
    assert ex.parse("3/2", 1) == ex.const(Fraction(3, 2))
    # but division by a variable is still division
    assert ex.parse("1/a1", 1).kind == "div"


def test_eval_examples():
    assert ex.compile_expr(ex.parse("a1*a1", 1))((0.5,)) == 0.25
    assert ex.compile_expr(ex.parse("sqrt(a1)", 1))((0.0,)) == 0.0
    with pytest.raises(ex.ExprDomainError):
        ex.compile_expr(ex.parse("1/a1", 1))((0.0,))


def test_eval_domain_errors_carry_subexpression():
    with pytest.raises(ex.ExprDomainError) as err:
        ex.compile_expr(ex.parse("log(a1 - 2)", 1))((1.0,))
    assert "log" in str(err.value)


def test_pow_zero_base_conventions():
    e = ex.parse("a1^(1/2)", 1)
    assert ex.compile_expr(e)((0.0,)) == 0.0
    with pytest.raises(ex.ExprDomainError):
        ex.compile_expr(ex.parse("a1^(-1/2)", 1))((0.0,))
    with pytest.raises(ex.ExprDomainError):
        ex.compile_expr(ex.parse("a1^(1/2)", 1))((-1.0,))


def test_diff_power_rule():
    d = ex.diff(ex.parse("a1^(3/2)", 1), 1)
    assert d == ex.Expr("mul", (ex.const(Fraction(3, 2)), ex.Expr("pow", (ex.var(1),), Fraction(1, 2))))


def test_diff_product_rule():
    d = ex.diff(ex.parse("sin(a1)*a2", 2), 1)
    assert ex.to_string(d) == "cos(a1)*a2"


def test_diff_sqrt_at_quarter():
    d = ex.diff(ex.parse("sqrt(a1)", 1), 1)
    # finite-difference oracle at 0.25, step 1e-6
    e = ex.parse("sqrt(a1)", 1)
    h = 1e-6
    f, df = ex.compile_expr(e), ex.compile_expr(d)
    fd = (f((0.25 + h,)) - f((0.25 - h,))) / (2 * h)
    assert abs(df((0.25,)) - fd) <= 1e-6
    assert abs(df((0.25,)) - 1.0) <= 1e-12


# -- the lexer against a reference ---------------------------------------


class _Lexer:
    """The character-loop lexer the regex lexer replaced, kept as its
    reference: str.isdigit starts a number, and Fraction() reads it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, object, int]] = []
        self._run()

    def _run(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            start = i
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                after_caret = bool(self.tokens) and self.tokens[-1][0] == "^"
                i = self._number(i, allow_rational=not after_caret)
            elif c.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], start))
                i = j
            elif c in "+-*/^()":
                self.tokens.append((c, c, start))
                i += 1
            else:
                raise ex.ExprSyntaxError(f"unexpected character {c!r}", start)
        self.tokens.append(("end", None, n))

    def _number(self, i: int, allow_rational: bool = True) -> int:
        text = self.text
        n = len(text)
        start = i
        while i < n and text[i].isdigit():
            i += 1
        is_decimal = False
        if i < n and text[i] == ".":
            is_decimal = True
            i += 1
            while i < n and text[i].isdigit():
                i += 1
        lit = text[start:i]
        if allow_rational and not is_decimal and i < n and text[i] == "/":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j > i + 1 and not (j < n and (text[j] == "." or text[j].isalpha())):
                q = int(text[i + 1 : j])
                if q == 0:
                    raise ex.ExprSyntaxError("rational literal with zero denominator", start)
                self.tokens.append(("number", Fraction(int(lit), q), start))
                return j
        self.tokens.append(("number", Fraction(lit), start))
        return i


def _lex_outcome(lex, text):
    """Tokens as (kind, value, offset), or ("syntax", offset), or ("value",)."""
    try:
        return [(kind, val, type(val), off) for kind, val, off, *_ in lex(text)]
    except ex.ExprSyntaxError as err:
        return ("syntax", err.offset)
    except ValueError:
        return ("value",)


# the DSL's alphabet, a few whole words, and digits and spaces from outside ASCII
_PIECES = list("0123456789./+-*^() at_x") + ["sqrt", "pi", "a12", "²", "³", "٣", "১", "½", "Ⅻ", "\u00a0", "\u2003", "\t"]


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(text=st.lists(st.sampled_from(_PIECES), max_size=10).map("".join))
def test_regex_lexer_matches_the_reference_lexer(text):
    ref = _lex_outcome(lambda t: _Lexer(t).tokens, text)
    new = _lex_outcome(ex._lex, text)
    if ref == ("value",):
        assert new[0] == "syntax"
    elif new != ref:
        # the reference read "6³/0" as one literal and failed on its zero
        # denominator, at 0; a digit that is not decimal now fails first, at 1
        assert ref[0] == "syntax"
        odd = (i for i in range(ref[1], len(text)) if text[i].isdigit() and not text[i].isdecimal())
        assert new == ("syntax", next(odd))


# -- generators ------------------------------------------------------------

# expressions guaranteed smooth on the open box (0,1)^arity: denominators and
# the arguments of sqrt/log stay >= 1
def _safe_exprs(arity, depth):
    leaf = st.one_of(
        st.integers(min_value=1, max_value=arity).map(ex.var),
        st.fractions(min_value=Fraction(-2), max_value=Fraction(2)).map(ex.const),
        st.just(ex.pi),
    )
    if depth == 0:
        return leaf
    sub = _safe_exprs(arity, depth - 1)

    def positive(e):
        return ex.add(ex.const(1), ex.mul(e, e))

    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda ab: ex.add(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.sub(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.mul(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.div(ab[0], positive(ab[1]))),
        sub.map(lambda e: ex.func("sin", e)),
        sub.map(lambda e: ex.func("cos", e)),
        sub.map(lambda e: ex.func("atan", e)),
        sub.map(lambda e: ex.func("sqrt", positive(e))),
        sub.map(lambda e: ex.func("log", positive(e))),
        sub.map(lambda e: ex.pow_(positive(e), Fraction(3, 2))),
        sub.map(lambda e: ex.pow_(e, 2)),
    )


@settings(max_examples=200, deadline=None)
@given(e=_safe_exprs(2, 3))
def test_print_parse_roundtrip(e):
    assert ex.parse(ex.to_string(e), 2) == e


def test_print_keeps_an_integer_apart_from_the_divisor_after_it():
    # printed as "cos(pi)/2/2", the "2/2" lexed as the rational literal 1
    a1 = ex.var(1)
    for e in (
        ex.div(ex.div(ex.func("cos", ex.pi), ex.const(2)), ex.const(2)),
        ex.div(ex.mul(a1, ex.const(2)), ex.const(3)),
    ):
        assert ex.parse(ex.to_string(e), 2) == e
    assert ex.to_string(ex.div(ex.pow_(a1, 2), ex.const(2))) == "a1^2/2"
    assert ex.to_string(ex.div(ex.div(a1, ex.const(2)), ex.var(2))) == "a1/2/a2"


@settings(max_examples=150, deadline=None)
@given(
    e=_safe_exprs(2, 3),
    x=st.floats(min_value=0.05, max_value=0.9),
    y=st.floats(min_value=0.05, max_value=0.9),
    i=st.integers(min_value=1, max_value=2),
)
def test_diff_matches_central_difference(e, x, y, i):
    h = 1e-6
    pt = [x, y]
    up, dn = pt[:], pt[:]
    up[i - 1] += h
    dn[i - 1] -= h
    try:
        f = ex.compile_expr(e)
        fd = (f(up) - f(dn)) / (2 * h)
        sym = ex.compile_expr(ex.diff(e, i))(pt)
    except ex.ExprDomainError:
        return
    if not (math.isfinite(fd) and math.isfinite(sym)):
        return
    assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym))


@settings(max_examples=50, deadline=None)
@given(e=_safe_exprs(2, 3), x=st.floats(min_value=0.1, max_value=0.9))
def test_eval_deterministic(e, x):
    pt = (x, 1.0 - x / 2)
    fn = ex.compile_expr(e)
    try:
        v1 = fn(pt)
        v2 = fn(pt)
        v3 = ex.compile_expr(e)(pt)
    except ex.ExprDomainError:
        return
    assert v1 == v2 == v3


_UNARY = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "atan": np.arctan}


def _reference(e, point):
    """Per-point interpreter over numpy float64 scalars: the same numpy
    functions as the compiler, none of its closures or domain checks."""
    k = e.kind
    if k == "const":
        return np.float64(float(e.value))
    if k == "pi":
        return np.float64(math.pi)
    if k == "var":
        return np.float64(point[e.value - 1])
    args = [_reference(a, point) for a in e.args]
    if k == "neg":
        return -args[0]
    if k == "add":
        return args[0] + args[1]
    if k == "sub":
        return args[0] - args[1]
    if k == "mul":
        return args[0] * args[1]
    if k == "div":
        return args[0] / args[1]
    if k == "pow":
        return np.power(args[0], float(e.value))  # a float64's ** is libm's pow, not numpy's
    return _UNARY[k](args[0])


@settings(max_examples=100, deadline=None)
@given(e=_safe_exprs(2, 3), x=st.floats(min_value=0.1, max_value=0.9))
def test_vector_eval_matches_reference_interpreter(e, x):
    pts = np.array([[x, 0.3], [0.2, x], [x / 2, x / 2]])
    try:
        vec = ex.compile_vec(e)(pts.T)
    except ex.ExprDomainError:
        return
    ref = [_reference(e, p) for p in pts]
    assert [float(v).hex() for v in vec] == [float(v).hex() for v in ref]


# -- the program compiler against the closure compiler it replaced -----------


def _closure_compile(e):
    """Reference evaluator, the closure compiler that compile_many replaced:
    (closure, variable-free), one nested numpy closure per tree node, walked
    again at every call.  A variable-free subtree is evaluated once with the
    same operations, and one that fails its domain check stays a closure."""
    kids = [_closure_compile(a) for a in e.args]
    fn = _closure(e, [f for f, _ in kids])
    if e.kind == "var" or not all(free for _, free in kids):
        return fn, False
    try:
        v = fn(None)
    except ex.ExprDomainError:
        return fn, True
    return (lambda X: v), True


def _closure(e, args):
    kind = e.kind
    if kind == "const":
        v = float(e.value)
        return lambda X: v
    if kind == "pi":
        return lambda X: math.pi
    if kind == "var":
        i = e.value - 1
        return lambda X: X[i]
    if kind == "neg":
        (f,) = args
        return lambda X: -f(X)
    if kind in ("add", "sub", "mul", "div"):
        f, g = args
        if kind == "add":
            return lambda X: f(X) + g(X)
        if kind == "sub":
            return lambda X: f(X) - g(X)
        if kind == "mul":
            return lambda X: f(X) * g(X)

        def _div(X):
            d = np.asarray(g(X))
            if (d == 0.0).any():
                raise ex.ExprDomainError("division by zero", e)
            return f(X) / d

        return _div
    (f,) = args
    if kind == "pow":
        r = e.value
        if r.denominator == 1:
            n = r.numerator

            def _ipow(X):
                b = np.asarray(f(X), dtype=float)
                if n < 0 and (b == 0.0).any():
                    raise ex.ExprDomainError("zero base with negative exponent", e)
                return b ** float(n)

            return _ipow
        rf = float(r)

        def _rpow(X):
            b = np.asarray(f(X), dtype=float)
            if (b < 0.0).any():
                raise ex.ExprDomainError("negative base of rational power", e)
            if rf <= 0.0 and (b == 0.0).any():
                raise ex.ExprDomainError("zero base with nonpositive rational power", e)
            return b**rf

        return _rpow
    if kind == "sqrt":

        def _sqrt(X):
            u = np.asarray(f(X), dtype=float)
            if (u < 0.0).any():
                raise ex.ExprDomainError("sqrt of negative value", e)
            return np.sqrt(u)

        return _sqrt
    if kind == "log":

        def _log(X):
            u = np.asarray(f(X), dtype=float)
            if (u <= 0.0).any():
                raise ex.ExprDomainError("log of nonpositive value", e)
            return np.log(u)

        return _log
    fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan": np.arctan}[kind]
    return lambda X: fn(f(X))


def _as_rows(outs, n):
    """Each output as the bytes of an (n,) float array, as compile_vec gives it."""
    rows = []
    for out in outs:
        out = np.asarray(out, dtype=float)
        rows.append((np.full(n, float(out)) if out.ndim == 0 else out).tobytes())
    return rows


def _outcome(evaluate):
    """The outputs' bytes, or the message of the first domain error."""
    try:
        with np.errstate(all="ignore"):
            return evaluate()
    except ex.ExprDomainError as err:
        return str(err)


_LEAVES = (ex.var(1), ex.var(2), ex.const(0), ex.const(1), ex.const(2), ex.const(-1), ex.pi)
_OPS = ("neg", "add", "sub", "mul", "sin", "cos", "exp", "atan") + ("div", "pow", "sqrt", "log") * 2
_POWERS = (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))


@st.composite
def _shared_programs(draw):
    """A list of expressions over a pool of subtrees that later nodes reuse,
    so that the list shares subtrees within and across its expressions; the
    constant leaves make folded subtrees, some of which fail (sqrt(0 - 1),
    1/0, 0^(-1))."""
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(_OPS))
        a = draw(st.sampled_from(pool))
        if kind in ("add", "sub", "mul", "div"):
            pool.append(ex.Expr(kind, (a, draw(st.sampled_from(pool)))))
        elif kind == "pow":
            pool.append(ex.Expr("pow", (a,), draw(st.sampled_from(_POWERS))))
        else:
            pool.append(ex.Expr(kind, (a,)))
    built = pool[len(_LEAVES):]
    return draw(st.lists(st.sampled_from(built + built + pool), min_size=1, max_size=5))


# columns that put a zero or a negative number under some of the checks, and none
_COLUMNS = (
    np.array([[0.5, 0.25, 0.75], [0.3, 0.7, 0.2]]),
    np.array([[0.5, -0.25, 0.0], [0.3, 0.7, 2.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.array([[0.5, 0.75], [0.25, 0.5]]).T.copy().T,  # rows strided
)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(exprs=_shared_programs(), cols=st.sampled_from(_COLUMNS))
@example(exprs=["a1 + sqrt(0 - 1)", "a2"], cols=_COLUMNS[0])
@example(exprs=["a1", "a2*(1/(1 - 1))"], cols=_COLUMNS[0])
@example(exprs=["a1 - 0^(-1)"], cols=_COLUMNS[0])
@example(exprs=["sqrt(a1 - 2)*log(a1 - 2)", "log(a1 - 2)"], cols=_COLUMNS[0])
@example(exprs=["log(a1 - 2)/(a1 - a1)"], cols=_COLUMNS[0])
@example(exprs=["a1/sqrt(a2 - 1/4)", "a2/sqrt(a2 - 1/4)", "sqrt(a2 - 1/4)"], cols=_COLUMNS[1])
def test_one_program_is_the_closure_compiler_bit_for_bit(exprs, cols):
    # compile_many gives each expression the bytes that its own closure
    # tree gives, and raises the first domain error that evaluating the
    # closures one expression after another raises, message and all
    exprs = [ex.parse(e, 2) if isinstance(e, str) else e for e in exprs]
    n = cols.shape[1]
    with np.errstate(all="ignore"):
        reference = [_closure_compile(e)[0] for e in exprs]
        run = ex.compile_many(exprs)
    expected = _outcome(lambda: _as_rows([f(cols) for f in reference], n))
    assert _outcome(lambda: _as_rows(run(cols), n)) == expected
    assert _outcome(lambda: _as_rows([ex.compile_vec(e)(cols) for e in exprs], n)) == expected


def test_a_subtree_shared_by_values_and_jacobian_runs_once(monkeypatch):
    # the hemisphere's square root appears in its value and in both partials
    sigma = ch.ExprMap(["a1", "a2", "1.3*sqrt(1 - a1^2 - a2^2)"], 2)
    cols = np.array([[0.1, 0.2, 0.3], [0.4, 0.3, 0.2]])
    ref = [np.broadcast_to(_closure_compile(e)[0](cols), 3) for e in sigma.components]
    ref += [np.broadcast_to(_closure_compile(ex.diff(c, j))[0](cols), 3) for c in sigma.components for j in (1, 2)]
    calls = []
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda u: calls.append(u) or sqrt(u))
    values, jac = sigma.batch(cols)
    assert len(calls) == 1
    assert values.tobytes() + jac.tobytes() == np.array(ref).tobytes()


def test_a_jacobian_batch_raises_the_first_error_of_the_partials():
    # at t = 0 the values fail at the log, the partials at the quotient
    # 1/(2*sqrt(t)); each batch raises the error its own expressions raise
    # first
    sigma = ch.ExprMap(["log(t - 2)", "sqrt(t)"], 1)
    cols = np.zeros((1, 1))
    for values, jacobian, message in (
        (True, True, "log of nonpositive value in log(a1 - 2)"),
        (True, False, "log of nonpositive value in log(a1 - 2)"),
        (False, True, "division by zero in 1/(2*sqrt(a1))"),
    ):
        with pytest.raises(ex.ExprDomainError) as err:
            sigma.batch(cols, values=values, jacobian=jacobian)
        assert str(err.value) == message
