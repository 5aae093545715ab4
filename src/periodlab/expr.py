"""Expression DSL: parser, evaluator, symbolic differentiation.

Expressions are immutable trees over variables ``a1, a2, ...`` (``t`` is an
alias for ``a1``), exact rational constants, ``pi``, the arithmetic
operators ``+ - * /``, rational powers ``^``, and the unary functions
``sqrt sin cos exp log atan``.  They back every simplex component map and
every form coefficient in the package.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "domain_site",
    "parse",
    "to_string",
    "compile_expr",
    "compile_vec",
    "diff",
    "const",
    "var",
    "pi",
    "neg",
    "add",
    "sub",
    "mul",
    "div",
    "pow_",
    "func",
]

_FUNCS = ("sqrt", "sin", "cos", "exp", "log", "atan")
_KINDS = ("const", "pi", "var", "neg", "add", "sub", "mul", "div", "pow") + _FUNCS


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    """Raised by parse(); carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation outside the natural domain (log/sqrt/division/pow)."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in {to_string(subexpr)}")
        self.subexpr = subexpr


@contextlib.contextmanager
def domain_site(where: str):
    """Prefix the message of an ExprDomainError raised in the block with
    ``where`` (a simplex, a face), so that reports name the site."""
    try:
        yield
    except ExprDomainError as err:
        err.args = (f"{where}: {err}",)
        raise


@dataclass(frozen=True)
class Expr:
    """One AST node.  ``value`` holds the Fraction of a constant, the 1-based
    index of a variable, or the Fraction exponent of a pow node.  The hash,
    the dataclass's own, is computed once, and the repr once it is asked
    for, so that neither walks the tree again."""

    kind: str
    args: tuple = ()
    value: object = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.args, self.value)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        try:
            return self._repr
        except AttributeError:
            text = f"{type(self).__qualname__}(kind={self.kind!r}, args={self.args!r}, value={self.value!r})"
            object.__setattr__(self, "_repr", text)
            return text

    def __reduce__(self):  # string hashes differ between processes: rebuild the cache
        return Expr, (self.kind, self.args, self.value)


def const(q) -> Expr:
    return Expr("const", value=Fraction(q))


def var(i: int) -> Expr:
    if i < 1:
        raise ValueError("variable indices are 1-based")
    return Expr("var", value=i)


pi = Expr("pi")

_ZERO = const(0)
_ONE = const(1)


def _is_const(e: Expr, q=None) -> bool:
    return e.kind == "const" and (q is None or e.value == q)


# Smart constructors below fold constants (and annihilators/identities).
# parse() bypasses them so the parsed AST mirrors the input text; diff()
# uses them so derivatives stay readable.


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    return Expr("neg", (a,))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.value != 0 and _is_const(a):
        return const(a.value / b.value)
    if _is_const(a, 0) and not _is_const(b, 0):
        return _ZERO
    if _is_const(b, 1):
        return a
    return Expr("div", (a, b))


def pow_(a: Expr, r) -> Expr:
    r = Fraction(r)
    if r == 0:
        return _ONE
    if r == 1:
        return a
    if _is_const(a) and r.denominator == 1:
        if a.value == 0 and r < 0:
            return Expr("pow", (a,), r)  # leave the domain error to eval
        return const(a.value ** r.numerator if r > 0 else 1 / (a.value ** -r.numerator))
    return Expr("pow", (a,), r)


def func(name: str, a: Expr) -> Expr:
    if name not in _FUNCS:
        raise ValueError(f"unknown function {name!r}")
    return Expr(name, (a,))


# ---------------------------------------------------------------------------
# Parsing.  Grammar:
#   expr   := ["-"] term (("+"|"-") term)*
#   term   := factor (("*"|"/") factor)*
#   factor := base ("^" rational)?
#   base   := number | "pi" | ident | "(" expr ")" | func "(" expr ")"
#   ident  := "a" digits | "t"
# Numbers are decimal or rational "p/q" (the slash binds to the literal when
# both sides are bare digit runs).  A leading "-" folds into numeric literals
# and otherwise parses as negation.
# ---------------------------------------------------------------------------


class _Lexer:
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
                # a bare exponent is an integer; fractional exponents need
                # parentheses, so that a1^2/2 stays (a1^2)/2
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
                raise ExprSyntaxError(f"unexpected character {c!r}", start)
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
            # rational literal p/q: only when a bare digit run follows
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j > i + 1 and not (j < n and (text[j] == "." or text[j].isalpha())):
                q = int(text[i + 1 : j])
                if q == 0:
                    raise ExprSyntaxError("rational literal with zero denominator", start)
                self.tokens.append(("number", Fraction(int(lit), q), start))
                return j
        self.tokens.append(("number", Fraction(lit), start))
        return i


class _Parser:
    def __init__(self, text: str, arity: int):
        self.toks = _Lexer(text).tokens
        self.k = 0
        self.arity = arity

    def peek(self):
        return self.toks[self.k]

    def next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        e = self.term()
        if negate:
            e = const(-e.value) if e.kind == "const" else Expr("neg", (e,))
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = Expr("add" if op == "+" else "sub", (e, rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            e = Expr("mul" if op == "*" else "div", (e, rhs))
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek()[0] == "^":
            self.next()
            e = Expr("pow", (e,), self.rational())
        return e

    def rational(self) -> Fraction:
        parens = self.peek()[0] == "("
        if parens:
            self.next()
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("number")
        if parens:
            self.expect(")")
        return sign * tok[1]

    def base(self) -> Expr:
        kind, val, off = self.next()
        if kind == "number":
            return const(val)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if val == "pi":
                return pi
            if val in _FUNCS:
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Expr(val, (e,))
            if val == "t":
                if self.arity < 1:
                    raise ExprSyntaxError("variable t needs arity >= 1", off)
                return var(1)
            if val.startswith("a") and val[1:].isdigit():
                i = int(val[1:])
                if not 1 <= i <= self.arity:
                    raise ExprSyntaxError(
                        f"variable index {i} out of range for arity {self.arity}", off
                    )
                return var(i)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse(text: str, arity: int) -> Expr:
    """Parse ``text`` into an Expr, checking variable indices against ``arity``."""
    return _Parser(text, arity).parse()


# ---------------------------------------------------------------------------
# Printing: canonical form that round-trips through parse().
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "neg": 1, "mul": 2, "div": 2, "pow": 3}


def _print(e: Expr, ctx_prec: int) -> str:
    if e.kind == "const":
        q: Fraction = e.value
        s = str(q)  # Fraction prints p or p/q
        if q < 0 and ctx_prec > 0:
            return f"({s})"
        return s
    if e.kind == "pi":
        return "pi"
    if e.kind == "var":
        return f"a{e.value}"
    if e.kind in _FUNCS:
        return f"{e.kind}({_print(e.args[0], 0)})"
    if e.kind == "neg":
        s = "-" + _print(e.args[0], 2)
        return f"({s})" if ctx_prec > 1 else s
    if e.kind == "pow":
        r: Fraction = e.value
        base = _print(e.args[0], 4)
        exp = str(r) if r.denominator == 1 and r > 0 else f"({r})"
        s = f"{base}^{exp}"
        return f"({s})" if ctx_prec > 3 else s
    a, b = e.args
    # the parser associates left, so right operands print one level tighter
    if e.kind == "add":
        op, prec, rprec = " + ", 1, 2
    elif e.kind == "sub":
        op, prec, rprec = " - ", 1, 2
    elif e.kind == "mul":
        op, prec, rprec = "*", 2, 3
    else:
        op, prec, rprec = "/", 2, 3
    left, right = _print(a, prec), _print(b, rprec)
    if op == "/" and right[0].isdigit() and re.search(r"(?<![\w^.])\d+$", left):
        right = f"({right})"  # "2/3" after an integer would lex as one rational literal
    s = left + op + right
    return f"({s})" if ctx_prec > prec else s


def to_string(e: Expr) -> str:
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Evaluation.  compile_vec is the one compiler: it builds nested numpy
# closures once per AST; compile_expr is a batch of one over it.  Both are
# pure.
# ---------------------------------------------------------------------------


def compile_vec(e: Expr) -> Callable:
    """Batch evaluator: takes an (arity, n) array of points (one column per
    point), returns an (n,) array.  A domain check fires if any point in the
    batch violates it."""
    inner, _ = _compile_vec(e)

    def run(cols):
        out = np.asarray(inner(cols), dtype=float)
        if out.ndim == 0:
            out = np.full(cols.shape[1], float(out))
        return out

    return run


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Point evaluator: a batch of one through compile_vec."""
    run = compile_vec(e)
    return lambda point: float(run(np.asarray(point, dtype=float).reshape(-1, 1))[0])


def _compile_vec(e: Expr):
    """(closure, variable-free).  A variable-free subtree is evaluated once
    here, with the same operations as at run time; one that fails its domain
    check stays a closure, so that the error is raised on evaluation."""
    kids = [_compile_vec(a) for a in e.args]
    fn = _closure(e, [f for f, _ in kids])
    if e.kind == "var" or not all(free for _, free in kids):
        return fn, False
    try:
        v = fn(None)
    except ExprDomainError:
        return fn, True
    return (lambda X: v), True


def _closure(e: Expr, args):
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
                raise ExprDomainError("division by zero", e)
            return f(X) / d

        return _div
    (f,) = args
    if kind == "pow":
        r: Fraction = e.value
        if r.denominator == 1:
            n = r.numerator

            def _ipow(X):
                b = np.asarray(f(X), dtype=float)
                if n < 0 and (b == 0.0).any():
                    raise ExprDomainError("zero base with negative exponent", e)
                return b ** float(n)

            return _ipow
        rf = float(r)

        def _rpow(X):
            b = np.asarray(f(X), dtype=float)
            if (b < 0.0).any():
                raise ExprDomainError("negative base of rational power", e)
            if rf <= 0.0 and (b == 0.0).any():
                raise ExprDomainError("zero base with nonpositive rational power", e)
            return b**rf

        return _rpow
    if kind == "sqrt":

        def _sqrt(X):
            u = np.asarray(f(X), dtype=float)
            if (u < 0.0).any():
                raise ExprDomainError("sqrt of negative value", e)
            return np.sqrt(u)

        return _sqrt
    if kind == "log":

        def _log(X):
            u = np.asarray(f(X), dtype=float)
            if (u <= 0.0).any():
                raise ExprDomainError("log of nonpositive value", e)
            return np.log(u)

        return _log
    fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan": np.arctan}[kind]
    return lambda X: fn(f(X))


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------


def diff(e: Expr, i: int) -> Expr:
    """Symbolic partial derivative with respect to variable ``a{i}``."""
    kind = e.kind
    if kind in ("const", "pi"):
        return _ZERO
    if kind == "var":
        return _ONE if e.value == i else _ZERO
    if kind == "neg":
        return neg(diff(e.args[0], i))
    if kind == "add":
        return add(diff(e.args[0], i), diff(e.args[1], i))
    if kind == "sub":
        return sub(diff(e.args[0], i), diff(e.args[1], i))
    if kind == "mul":
        a, b = e.args
        return add(mul(diff(a, i), b), mul(a, diff(b, i)))
    if kind == "div":
        a, b = e.args
        return div(sub(mul(diff(a, i), b), mul(a, diff(b, i))), mul(b, b))
    if kind == "pow":
        a = e.args[0]
        r: Fraction = e.value
        return mul(mul(const(r), pow_(a, r - 1)), diff(a, i))
    u = e.args[0]
    du = diff(u, i)
    if kind == "sqrt":
        return div(du, mul(const(2), func("sqrt", u)))
    if kind == "sin":
        return mul(func("cos", u), du)
    if kind == "cos":
        return neg(mul(func("sin", u), du))
    if kind == "exp":
        return mul(func("exp", u), du)
    if kind == "log":
        return div(du, u)
    if kind == "atan":
        return div(du, add(_ONE, mul(u, u)))
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Structural zero test used by the forms module when merging coefficients:
# flatten an additive tree into signed addends and cancel structurally equal
# pairs.  This is the only "simplification" beyond constant folding and it
# never rewrites user expressions.
# ---------------------------------------------------------------------------


def _addends(e: Expr, sign: int, out: list):
    if e.kind == "add":
        _addends(e.args[0], sign, out)
        _addends(e.args[1], sign, out)
    elif e.kind == "sub":
        _addends(e.args[0], sign, out)
        _addends(e.args[1], -sign, out)
    elif e.kind == "neg":
        _addends(e.args[0], -sign, out)
    elif _is_const(e):
        out.append((sign * e.value, _ONE))
    else:
        out.append((sign, e))


def is_structurally_zero(e: Expr) -> bool:
    terms: list = []
    _addends(e, 1, terms)
    pool: list = []
    for s, t in terms:
        for k, (s2, t2) in enumerate(pool):
            if t2 == t:
                pool[k] = (s2 + s, t)
                break
        else:
            pool.append((s, t))
    return all(s == 0 for s, _ in pool)
