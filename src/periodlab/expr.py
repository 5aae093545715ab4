"""Expression DSL: parser, evaluator, symbolic differentiation.

Expressions are immutable trees over variables ``a1, a2, ...`` (``t`` is an
alias for ``a1``), exact rational constants, ``pi``, the arithmetic
operators ``+ - * /``, rational powers ``^``, and the unary functions
``sqrt sin cos exp log atan``.  They back every simplex component map and
every form coefficient in the package.  The lexer matches one regex per
token.  A manifest parses each distinct map once per load, and maps and
forms compile their expressions on first use.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import re
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
    "compile_many",
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
_KINDS = frozenset(("const", "pi", "var", "neg", "add", "sub", "mul", "div", "pow") + _FUNCS)


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


class Expr:
    """One AST node.  ``value`` holds the Fraction of a constant, the 1-based
    index of a variable, or the Fraction exponent of a pow node.  Nodes are
    immutable and compare by (kind, args, value).  The hash is computed at
    construction from the kind, the children's hashes and the value's
    integer ratio, which agrees with equality and skips
    ``Fraction.__hash__``; nodes whose hashes differ are unequal without a
    walk.  The repr is computed once it is asked for."""

    __slots__ = ("kind", "args", "value", "_hash", "_repr")

    def __init__(self, kind: str, args: tuple = (), value=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        _set_kind(self, kind)
        _set_args(self, args)
        _set_value(self, value)
        _set_hash(self, hash((kind, args, None if value is None else value.as_integer_ratio())))

    def __setattr__(self, name, *_):
        raise AttributeError(f"Expr is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.kind == other.kind and self.value == other.value
                and self.args == other.args)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        try:
            return self._repr
        except AttributeError:
            text = f"{type(self).__qualname__}(kind={self.kind!r}, args={self.args!r}, value={self.value!r})"
            _set_repr(self, text)
            return text

    def __reduce__(self):  # string hashes differ between processes: rebuild the caches
        return type(self), (self.kind, self.args, self.value)


_set_kind, _set_args, _set_value, _set_hash, _set_repr = (getattr(Expr, s).__set__ for s in Expr.__slots__)


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
# and otherwise parses as negation.  The lexer makes one match of _TOKEN per
# token: whitespace, then a rational candidate, a decimal literal, a name or
# an operator (\d is a decimal digit, \w a character of str.isalnum or "_").
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<rational>\d+/\d+)|(?P<number>\d+\.?\d*|\.\d+)|(?P<name>\w+)|(?P<op>[-+*/^()]))?")


def _lex(text: str) -> list:
    """The tokens (kind, value, start, end) of ``text``, then ("end", None, n, n)."""
    tokens, n, pos = [], len(text), 0
    while True:
        m = _TOKEN.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind is None:
            if pos < n:
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
            return tokens + [("end", None, n, n)]
        start = m.start(kind)
        lit = text[start:pos]
        if kind == "op":
            tokens.append((lit, lit, start, pos))
        elif kind == "name":
            if not lit[0].isalpha():  # "_", or a digit that is not decimal, such as "²"
                raise ExprSyntaxError(f"unexpected character {lit[0]!r}", start)
            tokens.append(("name", lit, start, pos))
        else:
            p, _, q = lit.partition("/")
            # p/q is one literal unless "." or a letter follows; a bare exponent
            # is an integer, so that a1^2/2 stays (a1^2)/2
            joined = pos == n or (text[pos] != "." and not text[pos].isalpha())
            if q and joined and not (tokens and tokens[-1][0] == "^"):
                if int(q) == 0:
                    raise ExprSyntaxError("rational literal with zero denominator", start)
                tokens.append(("number", Fraction(int(p), int(q)), start, pos))
                continue
            pos = start + len(p)  # a decimal literal, or the p of a p/q that is not one
            whole, _, frac = p.partition(".")
            value = Fraction(int(whole + frac), 10 ** len(frac)) if frac else Fraction(int(whole))
            tokens.append(("number", value, start, pos))


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.toks = _lex(text)
        self.k = 0
        self.arity = arity

    def peek(self):
        return self.toks[self.k]

    def next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def found(self, tok) -> str:
        return "end of input" if tok[0] == "end" else repr(self.text[tok[2] : tok[3]])

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {self.found(tok)}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {self.found(tok)}", tok[2])
        return e

    def expr(self) -> Expr:
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        e = self.term()
        if negate:
            e = Expr("const", (), -e.value) if e.kind == "const" else Expr("neg", (e,))
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
        kind, val, off, _ = tok = self.next()
        if kind == "number":
            return Expr("const", (), val)
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
                return Expr("var", (), 1)
            if val.startswith("a") and val[1:].isdecimal():
                i = int(val[1:])
                if not 1 <= i <= self.arity:
                    raise ExprSyntaxError(
                        f"variable index {i} out of range for arity {self.arity}", off
                    )
                return Expr("var", (), i)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        raise ExprSyntaxError(f"expected an operand, found {self.found(tok)}", off)


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
# Evaluation.  compile_many is the one compiler: it turns a list of
# expressions into one program with a step per distinct subtree, a numpy
# operation on the values of earlier steps.  The steps run in the order in
# which evaluating the expressions one after another, each tree walked left
# to right (a quotient checks its denominator before it reaches its
# numerator), first reaches each subtree, so every value and the first
# domain error are those of separate evaluations.  compile_vec is its
# one-output view, compile_expr a batch of one over that.  All are pure.
# ---------------------------------------------------------------------------


def _nonzero(e, d):
    d = np.asarray(d)
    if (d == 0.0).any():
        raise ExprDomainError("division by zero", e)
    return d


def _pow(e, r, b):
    b = np.asarray(b, dtype=float)
    whole = e.value.denominator == 1
    if not whole and (b < 0.0).any():
        raise ExprDomainError("negative base of rational power", e)
    if r < 0.0 and (b == 0.0).any():
        raise ExprDomainError("zero base with " + ("negative exponent" if whole else "nonpositive rational power"), e)
    return b**r


def _sqrt_or_log(e, u):
    u = np.asarray(u, dtype=float)
    if e.kind == "sqrt":
        if (u < 0.0).any():
            raise ExprDomainError("sqrt of negative value", e)
        return np.sqrt(u)
    if (u <= 0.0).any():
        raise ExprDomainError("log of nonpositive value", e)
    return np.log(u)


_PLAIN = {"neg": np.negative, "add": np.add, "sub": np.subtract, "mul": np.multiply,
          "sin": np.sin, "cos": np.cos, "exp": np.exp, "atan": np.arctan}


def compile_many(exprs: Sequence[Expr]) -> Callable:
    """Batch evaluator of several expressions: takes an (arity, n) array of
    points (one column per point) and returns a list with one entry per
    expression, an (n,) array or, for an expression without variables, a
    float.  A domain check fires if any point in the batch violates it.  A
    variable-free subtree is evaluated here, by its step; one that fails its
    domain check stays a step, so that the error is raised on evaluation."""
    init = [None]  # slot 0 holds the points; a folded subtree holds its value
    steps = []  # (function, slot written, slots read, the second None if unary)
    memo = {}  # subtree, or ("nonzero", slot) for a checked denominator -> slot

    def emit(fn, a, b=None):
        args = (a,) if b is None else (a, b)
        if all(init[k] is not None for k in args):
            try:
                init.append(fn(*[init[k] for k in args]))
                return len(init) - 1
            except ExprDomainError:
                pass
        init.append(None)
        steps.append((fn, len(init) - 1, a, b))
        return len(init) - 1

    def slot(e):
        k = memo.get(e)
        if k is None:
            k = memo[e] = build(e)
        return k

    def build(e):
        kind = e.kind
        if kind in ("const", "pi"):
            init.append(math.pi if kind == "pi" else float(e.value))
            return len(init) - 1
        if kind == "var":
            return emit(operator.itemgetter(e.value - 1), 0)
        if kind == "div":
            d = slot(e.args[1])
            checked = memo["nonzero", d] = memo.get(("nonzero", d)) or emit(functools.partial(_nonzero, e), d)
            return emit(np.true_divide, slot(e.args[0]), checked)
        if kind in ("add", "sub", "mul"):
            return emit(_PLAIN[kind], slot(e.args[0]), slot(e.args[1]))
        if kind == "pow":
            return emit(functools.partial(_pow, e, float(e.value)), slot(e.args[0]))
        fn = functools.partial(_sqrt_or_log, e) if kind in ("sqrt", "log") else _PLAIN[kind]
        return emit(fn, slot(e.args[0]))

    outs = [slot(e) for e in exprs]

    def run(cols):
        v = init.copy()
        v[0] = cols
        for fn, k, a, b in steps:
            v[k] = fn(v[a]) if b is None else fn(v[a], v[b])
        return [v[k] for k in outs]

    return run


def compile_vec(e: Expr) -> Callable:
    """Batch evaluator of one expression: compile_many's output as an (n,)
    array, constant or not."""
    run = compile_many([e])

    def vec(cols):
        out = np.asarray(run(cols)[0], dtype=float)
        if out.ndim == 0:
            out = np.full(cols.shape[1], float(out))
        return out

    return vec


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Point evaluator: a batch of one through compile_vec."""
    run = compile_vec(e)
    return lambda point: float(run(np.asarray(point, dtype=float).reshape(-1, 1))[0])


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
# Like terms, for the forms module's merge of coefficients: flatten an
# additive tree into signed addends and pool structurally equal ones.  This
# is the only "simplification" beyond constant folding and it never rewrites
# user expressions.
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


def like_terms(signed) -> list:
    """The (sign, term) pairs with structurally equal terms pooled, in
    first-seen order: each keeps its first-seen term and sums the signs."""
    pool: list = []
    for s, t in signed:
        for k, (s2, t2) in enumerate(pool):
            if t2 == t:
                pool[k] = (s2 + s, t2)
                break
        else:
            pool.append((s, t))
    return pool


def is_structurally_zero(e: Expr) -> bool:
    terms: list = []
    _addends(e, 1, terms)
    return all(s == 0 for s, _ in like_terms(terms))
