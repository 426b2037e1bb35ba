"""Small symbolic expression language in the variables t and eps.

Expressions are immutable trees closed under d/dt, so problem data keeps
exact derivatives of every order.  Supported primitives: complex
constants, t, eps, + - * /, integer powers, sin, cos, exp, sqrt, sign,
neg, and powabs(u, beta) := |u|^beta for non-Lipschitz test data.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    pass


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "t" or "eps"


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Fun(Expr):
    name: str  # sin, cos, exp, sqrt, sign
    a: Expr


@dataclass(frozen=True)
class PowAbs(Expr):
    arg: Expr
    beta: float


ZERO = Const(0.0 + 0.0j)
ONE = Const(1.0 + 0.0j)

_FUNCS = ("sin", "cos", "exp", "sqrt", "sign")


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


# Smart constructors fold constants so derivatives stay compact.

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        if b.value == 0:
            raise EvalError("constant division by zero")
        return Const(a.value / b.value)
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise EvalError("zero to a negative power")
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def diff_t(e: Expr) -> Expr:
    """Exact symbolic d/dt.  Closed on the expression language."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == "t" else ZERO
    if isinstance(e, Add):
        return add(diff_t(e.a), diff_t(e.b))
    if isinstance(e, Sub):
        return sub(diff_t(e.a), diff_t(e.b))
    if isinstance(e, Mul):
        return add(mul(diff_t(e.a), e.b), mul(e.a, diff_t(e.b)))
    if isinstance(e, Div):
        num = sub(mul(diff_t(e.a), e.b), mul(e.a, diff_t(e.b)))
        return div(num, powi(e.b, 2))
    if isinstance(e, Pow):
        return mul(mul(Const(e.exponent), powi(e.base, e.exponent - 1)),
                   diff_t(e.base))
    if isinstance(e, Neg):
        return neg(diff_t(e.a))
    if isinstance(e, Fun):
        inner = diff_t(e.a)
        if e.name == "sin":
            return mul(Fun("cos", e.a), inner)
        if e.name == "cos":
            return neg(mul(Fun("sin", e.a), inner))
        if e.name == "exp":
            return mul(Fun("exp", e.a), inner)
        if e.name == "sqrt":
            return div(inner, mul(Const(2.0), Fun("sqrt", e.a)))
        if e.name == "sign":
            return ZERO  # piecewise constant away from the jump
        raise ExprError(f"unknown function {e.name!r}")
    if isinstance(e, PowAbs):
        # d/dt |u|^b = b |u|^(b-1) sign(u) u'
        return mul(mul(Const(e.beta), PowAbs(e.arg, e.beta - 1.0)),
                   mul(Fun("sign", e.arg), diff_t(e.arg)))
    raise ExprError(f"unknown node {e!r}")


def evaluate(e: Expr, t, eps):
    """Evaluate at t (scalar or ndarray) and eps (a float, or an ndarray that
    broadcasts with t).  Complex output of the broadcast shape."""
    t = np.asarray(t, dtype=float)
    if isinstance(eps, np.ndarray):
        val = _eval(_columns(e, eps), t, eps)
        shape = np.broadcast_shapes(t.shape, eps.shape)
    else:
        val, shape = _eval(e, t, eps), t.shape
    return np.asarray(val, dtype=complex) + np.zeros(shape, dtype=complex)


def _columns(e: Expr, eps: np.ndarray) -> Expr:
    """e with each largest subtree in eps alone replaced by a constant of
    its values at each eps, each computed as at that one eps: the eps-only
    arithmetic of an eps array is then Python's, as at a float eps."""
    if not mentions(e, "t"):
        if not mentions(e, "eps"):
            return e
        vals = [_eval(e, 0.0, x) for x in eps.ravel().tolist()]
        return Const(np.array(vals).reshape(eps.shape))
    return type(e)(**{k: _columns(v, eps) if isinstance(v, Expr) else v
                      for k, v in vars(e).items()})


def _eval(e: Expr, t, eps):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else eps
    if isinstance(e, Add):
        return _eval(e.a, t, eps) + _eval(e.b, t, eps)
    if isinstance(e, Sub):
        return _eval(e.a, t, eps) - _eval(e.b, t, eps)
    if isinstance(e, Mul):
        return _eval(e.a, t, eps) * _eval(e.b, t, eps)
    if isinstance(e, Div):
        den = _eval(e.b, t, eps)
        if np.any(den == 0):
            raise EvalError("division by zero")
        return _eval(e.a, t, eps) / den
    if isinstance(e, Pow):
        base = _eval(e.base, t, eps)
        if e.exponent < 0 and np.any(base == 0):
            raise EvalError("zero to a negative power")
        return base ** e.exponent
    if isinstance(e, Neg):
        return -_eval(e.a, t, eps)
    if isinstance(e, Fun):
        v = _eval(e.a, t, eps)
        if e.name == "sin":
            return np.sin(v)
        if e.name == "cos":
            return np.cos(v)
        if e.name == "exp":
            return np.exp(v)
        if e.name == "sqrt":
            return np.sqrt(np.asarray(v, dtype=complex))
        if e.name == "sign":
            return np.sign(np.real(v))
        raise ExprError(f"unknown function {e.name!r}")
    if isinstance(e, PowAbs):
        v = np.abs(_eval(e.arg, t, eps))
        if e.beta <= 0 and np.any(v == 0):
            raise EvalError(f"powabs singularity hit exactly (beta={e.beta})")
        return np.where(v == 0, 0.0, v ** e.beta)
    raise ExprError(f"unknown node {e!r}")


def substitute_eps(e: Expr, value: float) -> Expr:
    """Replace eps with a constant (used to form eps=0 slices), each node
    rebuilt by its folding constructor."""
    if isinstance(e, Var):
        return Const(complex(value)) if e.name == "eps" else e
    build = {Add: add, Sub: sub, Mul: mul, Div: div, Pow: powi,
             Neg: neg}.get(type(e), type(e))
    return build(*(substitute_eps(v, value) if isinstance(v, Expr) else v
                   for v in vars(e).values()))


def mentions(e: Expr, name: str) -> bool:
    """Whether the variable name (t or eps) occurs in e, even where it
    cancels."""
    if isinstance(e, Var):
        return e.name == name
    return any(mentions(c, name) for c in vars(e).values()
               if isinstance(c, Expr))


def powabs_args(e: Expr) -> list:
    """The arguments of e's powabs nodes, each before those inside it."""
    own = [e.arg] if isinstance(e, PowAbs) else []
    return own + [u for c in vars(e).values() if isinstance(c, Expr)
                  for u in powabs_args(c)]


def singular_centers(e: Expr, eps: float):
    """t-values where a powabs argument with a linear-in-t inner vanishes.

    Sampling grids nudge away from these points before evaluation.
    """
    out = []
    for u in powabs_args(e):
        d = diff_t(u)
        try:
            s1 = complex(np.asarray(_eval(d, np.float64(0.1234), eps)))
            s2 = complex(np.asarray(_eval(d, np.float64(0.7891), eps)))
            if abs(s1 - s2) < 1e-12 * (abs(s1) + 1) and s1 != 0:
                v = complex(np.asarray(_eval(u, np.float64(0.1234), eps)))
                out.append(0.1234 - (v / s1).real)
        except EvalError:
            pass
    return out


# --- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while source[pos:].strip():
        m = _TOKEN_RE.match(source, pos)
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, val, pos = self.next()
        if val != text:
            raise ParseError(f"expected {text!r}, found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            e = neg(self.term())
        else:
            e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.atom()
        if self.peek()[1] == "^":
            self.next()
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != "num" or "." in val or "e" in val.lower():
                raise ParseError("exponent must be an integer", pos)
            e = powi(e, sign * int(val))
        return e

    def signed_number(self) -> float:
        sign = 1.0
        if self.peek()[1] == "-":
            self.next()
            sign = -1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, found {val!r}", pos)
        return sign * float(val)

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(complex(float(val)))
        if kind == "name":
            if val == "t":
                return Var("t")
            if val == "eps":
                return Var("eps")
            if val == "i":
                return Const(1j)
            if val == "powabs":
                self.expect("(")
                arg = self.expr()
                self.expect(",")
                beta = self.signed_number()
                self.expect(")")
                return PowAbs(arg, beta)
            if val == "neg" or val in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return neg(arg) if val == "neg" else Fun(val, arg)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_expression(source: str) -> Expr:
    """Parse source text into an Expr; raises ParseError with position."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()
