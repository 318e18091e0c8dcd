"""Phase-space observables and the small expression language describing them.

Grammar (whitespace is free between tokens)::

    expression ::= ['+'|'-'] term (('+'|'-') term)*
    term       ::= factor ('*' factor)*
    factor     ::= atom ('^' integer)?
    atom       ::= 'x' | 'xi' | number | 'exp' '(' expression ')'
                 | '(' expression ')'

Numbers are nonnegative decimal literals (integer, decimal point, optional
exponent); negative constants are written with the leading sign of the
enclosing expression, as in ``exp(-x^2 - xi^2)``.

Parsing produces a small AST.  Observables know their routing class:

* ``position_only``  -- no use of ``xi`` (constants included);
* ``momentum_only``  -- no use of ``x``;
* ``split``          -- a sum of pure-x and pure-xi terms;
* ``general``        -- anything else.

Apart from its routing class, an observable may factor as f(x) g(xi):
``Observable.product_parts`` finds such factors in products, powers and
signed copies of one-variable factors and in exponentials of split sums
(parentheses included, as in ``exp(-(x^2 + xi^2))``), which is what the
Weyl build reads (``quantize.build_weyl_observable``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObservableExpr",
    "ObservableParseError",
    "Observable",
    "parse_observable",
    "tokenize",
]


class ObservableParseError(ValueError):
    """Syntax error with the offset of the offending token."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


# ---------------------------------------------------------------------------
# AST


class ObservableExpr:
    """Base class for expression nodes."""

    def eval(self, x, xi):
        raise NotImplementedError

    def eval_scalar(self, x: float, xi: float) -> float:
        """Reference evaluator: plain Python recursion, no numpy."""
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(ObservableExpr):
    value: float

    def eval(self, x, xi):
        return np.full(np.broadcast(np.asarray(x), np.asarray(xi)).shape, self.value)

    def eval_scalar(self, x, xi):
        return self.value

    def variables(self):
        return frozenset()

    def to_string(self):
        return format(self.value, ".17g")


@dataclass(frozen=True)
class Var(ObservableExpr):
    name: str  # "x" or "xi"

    def eval(self, x, xi):
        v = np.asarray(x if self.name == "x" else xi, dtype=float)
        return np.broadcast_to(v, np.broadcast(np.asarray(x), np.asarray(xi)).shape)

    def eval_scalar(self, x, xi):
        return float(x if self.name == "x" else xi)

    def variables(self):
        return frozenset((self.name,))

    def to_string(self):
        return self.name


@dataclass(frozen=True)
class Sum(ObservableExpr):
    # (sign, term) pairs; sign is +1.0 or -1.0
    terms: tuple[tuple[float, ObservableExpr], ...]

    def eval(self, x, xi):
        out = None
        for s, t in self.terms:
            v = s * np.asarray(t.eval(x, xi))
            out = v if out is None else out + v
        return out

    def eval_scalar(self, x, xi):
        return sum(s * t.eval_scalar(x, xi) for s, t in self.terms)

    def variables(self):
        return frozenset().union(*(t.variables() for _, t in self.terms))

    def to_string(self):
        parts = []
        for i, (s, t) in enumerate(self.terms):
            if i == 0:
                parts.append(("-" if s < 0 else "") + t.to_string())
            else:
                parts.append((" - " if s < 0 else " + ") + t.to_string())
        return "".join(parts)


@dataclass(frozen=True)
class Prod(ObservableExpr):
    factors: tuple[ObservableExpr, ...]

    def eval(self, x, xi):
        out = None
        for f in self.factors:
            v = np.asarray(f.eval(x, xi))
            out = v if out is None else out * v
        return out

    def eval_scalar(self, x, xi):
        out = 1.0
        for f in self.factors:
            out *= f.eval_scalar(x, xi)
        return out

    def variables(self):
        return frozenset().union(*(f.variables() for f in self.factors))

    def to_string(self):
        parts = []
        for f in self.factors:
            s = f.to_string()
            if isinstance(f, Sum):
                s = f"({s})"
            parts.append(s)
        return " * ".join(parts)


@dataclass(frozen=True)
class Pow(ObservableExpr):
    base: ObservableExpr
    exponent: int

    def eval(self, x, xi):
        return np.asarray(self.base.eval(x, xi)) ** self.exponent

    def eval_scalar(self, x, xi):
        return self.base.eval_scalar(x, xi) ** self.exponent

    def variables(self):
        return self.base.variables()

    def to_string(self):
        s = self.base.to_string()
        if isinstance(self.base, (Sum, Prod, Pow)):
            s = f"({s})"
        return f"{s}^{self.exponent}"


@dataclass(frozen=True)
class Exp(ObservableExpr):
    arg: ObservableExpr

    def eval(self, x, xi):
        return np.exp(self.arg.eval(x, xi))

    def eval_scalar(self, x, xi):
        import math

        return math.exp(self.arg.eval_scalar(x, xi))

    def variables(self):
        return self.arg.variables()

    def to_string(self):
        return f"exp({self.arg.to_string()})"


@dataclass(frozen=True)
class Group(ObservableExpr):
    """Explicit parentheses, kept so print -> parse round-trips exactly."""

    inner: ObservableExpr

    def eval(self, x, xi):
        return self.inner.eval(x, xi)

    def eval_scalar(self, x, xi):
        return self.inner.eval_scalar(x, xi)

    def variables(self):
        return self.inner.variables()

    def to_string(self):
        return f"({self.inner.to_string()})"


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_NAMES = {
    "+": "'+'", "-": "'-'", "*": "'*'", "^": "'^'",
    "(": "'('", ")": "')'",
}


def tokenize(text: str) -> list[tuple[str, object, int]]:
    """Split into (kind, value, offset) tokens; kinds: op, num, name, end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    k += 1
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            try:
                val = float(text[i:j])
            except ValueError:
                raise ObservableParseError("malformed number", i)
            tokens.append(("num", val, i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("x", "xi", "exp"):
                raise ObservableParseError(
                    f"unknown name {word!r}", i, ("x", "xi", "exp", "number"))
            tokens.append(("name", word, i))
            i = j
            continue
        raise ObservableParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ObservableParseError(
                f"unexpected {self._describe()}", off, (_TOKEN_NAMES[op],))
        return self.advance()

    def _describe(self):
        kind, val, _ = self.peek()
        if kind == "end":
            return "end of input"
        if kind == "op":
            return f"token {val!r}"
        return f"{kind} {val!r}"

    def parse(self) -> ObservableExpr:
        e = self.expression()
        kind, _, off = self.peek()
        if kind != "end":
            raise ObservableParseError(f"unexpected {self._describe()}", off,
                                       ("'+'", "'-'", "'*'", "end of input"))
        return e

    def expression(self) -> ObservableExpr:
        terms = []
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1.0 if val == "-" else 1.0
        terms.append((sign, self.term()))
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                terms.append((-1.0 if val == "-" else 1.0, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] > 0:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> ObservableExpr:
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self) -> ObservableExpr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, off = self.peek()
            if kind != "num" or float(val) != int(val):
                raise ObservableParseError(
                    f"unexpected {self._describe()}", off, ("integer",))
            self.advance()
            return Pow(base, int(val))
        return base

    def atom(self) -> ObservableExpr:
        kind, val, off = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(val))
        if kind == "name":
            self.advance()
            if val in ("x", "xi"):
                return Var(val)
            self.expect_op("(")
            inner = self.expression()
            self.expect_op(")")
            return Exp(inner)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.expression()
            self.expect_op(")")
            return Group(inner)
        raise ObservableParseError(
            f"unexpected {self._describe()}", off,
            ("'x'", "'xi'", "number", "'exp'", "'('"))


@dataclass(frozen=True)
class Observable:
    """A parsed observable with routing metadata and an identity string."""

    expr: ObservableExpr

    @property
    def routing(self) -> str:
        """The routing class of ``expr`` (see the module docstring)."""
        vars_ = self.expr.variables()
        if "xi" not in vars_:
            return "position_only"
        if "x" not in vars_:
            return "momentum_only"
        terms = self.expr.terms if isinstance(self.expr, Sum) else ((1.0, self.expr),)
        if all(len(t.variables()) <= 1 for _, t in terms):
            return "split"
        return "general"

    @property
    def id(self) -> str:
        return self.expr.to_string()

    def __call__(self, x, xi):
        return self.expr.eval(x, xi)

    def split_parts(self) -> tuple[ObservableExpr | None, ObservableExpr | None]:
        """(pure-x part, pure-xi part); only valid for split routing.

        Constant terms are attached to the position part.
        """
        if self.routing == "position_only":
            return self.expr, None
        if self.routing == "momentum_only":
            return None, self.expr
        if self.routing != "split":
            raise ValueError("observable does not split")
        xs: list[tuple[float, ObservableExpr]] = []
        xis: list[tuple[float, ObservableExpr]] = []
        terms = self.expr.terms if isinstance(self.expr, Sum) else ((1.0, self.expr),)
        for s, t in terms:
            (xis if "xi" in t.variables() else xs).append((s, t))

        def pack(ts):
            if not ts:
                return None
            if len(ts) == 1 and ts[0][0] > 0:
                return ts[0][1]
            return Sum(tuple(ts))

        return pack(xs), pack(xis)

    def product_parts(self) -> tuple[ObservableExpr, ObservableExpr] | None:
        """(x-factor f, xi-factor g) with f(x) g(xi) equal to the observable,
        or None when it does not factor that way.

        Recognised: an expression of at most one variable; a product of
        factors that each factor; a power of a factor that factors, as
        (f^k, g^k); a signed factor, its sign going to the x-factor; exp of
        a split sum, exp(p(x) + q(xi)) = exp(p(x)) exp(q(xi)), parenthesized
        sums in the argument opened; and parentheses around a factor.
        Constants go to the x-factor, and a missing factor is the constant 1.
        """
        return _factor(self.expr)


_ONE = Const(1.0)


def _factor(e: ObservableExpr) -> tuple[ObservableExpr, ObservableExpr] | None:
    """:meth:`Observable.product_parts` of one expression node."""
    vars_ = e.variables()
    if "xi" not in vars_:
        return e, _ONE
    if "x" not in vars_:
        return _ONE, e
    if isinstance(e, Group):
        return _factor(e.inner)
    if isinstance(e, Sum) and len(e.terms) == 1:
        (sign, term), = e.terms
        parts = _factor(term)
        return None if parts is None else (Sum(((sign, parts[0]),)), parts[1])
    if isinstance(e, Pow):
        parts = _factor(e.base)
        return None if parts is None else (Pow(parts[0], e.exponent), Pow(parts[1], e.exponent))
    if isinstance(e, Prod):
        parts = [_factor(f) for f in e.factors]
        if None in parts:
            return None
        return _product(f for f, _ in parts), _product(g for _, g in parts)
    if isinstance(e, Exp):
        arg = Observable(Sum(tuple(_signed_terms(e.arg, 1.0))))
        if arg.routing == "split":
            p, q = arg.split_parts()
            return Exp(p), Exp(q)
    return None


def _signed_terms(e: ObservableExpr, sign: float):
    """(sign, term) pairs of ``e``, with parenthesized sums opened."""
    if isinstance(e, Group):
        yield from _signed_terms(e.inner, sign)
    elif isinstance(e, Sum):
        for s, t in e.terms:
            yield from _signed_terms(t, sign * s)
    else:
        yield sign, e


def _product(factors) -> ObservableExpr:
    """The product of ``factors``, leaving out the 1 that stands for a missing factor."""
    kept = [f for f in factors if f is not _ONE]
    if not kept:
        return _ONE
    return kept[0] if len(kept) == 1 else Prod(tuple(kept))


def parse_observable(text: str) -> Observable:
    """Parse the expression language into an Observable.

    Raises ObservableParseError with the offset of the first offending token
    and the token classes that would have been accepted there.
    """
    expr = _Parser(text).parse()
    return Observable(expr=expr)
