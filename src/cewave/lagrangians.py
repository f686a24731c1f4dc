"""Lagrangian density models over field invariants.

A model is a scalar function of up to three invariants:

* ``z`` - the scalar-field kinetic invariant,
* ``a`` - the quadratic field-strength invariant of electrodynamics,
* ``b`` - the pseudoscalar field-strength invariant.

Models come from a small built-in catalog (families whose exceptionality
status is known in closed form) or from expression text parsed by
``parse_lagrangian``.  Either way the evaluator is polymorphic: fed plain
floats it returns a float, fed ``Jet3`` values it returns the full
third-order jet, which is what every downstream residual needs.  Arrays
(and jets with array slots) evaluate a whole grid of points at once.

The expression grammar is deliberately tiny: ``+ - * / ^`` with numeric
literals, ``sqrt``, and the invariant names.  ``^`` binds tighter than
unary minus and only accepts integer or half-integer literal exponents so
that jet arithmetic never needs logarithms of negative values.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParams, DomainError, KindError, ParseError, UnknownModel
from .jets import InvariantPoint, Jet3, check_domain, divide, power
from .jets import sqrt as _sqrt


class Kind(enum.Enum):
    Scalar = "scalar"
    VectorAlpha = "alpha"
    VectorAlphaBeta = "alpha-beta"
    VectorScalar = "vector-scalar"

    @property
    def variables(self) -> tuple[str, ...]:
        return _KIND_VARS[self]

    @property
    def jet_variables(self) -> tuple[str, ...]:
        """Invariants that become jet slots (at most two)."""
        return self.variables[:2]


_KIND_VARS = {
    Kind.Scalar: ("z",),
    Kind.VectorAlpha: ("a",),
    Kind.VectorAlphaBeta: ("a", "b"),
    Kind.VectorScalar: ("a", "b", "z"),
}


def kind_from_text(text: str) -> Kind:
    for k in Kind:
        if k.value == text:
            return k
    names = ", ".join(k.value for k in Kind)
    raise BadParams(f"unknown kind {text!r}; expected one of: {names}")


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class Node:
    """Base AST node. Subclasses implement eval/variables/pretty."""

    PREC = 9

    def eval(self, env):
        raise NotImplementedError

    def variables(self) -> set:
        return set()

    def pretty(self) -> str:
        raise NotImplementedError

    def _child(self, node: "Node", tighter: bool = False) -> str:
        limit = self.PREC + (1 if tighter else 0)
        text = node.pretty()
        if node.PREC < limit:
            return f"({text})"
        return text


@dataclass
class Num(Node):
    value: float
    PREC = 9

    def eval(self, env):
        return self.value

    def pretty(self) -> str:
        v = self.value
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)


@dataclass
class Var(Node):
    name: str
    PREC = 9

    def eval(self, env):
        return env[self.name]

    def variables(self) -> set:
        return {self.name}

    def pretty(self) -> str:
        return self.name


@dataclass
class Neg(Node):
    arg: Node
    PREC = 3

    def eval(self, env):
        return -self.arg.eval(env)

    def variables(self) -> set:
        return self.arg.variables()

    def pretty(self) -> str:
        return "-" + self._child(self.arg, tighter=True)


@dataclass
class BinOp(Node):
    op: str
    left: Node
    right: Node

    _PRECS = {"+": 1, "-": 1, "*": 2, "/": 2}

    @property
    def PREC(self):  # type: ignore[override]
        return self._PRECS[self.op]

    def eval(self, env):
        x = self.left.eval(env)
        y = self.right.eval(env)
        if self.op == "+":
            return x + y
        if self.op == "-":
            return x - y
        if self.op == "*":
            return x * y
        return divide(x, y)

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def pretty(self) -> str:
        # left-associative: the right child needs parens at equal precedence
        # for the non-commutative operators
        lhs = self._child(self.left)
        rhs = self._child(self.right, tighter=self.op in ("-", "/"))
        if self.op in ("+", "-") and isinstance(self.right, Neg):
            rhs = f"({self.right.pretty()})"
        return f"{lhs} {self.op} {rhs}"


@dataclass
class Pow(Node):
    base: Node
    exponent: float
    PREC = 4

    def eval(self, env):
        x = self.base.eval(env)
        if isinstance(x, Jet3):
            return x ** self.exponent
        e = self.exponent
        x = x if isinstance(x, np.ndarray) else float(x)
        if e == int(e):
            return power(x, int(e))
        x = check_domain(x, x < 1e-300,
                         "fractional power of a non-positive value {:.6g}")
        return power(x, e)

    def variables(self) -> set:
        return self.base.variables()

    def pretty(self) -> str:
        e = self.exponent
        etext = str(int(e)) if e == int(e) else repr(e)
        return f"{self._child(self.base, tighter=True)}^{etext}"


@dataclass
class Sqrt(Node):
    arg: Node
    PREC = 9

    def eval(self, env):
        return _sqrt(self.arg.eval(env))

    def variables(self) -> set:
        return self.arg.variables()

    def pretty(self) -> str:
        return f"sqrt({self.arg.pretty()})"


# ---------------------------------------------------------------------------
# Tokenizer + recursive-descent parser
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_VALID_VARS = ("a", "b", "z")


@dataclass
class _Token:
    kind: str  # num | ident | op | lparen | rparen | eof
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if not m:
                raise ParseError("malformed number", i)
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.offset)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1.0
            tok = self.peek()
        if tok.kind != "num":
            raise ParseError("exponent must be a numeric literal", tok.offset)
        self.advance()
        try:
            value = float(tok.text)
        except ValueError:
            raise ParseError("malformed number", tok.offset) from None
        if (2.0 * value) != int(2.0 * value):
            raise ParseError(
                "exponent must be an integer or half-integer literal",
                tok.offset)
        return sign * value

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                return Num(float(tok.text))
            except ValueError:
                raise ParseError("malformed number", tok.offset) from None
        if tok.kind == "ident":
            self.advance()
            if tok.text == "sqrt":
                self.expect("lparen", "'(' after sqrt")
                inner = self.expr()
                self.expect("rparen", "')'")
                return Sqrt(inner)
            if tok.text in _VALID_VARS:
                return Var(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            self.expect("rparen", "')'")
            return inner
        if tok.kind == "eof":
            raise ParseError("unexpected end of input", tok.offset)
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse_lagrangian(text: str, kind: Kind | str) -> Node:
    """Parse expression text, checking variables against the model kind."""
    if isinstance(kind, str):
        kind = kind_from_text(kind)
    ast = _Parser(text).parse()
    allowed = set(kind.variables)
    used = ast.variables()
    bad = sorted(used - allowed)
    if bad:
        raise KindError(
            f"variable(s) {', '.join(bad)} not allowed for kind {kind.value};"
            f" allowed: {', '.join(sorted(allowed))}")
    return ast


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianModel:
    """A Lagrangian density over invariants, with kind, guard and name."""

    name: str
    kind: Kind
    fn: Callable  # maps an env dict of Jet3/float/array values to one
    guard: Callable[[dict], bool] | None = None
    guard_text: str = ""
    depends_on_y: bool = False

    def jet_vars(self) -> tuple[str, ...]:
        return self.kind.jet_variables

    def _env(self, point: InvariantPoint, jet_names: tuple[str, ...]) -> dict:
        env: dict = {}
        for i, name in enumerate(jet_names):
            slot = "a" if i == 0 else "b"
            env[name] = Jet3.variable(point.get(name), slot)
        for name in self.kind.variables:
            if name not in env:
                env[name] = point.get(name)
        return env

    def value_at(self, point: InvariantPoint):
        """The model's value: a float, or an array on a set of points."""
        env = {name: point.get(name) for name in self.kind.variables}
        try:
            out = self.fn(env)
        except ZeroDivisionError:
            raise DomainError("division by zero while evaluating "
                              f"{self.name}") from None
        if isinstance(out, Jet3):
            out = out.f
        return out if isinstance(out, np.ndarray) else float(out)

    def jet_at(self, point: InvariantPoint,
               wrt: tuple[str, ...] | None = None) -> Jet3:
        """Third-order jet with respect to ``wrt`` (default: primary vars)."""
        names = self.jet_vars() if wrt is None else wrt
        if len(names) > 2:
            raise ValueError("a jet covers at most two variables")
        try:
            out = self.fn(self._env(point, names))
        except ZeroDivisionError:
            raise DomainError("division by zero while evaluating "
                              f"{self.name}") from None
        if not isinstance(out, Jet3):
            out = Jet3.constant(out)
        return out

    def guard_ok(self, point: InvariantPoint):
        """Whether the declared guard holds: a bool, or a boolean array on
        a set of points."""
        if self.guard is None:
            return True
        env = {name: point.get(name) for name in self.kind.variables}
        ok = self.guard(env)
        return ok if isinstance(ok, np.ndarray) else bool(ok)

    def point(self, *values: float) -> InvariantPoint:
        """Build an InvariantPoint from positional values in kind order."""
        kw = dict(zip(self.kind.variables, values))
        return InvariantPoint(**kw)


def from_expression(text: str, kind: Kind | str,
                    name: str | None = None) -> LagrangianModel:
    """Wrap parsed expression text as a model (no automatic guard)."""
    if isinstance(kind, str):
        kind = kind_from_text(kind)
    ast = parse_lagrangian(text, kind)
    return LagrangianModel(
        name=name or text.strip(),
        kind=kind,
        fn=ast.eval,
    )


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

def _maxwell() -> LagrangianModel:
    return LagrangianModel(
        name="maxwell", kind=Kind.VectorAlpha,
        fn=lambda env: -env["a"] / 2,
    )


def _born_infeld() -> LagrangianModel:
    return LagrangianModel(
        name="born-infeld", kind=Kind.VectorAlphaBeta,
        fn=lambda env: 1.0 - _sqrt(1.0 + env["a"] - env["b"] * env["b"]),
        guard=lambda env: 1.0 + env["a"] - power(env["b"], 2) > 0.0,
        guard_text="1 + a - b^2 > 0",
    )


def _scalar_maxwell() -> LagrangianModel:
    return LagrangianModel(
        name="scalar-maxwell", kind=Kind.Scalar,
        fn=lambda env: -env["z"],
    )


def _scalar_bi() -> LagrangianModel:
    return LagrangianModel(
        name="scalar-bi", kind=Kind.Scalar,
        fn=lambda env: 1.0 - _sqrt(1.0 + 2.0 * env["z"]),
        guard=lambda env: 1.0 + 2.0 * env["z"] > 0.0,
        guard_text="1 + 2z > 0",
    )


def _sqrt_family(k: float, d: float, c: float) -> LagrangianModel:
    return LagrangianModel(
        name=f"sqrt-family[{k:g},{d:g},{c:g}]", kind=Kind.VectorAlpha,
        fn=lambda env: k + power(d + c * env["a"], 0.5),
        guard=lambda env: d + c * env["a"] > 0.0,
        guard_text=f"{d:g} + {c:g}*a > 0",
    )


def _alpha_over_beta() -> LagrangianModel:
    return LagrangianModel(
        name="alpha-over-beta", kind=Kind.VectorAlphaBeta,
        fn=lambda env: divide(env["a"], env["b"]),
        guard=lambda env: abs(env["b"]) > 1e-12,
        guard_text="|b| > 0",
    )


def _perturbed_maxwell(eps: float) -> LagrangianModel:
    return LagrangianModel(
        name=f"perturbed-maxwell[{eps:g}]", kind=Kind.VectorAlpha,
        fn=lambda env: -env["a"] / 2 + eps * power(env["a"], 2),
    )


_CATALOG: dict[str, tuple[int, Callable[..., LagrangianModel]]] = {
    "maxwell": (0, _maxwell),
    "born-infeld": (0, _born_infeld),
    "scalar-maxwell": (0, _scalar_maxwell),
    "scalar-bi": (0, _scalar_bi),
    "sqrt-family": (3, _sqrt_family),
    "alpha-over-beta": (0, _alpha_over_beta),
    "perturbed-maxwell": (1, _perturbed_maxwell),
}


def builtin(name: str, params: list[float] | None = None) -> LagrangianModel:
    """Instantiate a catalog model by name."""
    params = list(params or [])
    if name not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise UnknownModel(f"unknown builtin {name!r}; known: {known}")
    arity, factory = _CATALOG[name]
    if len(params) != arity:
        raise BadParams(
            f"builtin {name!r} takes {arity} parameter(s), got {len(params)}")
    try:
        values = [float(p) for p in params]
    except (TypeError, ValueError):
        raise BadParams(f"parameters for {name!r} must be numbers") from None
    return factory(*values)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))
