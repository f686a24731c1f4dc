"""Lagrangian density models over field invariants.

A model is a scalar function of up to three invariants:

* ``z`` - the scalar-field kinetic invariant,
* ``a`` - the quadratic field-strength invariant of electrodynamics,
* ``b`` - the pseudoscalar field-strength invariant.

Models come from a small built-in catalog (families whose exceptionality
status is known in closed form) or from expression text parsed by
``parse_lagrangian``.  Either way the evaluator is polymorphic: fed plain
floats it returns a float, and fed jets of one type it returns the
model's jet of that type, with the slots its reader needs
(``LagrangianModel.jet_at`` picks the type from the number of
variables and the order).  Arrays (and jets with array slots) evaluate
a whole grid of points at once.

The expression grammar is deliberately tiny: ``+ - * / ^`` with numeric
literals, ``sqrt``, and the invariant names.  ``^`` binds tighter than
unary minus and only accepts integer or half-integer literal exponents so
that jet arithmetic never needs logarithms of negative values.  One
regular expression splits the text into tokens: after optional
whitespace, a numeric literal of ASCII digits (``2``, ``2.``, ``.5``,
``1e-3``), an ASCII identifier, or one of ``+ - * / ^ ( )``; any other
character is a parse error at its offset.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Callable, NoReturn

import numpy as np

from .errors import BadParams, DomainError, KindError, ParseError, UnknownModel
from .jets import (JETS, TINY, InvariantPoint, Jet2, Jet2ab, Jet3, Jet3a,
                   check_domain, divide, power, sqrt as _sqrt)


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
        """The variables of the kind's primary jet: z for a Scalar model,
        (a, b) for the others, whose readers take (a, b)-jets (an L(a)
        model's b-slots are zero)."""
        return ("z",) if self is Kind.Scalar else ("a", "b")


_SCALAR = Kind.Scalar  # bound once: jet2_at tests it per simple-wave state

_KIND_VARS = {
    Kind.Scalar: ("z",),
    Kind.VectorAlpha: ("a",),
    Kind.VectorAlphaBeta: ("a", "b"),
    Kind.VectorScalar: ("a", "b", "z"),
}

# (number of variables, order) -> the jet type with exactly those slots
# (first-order jets are built from a jet's slots, not from the model)
_JET_TYPES = {(1, 2): Jet2, (1, 3): Jet3a, (2, 2): Jet2ab, (2, 3): Jet3}


def kind_from_text(text: str) -> Kind:
    for k in Kind:
        if k.value == text:
            return k
    names = ", ".join(k.value for k in Kind)
    raise BadParams(f"unknown kind {text!r}; expected one of: {names}")


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def _binop(op: str, left: Callable, right: Callable) -> Callable:
    """The function of env for ``left op right``: the left operand is
    evaluated first, and + - * are Python's operators, so a float on
    either side reaches the jet rules through reflected dispatch."""
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    return lambda env: divide(left(env), right(env))


def _pow(base: Callable, e: float) -> Callable:
    """The function of env for ``base ^ e``, e a literal exponent."""
    def fn(env):
        x = base(env)
        if isinstance(x, JETS):
            return x ** e
        x = x if isinstance(x, np.ndarray) else float(x)
        if e == int(e):
            return power(x, int(e))
        x = check_domain(x, x < TINY,
                         "fractional power of a non-positive value {:.6g}")
        return power(x, e)
    return fn


# ---------------------------------------------------------------------------
# Tokenizer + recursive-descent parser
# ---------------------------------------------------------------------------

# After optional whitespace, group 1 is a token: a numeric literal, an
# identifier or an operator, in ASCII only (str.isdigit and float() also
# take other scripts' digits).  Group 2 is any other character, an error.
_TOKEN = re.compile(r"""\s*(?:
    ( [0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)? | \.[0-9]+
    | [A-Za-z_][A-Za-z_0-9]*
    | [-+*/^()] )
    | (\S) )""", re.VERBOSE)

_NUMBER_START = frozenset("0123456789.")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_VALID_VARS = ("a", "b", "z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """``(text, offset)`` pairs, ended by ``("", len(text))``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        token, bad = m.groups()
        if bad is not None:
            # a digit always starts a literal, so only a lone "." is left
            message = ("malformed number" if bad == "."
                       else f"unexpected character {bad!r}")
            raise ParseError(message, m.start(2))
        tokens.append((token, m.start(1)))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    """Each production returns a function of the env dict; ``variables``
    collects the invariant names the text uses."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: set[str] = set()

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str) -> NoReturn:
        raise ParseError(message, self.tokens[self.pos][1])

    def expect(self, text: str, what: str) -> None:
        if self.peek() != text:
            self.fail(f"expected {what}")
        self.pos += 1

    def parse(self) -> Callable:
        fn = self.binary()
        if self.peek():
            self.fail(f"unexpected trailing input {self.peek()!r}")
        return fn

    def binary(self, level: int = 1) -> Callable:
        """Operators of ``level`` or tighter; each operator's right operand
        binds tighter than it, so ``+ - * /`` associate to the left."""
        fn = self.unary()
        while _PRECEDENCE.get(self.peek(), 0) >= level:
            op = self.advance()[0]
            fn = _binop(op, fn, self.binary(_PRECEDENCE[op] + 1))
        return fn

    def unary(self) -> Callable:
        """``-`` unary, or an atom with a left-associative ``^`` chain, so
        ``^`` binds tighter than unary minus."""
        if self.peek() == "-":
            self.pos += 1
            arg = self.unary()
            return lambda env: -arg(env)
        fn = self.atom()
        while self.peek() == "^":
            self.pos += 1
            fn = _pow(fn, self.exponent())
        return fn

    def exponent(self) -> float:
        sign = 1.0
        if self.peek() == "-":
            self.pos += 1
            sign = -1.0
        if self.peek()[:1] not in _NUMBER_START:
            self.fail("exponent must be a numeric literal")
        text, offset = self.advance()
        value = float(text)
        # 2.0 * value overflows for literals from about 9e307 up
        twice = 2.0 * value
        if not math.isfinite(twice) or twice != int(twice):
            raise ParseError(
                "exponent must be an integer or half-integer literal", offset)
        return sign * value

    def atom(self) -> Callable:
        text, offset = self.advance()
        if text[:1] in _NUMBER_START:
            value = float(text)
            return lambda env: value
        if text == "(":
            inner = self.binary()
            self.expect(")", "')'")
            return inner
        if text == "sqrt":
            self.expect("(", "'(' after sqrt")
            inner = self.binary()
            self.expect(")", "')'")
            return lambda env: _sqrt(inner(env))
        if text in _VALID_VARS:
            self.variables.add(text)
            return lambda env: env[text]
        if not text:
            raise ParseError("unexpected end of input", offset)
        if text[0] in "+-*/^)":
            raise ParseError(f"unexpected token {text!r}", offset)
        raise ParseError(f"unknown identifier {text!r}", offset)


def parse_lagrangian(text: str, kind: Kind | str) -> Callable:
    """Parse expression text into a function of the env dict, checking
    variables against the model kind."""
    if isinstance(kind, str):
        kind = kind_from_text(kind)
    parser = _Parser(text)
    fn = parser.parse()
    allowed = set(kind.variables)
    bad = sorted(parser.variables - allowed)
    if bad:
        raise KindError(
            f"variable(s) {', '.join(bad)} not allowed for kind {kind.value};"
            f" allowed: {', '.join(sorted(allowed))}")
    return fn


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianModel:
    """A Lagrangian density over invariants, with kind, guard and name."""

    name: str
    kind: Kind
    fn: Callable  # maps an env dict of jet/float/array values to one
    guard: Callable[[dict], bool] | None = None

    def _eval(self, env: dict):
        try:
            return self.fn(env)
        except ZeroDivisionError:
            raise DomainError("division by zero while evaluating "
                              f"{self.name}") from None

    def value_at(self, point: InvariantPoint):
        """The model's value: a float, or an array on a set of points."""
        out = self._eval({name: point.get(name)
                          for name in self.kind.variables})
        return out if isinstance(out, np.ndarray) else float(out)

    def jet_at(self, point: InvariantPoint,
               wrt: tuple[str, ...] | None = None, order: int = 3):
        """The jet of ``order`` in the variables ``wrt`` (default: the
        kind's ``jet_variables``), of the type that carries exactly those
        slots (``_JET_TYPES``); the first variable rides slot a.  A
        variable the model does not read keeps zero slots, and a constant
        output is wrapped in the same type."""
        names = self.kind.jet_variables if wrt is None else wrt
        if len(names) > 2:
            raise ValueError("a jet covers at most two variables")
        jet_type = _JET_TYPES.get((len(names), order))
        if jet_type is None:
            raise ValueError(f"no jet of order {order} in {len(names)} "
                             "variable(s)")
        env = {name: point.get(name) for name in self.kind.variables}
        for slot, name in zip("ab", names):
            if name in env:
                env[name] = jet_type.variable(env[name], slot)
        out = self._eval(env)
        if not isinstance(out, jet_type):
            out = jet_type.constant(out)
        return out

    def jet2_at(self, z: float) -> Jet2:
        """Order-2 jet in z of a Scalar model at the float z: the slots f,
        fa and faa of ``jet_at`` there, bit for bit."""
        if self.kind is not _SCALAR:
            raise KindError("an order-2 jet in z needs a model in the "
                            "field invariant z")
        out = self._eval({"z": Jet2._of(z, 1.0, 0.0)})  # the variable z
        if not isinstance(out, Jet2):
            out = Jet2.constant(out)
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
    return LagrangianModel(
        name=name or text.strip(),
        kind=kind,
        fn=parse_lagrangian(text, kind),
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
    )


def _sqrt_family(k: float, d: float, c: float) -> LagrangianModel:
    return LagrangianModel(
        name=f"sqrt-family[{k:g},{d:g},{c:g}]", kind=Kind.VectorAlpha,
        fn=lambda env: k + power(d + c * env["a"], 0.5),
        guard=lambda env: d + c * env["a"] > 0.0,
    )


def _alpha_over_beta() -> LagrangianModel:
    return LagrangianModel(
        name="alpha-over-beta", kind=Kind.VectorAlphaBeta,
        fn=lambda env: divide(env["a"], env["b"]),
        guard=lambda env: abs(env["b"]) > 1e-12,
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
    if not all(map(math.isfinite, values)):
        raise BadParams(f"parameters for {name!r} must be finite, got "
                        + ",".join(f"{v:g}" for v in values))
    return factory(*values)


def builtin_names(kinds: tuple[Kind, ...] = tuple(Kind)) -> tuple[str, ...]:
    """The sorted names of the builtins whose models have one of these
    kinds (a builtin's kind does not depend on its parameters)."""
    return tuple(name for name, (arity, factory) in sorted(_CATALOG.items())
                 if factory(*[1.0] * arity).kind in kinds)
