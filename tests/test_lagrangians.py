from __future__ import annotations

import math

import numpy as np
import pytest

from cewave import charsys, jets
from cewave.ce import classify
from cewave.charsys import FieldBackground, fresnel_batch
from cewave.errors import BadParams, KindError, ParseError, UnknownModel
from cewave.jets import InvariantPoint, Jet3
from cewave.lagrangians import (
    Kind,
    LagrangianModel,
    builtin,
    builtin_names,
    from_expression,
    kind_from_text,
    parse_lagrangian,
)
from cewave.rays import QuarticHamiltonian


def test_parse_maxwell_matches_builtin():
    expr = from_expression("-a/2", "alpha")
    ref = builtin("maxwell")
    rng = np.random.default_rng(1)
    for a in rng.uniform(-2.0, 2.0, size=25):
        p = InvariantPoint(a=float(a))
        assert expr.jet_at(p).as_tuple() == ref.jet_at(p).as_tuple()


def test_parse_born_infeld_text():
    expr = from_expression("1 - sqrt(1 + a - b^2)", "alpha-beta")
    ref = builtin("born-infeld")
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = float(rng.uniform(-0.4, 1.5))
        b = float(rng.uniform(-0.9, 0.9))
        p = InvariantPoint(a=a, b=b)
        got = expr.jet_at(p).as_tuple()
        want = ref.jet_at(p).as_tuple()
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_parse_error_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse_lagrangian("foo(a)", Kind.VectorAlpha)
    assert err.value.offset == 0


@pytest.mark.parametrize("text, offset", [
    ("1 + \u00e9", 4),     # e with an acute accent
    ("\uff41", 0),         # fullwidth a
    ("a\u00e9", 1),
])
def test_parse_error_non_ascii_letter(text, offset):
    with pytest.raises(ParseError) as err:
        parse_lagrangian(text, Kind.VectorAlpha)
    assert err.value.offset == offset
    assert str(err.value) == f"unexpected character {text[offset]!r}"


@pytest.mark.parametrize("text, offset", [
    ("\u0661 + a", 0),    # Arabic-Indic digit one
    ("1\u0665 + a", 1),   # ASCII 1, then Arabic-Indic five
    ("a\u00b2", 1),       # superscript two
    ("\uff11*a", 0),      # fullwidth one
])
def test_parse_error_non_ascii_digit(text, offset):
    # numeric literals are ASCII digits only, although str.isdigit and
    # float() also take other scripts' digits
    with pytest.raises(ParseError) as err:
        parse_lagrangian(text, Kind.VectorAlpha)
    assert err.value.offset == offset
    assert str(err.value) == f"unexpected character {text[offset]!r}"


@pytest.mark.parametrize("text, offset, message", [
    (".", 0, "malformed number"),
    ("1 + .e2", 4, "malformed number"),
    ("a b", 2, "unexpected trailing input 'b'"),
    ("sqrt a", 5, "expected '(' after sqrt"),
    ("sqrt(a", 6, "expected ')'"),
    ("x", 0, "unknown identifier 'x'"),
    ("a +", 3, "unexpected end of input"),
    ("", 0, "unexpected end of input"),
    ("a + *", 4, "unexpected token '*'"),
    ("a + )", 4, "unexpected token ')'"),
    ("a ** 2", 3, "unexpected token '*'"),
    ("a^-b", 3, "exponent must be a numeric literal"),
    ("a^0.3", 2, "exponent must be an integer or half-integer literal"),
    # 1e999 reads as infinity, and 1e308 overflows when doubled
    ("a^1e999", 2, "exponent must be an integer or half-integer literal"),
    ("a^1e308", 2, "exponent must be an integer or half-integer literal"),
])
def test_parse_error_message_and_offset(text, offset, message):
    with pytest.raises(ParseError) as err:
        parse_lagrangian(text, Kind.VectorAlphaBeta)
    assert (str(err.value), err.value.offset) == (message, offset)


def test_parse_error_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_lagrangian("(1 + a", Kind.VectorAlpha)


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError):
        parse_lagrangian("1 + a) ", Kind.VectorAlpha)


def test_parse_error_malformed_exponent():
    with pytest.raises(ParseError):
        parse_lagrangian("a^b", Kind.VectorAlphaBeta)
    with pytest.raises(ParseError):
        parse_lagrangian("a^0.3", Kind.VectorAlpha)


def test_half_integer_exponent_accepted():
    fn = parse_lagrangian("(1 + a)^0.5", Kind.VectorAlpha)
    assert fn({"a": 0.44}) == pytest.approx(1.2)


def test_kind_error_for_disallowed_variable():
    with pytest.raises(KindError):
        parse_lagrangian("z + a", Kind.VectorAlpha)
    with pytest.raises(KindError):
        parse_lagrangian("b", Kind.Scalar)
    # and the same text is fine when the kind allows it
    parse_lagrangian("z", Kind.Scalar)


def test_precedence_unary_minus_vs_power():
    # ^ binds tighter than unary minus: -a^2 is -(a^2)
    fn = parse_lagrangian("-a^2", Kind.VectorAlpha)
    assert fn({"a": 3.0}) == -9.0


def test_precedence_left_associativity():
    fn = parse_lagrangian("2 - 3 - 4", Kind.VectorAlpha)
    assert fn({}) == -5.0
    fn = parse_lagrangian("24 / 4 / 2", Kind.VectorAlpha)
    assert fn({}) == 3.0
    fn = parse_lagrangian("a^2^3", Kind.VectorAlpha)
    assert fn({"a": 2.0}) == 64.0  # (2^2)^3


def test_negative_exponent_literal():
    fn = parse_lagrangian("a^-1", Kind.VectorAlpha)
    assert fn({"a": 4.0}) == 0.25


def test_parser_matches_python_eval_random_points():
    # ^ binds tighter than unary minus and - and / associate to the left,
    # as ** and the operators do in Python
    texts = [
        "1 - sqrt(1 + a - b^2)",
        "-a/2 + 0.1*a^2",
        "a/b",
        "-(a + b)*(a - b)/2",
        "2 - 3 - a",
        "a - (b - 1)",
        "1/2/a",
        "-a^2 + b^-1",
        "sqrt(1 + a^2)*b - a*0.5",
    ]
    rng = np.random.default_rng(3)
    for text in texts:
        fn = parse_lagrangian(text, Kind.VectorAlphaBeta)
        python = text.replace("^", "**").replace("sqrt", "math.sqrt")
        # on jets the Python text runs the same jet methods through
        # Python's own precedence, so every slot matches bit for bit
        on_jets = text.replace("^", "**").replace("sqrt", "jets.sqrt")
        for _ in range(100):
            env = {"a": float(rng.uniform(0.1, 2.0)),
                   "b": float(rng.uniform(0.1, 1.0))}
            assert fn(env) == eval(python, {"math": math}, env), text
            jet_env = {"a": Jet3.variable(env["a"], "a"),
                       "b": Jet3.variable(env["b"], "b")}
            got = fn(jet_env).as_tuple()
            want = eval(on_jets, {"jets": jets}, jet_env).as_tuple()
            assert (np.array(got).tobytes()
                    == np.array(want).tobytes()), text


def test_builtin_unknown_name():
    with pytest.raises(UnknownModel):
        builtin("not-a-model")


def test_builtin_bad_params():
    with pytest.raises(BadParams):
        builtin("sqrt-family", [1.0])
    with pytest.raises(BadParams):
        builtin("maxwell", [1.0])


def test_builtin_catalog_complete():
    assert builtin_names() == (
        "alpha-over-beta", "born-infeld", "maxwell", "perturbed-maxwell",
        "scalar-bi", "scalar-maxwell", "sqrt-family",
    )


def test_builtin_kinds_and_guards():
    bi = builtin("born-infeld")
    assert bi.kind is Kind.VectorAlphaBeta
    assert bi.guard_ok(InvariantPoint(a=0.0, b=0.0))
    assert not bi.guard_ok(InvariantPoint(a=-2.0, b=0.0))

    sq = builtin("sqrt-family", [1.0, 1.0, -2.0])
    assert sq.kind is Kind.VectorAlpha
    assert sq.guard_ok(InvariantPoint(a=0.3))
    assert not sq.guard_ok(InvariantPoint(a=0.6))

    ab = builtin("alpha-over-beta")
    assert not ab.guard_ok(InvariantPoint(a=1.0, b=0.0))


def test_sqrt_family_value():
    model = builtin("sqrt-family", [1.0, 1.0, -2.0])
    p = InvariantPoint(a=0.18)
    assert model.value_at(p) == pytest.approx(1.8)
    jet = model.jet_at(p)
    # d/da of (1 - 2a)^(1/2) = -1/sqrt(1-2a)
    assert jet.fa == pytest.approx(-1.0 / 0.8, rel=1e-13)


def test_perturbed_maxwell_value():
    model = builtin("perturbed-maxwell", [0.1])
    jet = model.jet_at(InvariantPoint(a=1.0))
    assert jet.f == pytest.approx(-0.4)
    assert jet.fa == pytest.approx(-0.5 + 0.2)
    assert jet.faa == pytest.approx(0.2)
    assert jet.faaa == 0.0


def test_vector_scalar_kind_jets_run_over_alpha_beta():
    model = from_expression("a*z + b*b", "vector-scalar")
    point = InvariantPoint(a=0.5, b=0.25, z=2.0)
    jet = model.jet_at(point)
    assert jet.fa == pytest.approx(2.0)   # d/da of a*z at z=2
    assert jet.fb == pytest.approx(0.5)   # d/db of b^2 at b=0.25
    assert model.kind.jet_variables == ("a", "b")
    zjet = model.jet_at(point, wrt=("z",))
    assert zjet.fa == pytest.approx(0.5)  # d/dz of a*z at a=0.5


def test_kind_from_text_roundtrip():
    for kind in Kind:
        assert kind_from_text(kind.value) is kind
    with pytest.raises(BadParams):
        kind_from_text("tensor")


def _jets_built(monkeypatch, call) -> list[str]:
    """The type of each jet ``jet_at`` returns while ``call`` runs."""
    built = []
    jet_at = LagrangianModel.jet_at

    def recorded(self, point, wrt=None, order=3):
        jet = jet_at(self, point, wrt, order)
        built.append(type(jet).__name__)
        return jet

    monkeypatch.setattr(LagrangianModel, "jet_at", recorded)
    call()
    monkeypatch.undo()
    return built


def test_each_reader_builds_the_narrowest_jet(monkeypatch):
    # the (a, z)- and (b, z)-jets of the couplings, the cones and the axis
    # blocks read second-order slots, the z-sector and a scalar model's
    # sectors third-order slots in one variable; the (a, b) primary jets
    # of the field kinds stay Jet3
    def built(call):
        return _jets_built(monkeypatch, call)

    vs = from_expression("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z",
                         "vector-scalar")
    assert built(lambda: classify(vs)) == ["Jet3", "Jet2ab", "Jet2ab",
                                           "Jet3a"]
    assert built(lambda: classify(builtin("scalar-bi"))) == ["Jet3a"]
    assert built(lambda: classify(builtin("maxwell"))) == ["Jet3"]
    assert built(lambda: classify(builtin("born-infeld"))) == ["Jet3"]
    bg = FieldBackground.vector([0.1, 0.2, 0.0], [0.0, 0.3, 0.1])
    for name in ("born-infeld", "maxwell"):
        model = builtin(name)
        assert built(lambda: fresnel_batch(model, bg.E, bg.B,
                                           [1.0, 0.0, 0.0])) == ["Jet2ab"]
        assert built(lambda: QuarticHamiltonian(model, bg)) == ["Jet2ab"]
    Q = np.eye(3)
    assert built(lambda: charsys._vector_axis_matrix(
        builtin("maxwell"), Q, np.r_[bg.E, bg.B])) == ["Jet2"]
    assert built(lambda: charsys._scalar_axis_matrix(
        builtin("scalar-bi"), Q, np.array([0.3, 0.1, 0.0, 0.2]))) == ["Jet2"]
