"""Expression parser and evaluator."""

import numpy as np
import pytest

from delaylab.expr import (DomainFaultError, ExpressionError, ExprSyntaxError,
                           UnknownNameError, evaluate, parse)
from delaylab.model import model_from_expressions


def test_arithmetic_precedence():
    assert parse("1 + 2*3")(0.0, 0.0, 0.0) == 7.0
    assert parse("(1 + 2)*3")(0.0, 0.0, 0.0) == 9.0
    assert parse("2 - 3 - 4")(0.0, 0.0, 0.0) == -5.0
    assert parse("12 / 3 / 2")(0.0, 0.0, 0.0) == 2.0
    assert parse("2^3^2")(0.0, 0.0, 0.0) == 512.0  # right-associative


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2")(3.0, 0.0, 0.0) == -9.0
    assert parse("(-x)^2")(3.0, 0.0, 0.0) == 9.0
    assert parse("x^-2")(2.0, 0.0, 0.0) == 0.25


def test_variables_and_functions():
    e = parse("x + z^2 - eps")
    assert e(1.0, 2.0, 0.5) == 4.5
    assert parse("exp(0)")(0, 0, 0) == 1.0
    assert parse("log(exp(1))")(0, 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert parse("sqrt(x)")(9.0, 0, 0) == 3.0
    assert parse("abs(x)")(-3.5, 0, 0) == 3.5
    assert parse("sin(x)^2 + cos(x)^2")(0.7, 0, 0) == pytest.approx(1.0)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x")
    with pytest.raises(UnknownNameError):
        parse("x(3)")  # x is not a function


def test_empty_source_rejected_at_offset_zero():
    with pytest.raises(ExprSyntaxError) as info:
        parse("")
    assert info.value.offset == 0


def test_syntax_error_carries_byte_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x + + x")
    assert info.value.offset == 4
    assert info.value.source == "x + + x"


def test_unknown_identifier_lists_alternatives():
    with pytest.raises(UnknownNameError) as info:
        parse("x + y")
    msg = str(info.value)
    assert "y" in msg and "x" in msg and "z" in msg and "eps" in msg


def test_unknown_function_lists_alternatives():
    with pytest.raises(UnknownNameError) as info:
        parse("tan(x)")
    msg = str(info.value)
    assert "tan" in msg and "sin" in msg


def test_domain_faults():
    with pytest.raises(DomainFaultError):
        parse("1/x")(0.0, 0, 0)
    with pytest.raises(DomainFaultError):
        parse("log(x)")(-1.0, 0, 0)
    with pytest.raises(DomainFaultError):
        parse("sqrt(x)")(-1.0, 0, 0)
    with pytest.raises(DomainFaultError):
        parse("x^-1")(0.0, 0, 0)
    with pytest.raises(DomainFaultError):
        parse("x^0.5")(-2.0, 0, 0)
    with pytest.raises(DomainFaultError):
        parse("exp(x)")(1000.0, 0, 0)  # overflow


def test_domain_fault_points_at_subexpression():
    with pytest.raises(DomainFaultError) as info:
        parse("1 + log(x - 2)")(0.0, 0, 0)
    assert "log" in str(info.value)
    assert info.value.source == "1 + log(x - 2)"


def test_expression_errors_are_one_family():
    for bad in ("", "x +", "q", "sin(q)"):
        with pytest.raises(ExpressionError):
            parse(bad)


def test_round_trip_source_reparse():
    rng = np.random.default_rng(20240817)
    sources = (
        "x + z^2 - eps",
        "exp(-x) * (1 + z)",
        "sin(x)*cos(z) + sqrt(abs(x)) / (2 + eps)",
        "x^3 - 2*x + 1",
        "-(x - z)^2 + 0.5",
    )
    for src in sources:
        e = parse(src)
        assert e.source == src
        e2 = parse(e.source)
        for _ in range(25):
            x, z, eps = rng.uniform(-2, 2, size=3)
            a = evaluate(e, x, z, eps)
            b = evaluate(e2, x, z, eps)
            assert a == b
            assert e(x, z, eps) == a


def test_numeric_literals():
    assert parse("1e-3")(0, 0, 0) == 1e-3
    assert parse("2.5E2")(0, 0, 0) == 250.0
    assert parse(".5 + 0.5")(0, 0, 0) == 1.0


def test_non_finite_result_is_fault():
    # overflowing arithmetic is reported as a fault, never returned as inf
    with pytest.raises(DomainFaultError):
        parse("x*x")(1e200, 0, 0)
    with pytest.raises(DomainFaultError):
        parse("x + x")(1e308, 0, 0)


def test_model_faults_carry_the_evaluate_location():
    # a model's f is the compiled closure: the same fault, at the same
    # place, as evaluate on the parsed expression
    cases = (
        ("1 + 1/x", 0.0), ("2 + log(x - 2)", 0.0), ("sqrt(x) + 1", -1.0),
        ("1 + x^-1", 0.0), ("(x)^0.5", -2.0), ("exp(x)", 1000.0),
        ("x*x + 1", 1e200), ("x + x", 1e308), ("1 - 10^x", 400.0),
    )
    for src, x in cases:
        with pytest.raises(DomainFaultError) as direct:
            evaluate(parse(src), x, 0.0, 0.0)
        m = model_from_expressions("m", src, "x", (-1.0, 1.0))
        with pytest.raises(DomainFaultError) as via_model:
            m.f(x, 0.0, 0.0)
        assert via_model.value.offset == direct.value.offset, src
        assert via_model.value.span == direct.value.span, src
        assert str(via_model.value) == str(direct.value), src


def test_domain_fault_spans():
    # (start, end) offsets of the faulting subexpression in the source
    cases = (
        ("1 + 1/x", 0.0, (4, 7)), ("2 + log(x - 2)", 0.0, (4, 14)),
        ("sqrt(x) + 1", -1.0, (0, 7)), ("1 + x^-1", 0.0, (4, 8)),
        ("(x)^0.5", -2.0, (1, 7)), ("exp(x)", 1000.0, (0, 6)),
        ("x*x + 1", 1e200, (0, 3)), ("-(x + x)", 1e308, (2, 7)),
        ("1 - 10^x", 400.0, (4, 8)),
    )
    for src, x, span in cases:
        with pytest.raises(DomainFaultError) as info:
            parse(src)(x, 0.0, 0.0)
        assert info.value.span == span, src
