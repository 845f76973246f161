"""Model registry, construction guards and hypothesis checks."""

import math

import pytest

from delaylab.errors import ModelLookupError, PreconditionError
from delaylab.expr import ExpressionError
from delaylab.model import (InitialData, Model, builtin_names,
                            check_hypotheses, get_model,
                            model_from_expressions, validate_initial)


def test_builtin_names_sorted():
    assert builtin_names() == ("linear", "quadratic", "scaled")


def test_get_model_and_describe():
    m = get_model("linear")
    assert m.name == "linear"
    assert m.f(0.3, 0.0, 0.0) == 1.0
    assert m.g(0.3, 0.0, 0.0) == 0.3
    text = m.describe()
    assert "linear" in text and "g=x" in text and "window" in text


def test_unknown_model_lists_alternatives():
    with pytest.raises(ModelLookupError) as info:
        get_model("cubic")
    msg = str(info.value)
    assert "cubic" in msg
    for name in ("linear", "quadratic", "scaled"):
        assert name in msg


def test_scaled_and_quadratic_evaluators():
    s = get_model("scaled")
    assert s.f(0.0, 0.0, 0.0) == 2.0
    q = get_model("quadratic")
    assert q.g(0.5, 0.0, 0.0) == pytest.approx(0.75)
    assert q.window == (-0.8, 0.8)


def test_hypotheses_pass_for_builtins_at_many_resolutions():
    for name in builtin_names():
        m = get_model(name)
        for grid_n in (16, 64, 1024, 1025):  # odd grid hits x = 0 exactly
            report = check_hypotheses(m, grid_n=grid_n)
            assert report.passed, report.summary()
    assert report.summary().count("PASS") == 3


def test_negative_f_fails_first_check():
    m = model_from_expressions("badf", "-1", "x", (-1.5, 1.5))
    report = check_hypotheses(m)
    assert not report.passed
    check = report.checks[0]
    assert check.name == "f(x,0,0) > 0 on the window"
    assert not check.passed
    coord, value = check.first_violation
    assert coord == -1.5 and value == -1.0
    assert "FAIL" in report.summary()


def test_wrong_g_sign_left_of_turning_point():
    # x + x^2 is positive left of x = -1, so a window reaching past -1 fails
    m = model_from_expressions("widequad", "1", "x + x^2", (-1.5, 0.8))
    report = check_hypotheses(m)
    assert not report.passed
    check = report.checks[1]
    assert check.name == "g(x,0,0) < 0 left of the turning point"
    assert not check.passed
    coord, value = check.first_violation
    assert coord == -1.5 and value == pytest.approx(0.75)


def test_validate_initial_passes_for_builtin():
    m = get_model("linear")
    report = validate_initial(m, InitialData(-1.0, 0.1, 0.05))
    assert report.passed


def test_validate_initial_detects_z_dependent_sign_flip():
    m = model_from_expressions("zflip", "1", "x + 10*z", (-1.5, 1.5))
    report = validate_initial(m, InitialData(-0.5, 0.1, 0.05))
    assert not report.passed
    z_bad, g_bad = report.checks[0].first_violation
    assert z_bad >= 0.05 - 1e-3
    assert g_bad >= 0.0


def test_initial_data_guards():
    with pytest.raises(PreconditionError):
        InitialData(-1.0, 0.0, 0.05)
    with pytest.raises(PreconditionError):
        InitialData(-1.0, -0.1, 0.05)
    with pytest.raises(PreconditionError):
        InitialData(-1.0, 0.1, -0.05)
    with pytest.raises(PreconditionError):
        InitialData(math.nan, 0.1, 0.05)
    d = InitialData(-1.0, 0.1, 0.0)  # eps = 0 is allowed
    assert d.eps == 0.0


def test_validate_initial_guards():
    m = get_model("linear")
    with pytest.raises(PreconditionError):
        validate_initial(m, InitialData(0.5, 0.1, 0.05))  # x0 not negative
    with pytest.raises(PreconditionError):
        validate_initial(m, InitialData(-2.0, 0.1, 0.05))  # outside window
    with pytest.raises(PreconditionError):
        validate_initial(m, InitialData(-1.0, 1.5, 0.05))  # above z_cap


def test_model_construction_guards():
    ok = lambda x, z, eps: 1.0
    with pytest.raises(PreconditionError):
        Model("w", ok, ok, window=(1.0, -1.0))
    with pytest.raises(PreconditionError):
        Model("w", ok, ok, window=(0.5, 1.5))  # no turning point inside
    with pytest.raises(PreconditionError):
        Model("w", ok, ok, window=(-1.0, 1.0), z_cap=0.0)
    with pytest.raises(PreconditionError):
        Model("w", ok, ok, window=(-math.inf, 1.0))


def test_check_hypotheses_grid_guard():
    with pytest.raises(PreconditionError):
        check_hypotheses(get_model("linear"), grid_n=8)


def test_model_from_expressions_propagates_parse_errors():
    with pytest.raises(ExpressionError):
        model_from_expressions("bad", "1 +", "x", (-1.0, 1.0))


def test_dataclasses_replace_swaps_the_evaluators():
    # external instrumentation wraps f and g with dataclasses.replace
    import dataclasses

    for m in (get_model("quadratic"),
              model_from_expressions("custom", "1 + 0.1*z", "x + 0.5*z",
                                     (-1.5, 1.5), z_cap=0.5)):
        twice = dataclasses.replace(m, f=lambda x, z, eps: 2.0,
                                    g=lambda x, z, eps: 3.0 * x)
        assert twice.f(0.2, 0.0, 0.0) == 2.0
        assert twice.g(0.2, 0.0, 0.0) == pytest.approx(0.6)
        assert (twice.name, twice.window, twice.z_cap, twice.g_text) == \
            (m.name, m.window, m.z_cap, m.g_text)
