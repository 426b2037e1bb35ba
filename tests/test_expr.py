"""Expression language: parsing, differentiation, evaluation."""
import numpy as np
import pytest

from hbvp import expr as ex


def test_parse_basic_structure():
    e = ex.parse_expression("t^2 + eps")
    assert isinstance(e, ex.Add)
    assert e.a == ex.Pow(ex.Var("t"), 2)
    assert e.b == ex.Var("eps")


def test_parse_powabs():
    e = ex.parse_expression("powabs(t-0.5, 0.5)")
    assert isinstance(e, ex.PowAbs)
    assert e.beta == 0.5
    assert e.arg == ex.Sub(ex.Var("t"), ex.Const(0.5 + 0j))


def test_parse_imaginary_unit():
    e = ex.parse_expression("i")
    assert e == ex.Const(1j)
    v = ex.evaluate(ex.parse_expression("i*i"), 0.0, 0.0)
    assert abs(v - (-1.0)) < 1e-15


def test_parse_error_position():
    with pytest.raises(ex.ParseError) as exc:
        ex.parse_expression("t + * 3")
    assert "position" in str(exc.value)


@pytest.mark.parametrize("source, message, position", [
    ("exp(t) $", "unexpected character '$'", 7),
    ("t +\t#", "unexpected character '#'", 4),
    ("t 1", "trailing input '1'", 2),
    ("sin(t", "expected ')'", 5),
    ("powabs(t, x)", "expected a number, found 'x'", 10)],
    ids=["character-after-space", "character-after-tab", "trailing-input",
         "unclosed-paren", "powabs-exponent"])
def test_parse_error_names_the_offending_token(source, message, position):
    with pytest.raises(ex.ParseError) as exc:
        ex.parse_expression(source)
    assert str(exc.value).startswith(message)
    assert str(exc.value).endswith(f"(at position {position})")


def test_parse_unknown_identifier():
    with pytest.raises(ex.ParseError):
        ex.parse_expression("tau + 1")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ex.ParseError):
        ex.parse_expression("t^0.5")


def test_eval_examples():
    assert ex.evaluate(ex.parse_expression("t^2+eps"), 2.0, 1.0) == 5.0
    v = ex.evaluate(ex.parse_expression("powabs(t-0, 0.5)"), 0.25, 0.0)
    assert abs(v - 0.5) < 1e-15


def test_eval_vectorized():
    t = np.linspace(0.0, 1.0, 7)
    v = ex.evaluate(ex.parse_expression("sin(t)+eps*t"), t, 2.0)
    assert np.allclose(v, np.sin(t) + 2.0 * t)
    assert v.dtype == complex


def test_eval_division_by_zero():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse_expression("1/t"), 0.0, 0.0)


def test_eval_powabs_singularity():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse_expression("powabs(t, -0.5)"), 0.0, 0.0)
    # nonnegative exponent is fine at the center
    assert ex.evaluate(ex.parse_expression("powabs(t, 0.5)"), 0.0, 0.0) == 0.0


def test_eval_zero_to_negative_power():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse_expression("t^-1"), 0.0, 0.0)


def test_diff_polynomial():
    d = ex.diff_t(ex.parse_expression("t^2"))
    t = np.linspace(-1, 1, 5)
    assert np.allclose(ex.evaluate(d, t, 0.0), 2 * t)


def test_diff_sin():
    d = ex.diff_t(ex.parse_expression("sin(t)"))
    t = np.linspace(0, 3, 9)
    assert np.allclose(ex.evaluate(d, t, 0.0), np.cos(t))


def test_diff_powabs_identity():
    # d/dt |t-c|^b = b |t-c|^(b-1) sign(t-c) away from c
    e = ex.parse_expression("powabs(t-0.5, 1.5)")
    d = ex.diff_t(e)
    t = np.array([0.1, 0.4, 0.6, 0.9])
    expect = 1.5 * np.abs(t - 0.5) ** 0.5 * np.sign(t - 0.5)
    assert np.allclose(ex.evaluate(d, t, 0.0), expect)


def test_diff_quotient_and_sqrt():
    for src in ("1/(t+2)", "sqrt(t+1)", "exp(2*t)*cos(t)"):
        e = ex.parse_expression(src)
        d = ex.diff_t(e)
        t = 0.37
        h = 1e-6
        fd = (ex.evaluate(e, t + h, 0.0) - ex.evaluate(e, t - h, 0.0)) / (2 * h)
        assert abs(ex.evaluate(d, t, 0.0) - fd) < 1e-8 * (1 + abs(fd))


def test_diff_matches_finite_differences_randomized():
    """Central differences at step 1e-5, relative tolerance 1e-6,
    on 100 seeded random (t, eps) pairs, for powabs-free expressions."""
    rng = np.random.default_rng(42)
    sources = ["t^3 - 2*t + eps", "sin(t)*exp(-eps*t)", "cos(2*t)/(t+3)",
               "sqrt(t+2)", "exp(t)*t^2 + eps*sin(t)"]
    exprs = [(ex.parse_expression(s), ex.diff_t(ex.parse_expression(s)))
             for s in sources]
    h = 1e-5
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        eps = rng.uniform(0.0, 1.0)
        for e, d in exprs:
            fd = (ex.evaluate(e, t + h, eps)
                  - ex.evaluate(e, t - h, eps)) / (2 * h)
            sym = complex(np.asarray(ex.evaluate(d, t, eps)))
            assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_substitute_eps():
    e = ex.parse_expression("sin(t)*exp(-eps*t) + eps^2")
    e0 = ex.substitute_eps(e, 0.0)
    t = np.linspace(0, 1, 5)
    assert np.allclose(ex.evaluate(e0, t, 123.0), np.sin(t))


def test_singular_centers():
    e = ex.parse_expression("powabs(t-0.5, 0.5) + powabs(2*t-1.5, 0.25)")
    centers = sorted(ex.singular_centers(e, 0.0))
    assert np.allclose(centers, [0.5, 0.75])
    assert ex.singular_centers(ex.parse_expression("sin(t)"), 0.0) == []


def test_constant_folding_keeps_round_trip_canonical():
    # smart constructors fold constants, so equal trees compare equal
    e = ex.mul(ex.Const(2 + 0j), ex.Const(3 + 0j))
    assert e == ex.Const(6 + 0j)
    assert ex.add(ex.parse_expression("t"), ex.Const(0j)) == ex.Var("t")
