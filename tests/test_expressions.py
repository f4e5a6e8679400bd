"""Parser, printer, evaluation and substitution tests."""

import random
import re
import warnings

import pytest

from kahlerstar.expressions import (
    Add,
    Div,
    EvaluationError,
    Exp,
    ExpressionError,
    HolomorphyClass,
    Literal,
    Log,
    Mul,
    Neg,
    Polynomial,
    Pow,
    Sub,
    Var,
    classify,
    eval_jet,
    eval_value,
    formal_conjugate,
    parse,
    parse_complex,
    substitute,
    to_source,
)
from kahlerstar.jets import Jet
from kahlerstar.verify import RandomChartSpec, random_polynomial, random_potential


def test_parse_product_of_variables():
    ast = parse("z1*zb1", 1)
    assert ast == Mul(Var(1, False), Var(1, True))


def test_parse_log_over_sum():
    ast = parse("log(1+z1*zb1)", 1)
    assert ast == Log(Add(Literal(1.0 + 0j), Mul(Var(1, False), Var(1, True))))


def test_variable_index_out_of_range():
    with pytest.raises(ExpressionError) as err:
        parse("z3", 2)
    assert "out of range" in str(err.value)


@pytest.mark.parametrize(
    "src, message, position",
    [
        ("z1 + * z2", "expected a number, variable or '('", 5),
        ("z1 $ 3", "unexpected character '$'", 3),
        ("é", "unexpected character 'é'", 0),
        ("2in", "unexpected 'name'", 1),
        ("12i3", "unexpected 'name'", 2),
        ("3.5.2", "unexpected 'number'", 3),
        ("", "expected a number, variable or '('", 0),
    ],
    ids=["operator-after-operator", "bad-character", "non-ascii", "imag-unit-before-name",
         "name-after-number", "second-decimal-point", "empty"],
)
def test_syntax_error_reports_position(src, message, position):
    with pytest.raises(ExpressionError) as err:
        parse(src, 2)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_whitespace_separates_tokens_only():
    assert to_source(parse("z1*\tzb1\n+ 2i", 2)) == "z1*zb1+2.0i"


def test_unbalanced_parenthesis():
    with pytest.raises(ExpressionError):
        parse("log(1+z1*zb1", 1)


def test_complex_literals():
    assert parse("2.5", 0) == Literal(2.5 + 0j)
    assert parse("0.5i", 0) == Literal(0.5j)
    assert parse("1+2i", 0) == Literal(1 + 2j)
    assert parse("i", 0) == Literal(1j)
    # unary minus binds loosest
    assert parse_complex("-0.5+0.2i") == -0.5 - 0.2j
    assert parse_complex("0.2i-0.5") == -0.5 + 0.2j


@pytest.mark.parametrize(
    "text",
    ["-0.5", "0.3", "-0.5+0.2i", "0-0.123+0.045i", "-0", "0i", "-0i", "-(0.1-0.2i)",
     "0.2i-0.5", "i", "-i", "(1+2i)^2*i-3", "1/2"],
)
def test_parse_complex_reads_literals_as_their_evaluation_does(text):
    # a literal skips the jet; -0 still reads 0j, as the jet's coefficient sum gives
    assert repr(parse_complex(text)) == repr(eval_value(parse(text, 0), (), ()))


#: constants with no value at all, and the reason their refusal gives
UNEVALUABLE = {"1/0": "reciprocal of a jet with zero constant term", "log(0)": "branch cut"}


@pytest.mark.parametrize(
    "text",
    ["9" * 401, "9" * 401 + "i", "-" + "9" * 401, "9" * 200 + "*" + "9" * 200, *UNEVALUABLE],
)
def test_parse_complex_refuses_a_non_finite_constant(text):
    # with no warning first: an evaluated constant overflows silently, then is refused;
    # a pole or a branch point is refused with the same error, naming the reason
    if text in UNEVALUABLE:
        reason = f"cannot be evaluated: .*{UNEVALUABLE[text]}"
    else:
        reason = "is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"the constant {re.escape(repr(text))} {reason}"):
            parse_complex(text)


def test_integer_powers_only():
    assert parse("z1^3", 1) == Pow(Var(1, False), 3)
    assert parse("z1^-2", 1) == Pow(Var(1, False), -2)
    with pytest.raises(ExpressionError):
        parse("z1^1.5", 1)


def test_eval_monomial_at_origin():
    jet = eval_jet(parse("z1*zb1", 1), (0,), (0,), 2)
    assert jet.coeffs == {(1, 1): 1.0 + 0j}


def test_eval_log_series():
    jet = eval_jet(parse("log(1+z1*zb1)", 1), (0,), (0,), 4)
    assert jet.coeff((1,), (1,)) == pytest.approx(1.0)
    assert jet.coeff((2,), (2,)) == pytest.approx(-0.5)


def test_eval_pole_raises():
    with pytest.raises(EvaluationError):
        eval_jet(parse("1/z1", 1), (0,), (0,), 3)


def test_eval_branch_violation():
    with pytest.raises(EvaluationError):
        eval_jet(parse("log(z1-1)", 1), (0,), (0,), 3)


def test_substitute_moebius():
    e = parse("z1*zb1", 1)
    repl = [parse("z1/(1+z1)", 1), parse("zb1/(1+zb1)", 1)]
    composed = substitute(e, repl)
    expected = parse("(z1/(1+z1))*(zb1/(1+zb1))", 1)
    assert composed == expected


def test_substitute_identity():
    e = parse("log(1+z1*zb1)", 1)
    assert substitute(e, [Var(1, False), Var(1, True)]) == e


def test_substitute_log_exp_inverse():
    e = substitute(parse("log(z1)", 1), [Exp(Var(1, False)), Var(1, True)])
    assert e == Log(Exp(Var(1, False)))
    jet = eval_jet(e, (0,), (0,), 5)
    w = eval_jet(Var(1, False), (0,), (0,), 5)
    assert (jet - w).max_abs() < 1e-12


def test_substitute_arity_mismatch():
    with pytest.raises(ValueError):
        substitute(parse("z2", 2), [Var(1, False), Var(1, True)])


def test_substitution_matches_hand_composition():
    rng = random.Random(23)
    e = parse("z1^2*zb1 + 3*z1 - zb1^2", 1)
    m = [parse("z1+z1^2", 1), parse("zb1-1", 1)]
    composed = substitute(e, m)
    for _ in range(5):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        zb = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        inner_z = eval_value(m[0], (z,), (zb,))
        inner_zb = eval_value(m[1], (z,), (zb,))
        direct = eval_value(e, (inner_z,), (inner_zb,))
        via_subst = eval_value(composed, (z,), (zb,))
        assert abs(direct - via_subst) < 1e-12


def test_classify():
    assert classify(parse("z1^2 + z2", 2)) is HolomorphyClass.HOLOMORPHIC
    assert classify(parse("zb1*z1", 1)) is HolomorphyClass.MIXED
    assert classify(parse("3", 1)) is HolomorphyClass.CONSTANT
    assert classify(parse("zb2^3-zb1", 2)) is HolomorphyClass.ANTIHOLOMORPHIC


def test_formal_conjugate():
    e = parse("(1+2i)*z1^2 + zb2", 2)
    c = formal_conjugate(e)
    assert c == parse("(1-2i)*zb1^2 + z2", 2)


def _random_ast(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.5:
            re_ = round(rng.uniform(-2, 2), 3)
            im = round(rng.uniform(-2, 2), 3) if rng.random() < 0.5 else 0.0
            return Literal(complex(re_, im))
        return Var(rng.randint(1, n), rng.random() < 0.5)
    kind = rng.randint(0, 6)
    if kind == 0:
        return Add(_random_ast(rng, n, depth - 1), _random_ast(rng, n, depth - 1))
    if kind == 1:
        return Sub(_random_ast(rng, n, depth - 1), _random_ast(rng, n, depth - 1))
    if kind == 2:
        return Mul(_random_ast(rng, n, depth - 1), _random_ast(rng, n, depth - 1))
    if kind == 3:
        return Div(_random_ast(rng, n, depth - 1), _random_ast(rng, n, depth - 1))
    if kind == 4:
        return Neg(_random_ast(rng, n, depth - 1))
    if kind == 5:
        return Pow(_random_ast(rng, n, depth - 1), rng.randint(-3, 4))
    return Exp(_random_ast(rng, n, depth - 1))


def test_print_parse_roundtrip():
    # The parser folds literal constants (1+2i, negated literals), so the
    # round trip is checked on parser-normalized trees.
    rng = random.Random(31)
    for _ in range(80):
        normalized = parse(to_source(_random_ast(rng, 2, 3)), 2)
        src = to_source(normalized)
        assert parse(src, 2) == normalized, src


# -- polynomials in closed form -------------------------------------------------


def _reference_jet(expr, z0, zb0, order):
    """Tree walk with jet arithmetic only: constants, coordinates, + - * / **."""
    n = len(z0)
    zero = (0,) * (2 * n)

    def rec(node):
        if isinstance(node, Literal):
            return Jet(n, order, {zero: node.value})
        if isinstance(node, Var):
            v = node.index - 1 + (n if node.barred else 0)
            entries = {zero: (zb0 if node.barred else z0)[node.index - 1]}
            if order >= 1:
                entries[tuple(int(w == v) for w in range(2 * n))] = 1.0
            return Jet(n, order, entries)
        if isinstance(node, Add):
            return rec(node.left) + rec(node.right)
        if isinstance(node, Sub):
            return rec(node.left) - rec(node.right)
        if isinstance(node, Mul):
            return rec(node.left) * rec(node.right)
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Pow):
            return rec(node.base) ** node.exponent
        raise TypeError(node)

    return rec(expr)


@pytest.fixture
def jet_products(monkeypatch):
    """Counts calls of ``Jet.__mul__``, ``Jet.__pow__`` and ``Jet.__add__``."""
    calls = []
    for name in ("__mul__", "__pow__", "__add__"):
        original = getattr(Jet, name)

        def counted(self, other, _original=original, _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(Jet, name, counted)
    return calls


def test_polynomials_evaluate_without_jet_products(jet_products, monkeypatch):
    z0, zb0 = (0.21 - 0.13j, -0.08 + 0.27j), (0.21 + 0.13j, -0.08 - 0.27j)
    rng = random.Random(5)
    polynomials = [
        random_potential(RandomChartSpec(n=2, seed=11)),
        random_polynomial(rng, 2),
        random_polynomial(rng, 2, kind="holomorphic"),
        parse("-(z1^2*zb2)*3i - (2*z2)^3 + zb1^0*0.5", 2),
    ]
    shifts = []
    original = Jet.polynomial

    def counted(cls, *args):
        shifts.append(args)
        return original(*args)

    monkeypatch.setattr(Jet, "polynomial", classmethod(counted))
    # random_potential builds a chart to test positive definiteness
    jet_products.clear()
    got = [eval_jet(p, z0, zb0, 8) for p in polynomials]
    assert jet_products == []
    assert len(shifts) == len(polynomials)  # one Taylor shift per polynomial
    monkeypatch.undo()
    for p, jet in zip(polynomials, got):
        # the generated polynomials are term tables: the reference walks their parsed trees
        expected = _reference_jet(parse(to_source(p), 2), z0, zb0, 8)
        assert (jet - expected).max_abs() <= 1e-12 * max(1.0, expected.max_abs())


@pytest.mark.parametrize("n", [1, 2])
def test_eval_truncation_is_a_prefix(n):
    rng = random.Random(71 + n)
    z0 = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n))
    zb0 = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n))
    for kind in ("mixed", "holomorphic"):
        p = random_polynomial(rng, n, degree=4, kind=kind)
        high = eval_jet(p, z0, zb0, 8)
        for t in range(9):
            assert eval_jet(p, z0, zb0, t) == high.truncated(t), (kind, t)


def test_long_sums_do_not_recurse():
    long_sum = parse("+".join(["0.001*z1*zb1"] * 1200), 1)
    got = eval_jet(long_sum, (0.1,), (0.1,), 10)
    expected = eval_jet(parse("1.2*z1*zb1", 1), (0.1,), (0.1,), 10)
    assert (got - expected).max_abs() <= 1e-12 * expected.max_abs()


def test_deep_trees_print_substitute_and_conjugate_without_recursion():
    # a parsed sum of 3 000 terms is a chain of Add nodes three times deeper than the
    # default recursion limit
    source = "+".join(f"{k + 1}*z1*zb2^2" for k in range(3000))
    tree = parse(source, 2)
    assert to_source(tree) == source.replace("*z1", ".0*z1")
    assert classify(tree) is HolomorphyClass.MIXED
    conjugate = formal_conjugate(tree)
    assert to_source(conjugate) == to_source(tree).replace("z1", "Z1").replace(
        "zb2", "z2").replace("Z1", "zb1")
    swapped = substitute(tree, [Var(1, True), Var(2, True), Var(1, False), Var(2, False)])
    assert swapped == conjugate


def test_deep_input_is_refused_as_nested_too_deeply():
    for source in ("(" * 300 + "z1" + ")" * 300, "-" * 1200 + "zb1"):
        with pytest.raises(ExpressionError, match="expression nested too deeply"):
            parse(source, 1)
    with pytest.raises(ValueError, match="expression nested too deeply"):
        eval_jet(parse("*".join(["z1"] * 1200), 1), (0.1,), (0.1,), 2)


def test_deep_trees_compare_and_hash_without_recursion():
    # 400 terms at n=3: a chain of Add nodes deeper than the default recursion limit
    f, g = (parse(to_source(random_polynomial(random.Random(3), 3)), 3) for _ in range(2))
    assert f is not g
    assert f == g and hash(f) == hash(g)
    changed = parse("2*" + to_source(g), 3)  # doubles the first term's coefficient only
    assert f != changed and changed != f


def test_eval_keeps_edge_cases():
    assert parse_complex("(1+2i)^2*i-3") == (1 + 2j) ** 2 * 1j - 3
    assert eval_value(parse("0^0", 1), (0,), (0,)) == 1
    assert eval_jet(parse("z1^0", 1), (0,), (0,), 3) == Jet.constant(1.0, 1, 3)
    with pytest.raises(EvaluationError, match="exceeds the chart dimension 1"):
        eval_jet(Mul(Literal(2.0), Var(2, True)), (0,), (0,), 3)
    with pytest.raises(EvaluationError, match="reciprocal"):
        eval_jet(parse("1/z1", 1), (0,), (0,), 3)
    with pytest.raises(EvaluationError, match="reciprocal"):
        eval_jet(parse("z1^-1", 1), (0,), (0,), 3)


def test_eval_overflowing_monomial_raises():
    with pytest.raises(EvaluationError, match="z1\\^400"):
        eval_jet(parse("z1^400", 1), (1e10,), (0,), 2)
    with pytest.raises(EvaluationError):
        eval_jet(parse("z1*zb1 + (100000000000000000000*z1)^20", 1), (1e10,), (0,), 2)


def test_value_equal_trees_hash_once_and_alike():
    a, b = parse("z1*zb1^2 + 3*z2", 2), parse("z1*zb1^2 + 3*z2", 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert vars(a)["_hash"] == hash(a)  # kept on the node after the first hash
    assert {a: 1}[b] == 1


# -- generated polynomials as term tables -------------------------------------

#: ``to_source`` of generated polynomials, as printed when they were built as trees
GENERATED_SOURCES = [
    (
        lambda: random_polynomial(random.Random(1), 1, degree=1),
        "(0.21064748573979594-0.2999864678013055i)*1.0"
        "+(-(0.027830021947755957-0.8734987743866625i))*zb1"
        "+(-(0.668722620756574-0.2196477716263023i))*z1"
        "+(0.1944677688290113-0.7834381019643027i)*(z1*zb1)",
    ),
    (
        lambda: random_polynomial(random.Random(1), 2, degree=1, kind="antiholomorphic"),
        "(0.21064748573979594-0.2999864678013055i)*zb2"
        "+(-(0.027830021947755957-0.8734987743866625i))*zb1",
    ),
    (
        lambda: random_polynomial(random.Random(4), 2, degree=2, kind="holomorphic"),
        "(0.38730087288107856+0.29333619552143436i)*z2"
        "+(0.35382750404254093+0.5204462892496272i)*z1"
        "+(-(0.210154663831367-0.1494995416364714i))*z2^2"
        "+(0.2986577315351562-0.9103617975739061i)*(z1*z2)"
        "+(0.1534875703659002+0.8611644257913881i)*z1^2",
    ),
    (
        lambda: random_potential(RandomChartSpec(n=1, degree=1, seed=0)),
        "z1*zb1+(0.0045907788049111865-0.09177768391725116i)*(z1*zb1)"
        "+(0.0045907788049111865+0.09177768391725116i)*(z1*zb1)",
    ),
    (
        lambda: random_potential(RandomChartSpec(n=2, degree=1, seed=3)),
        "z1*zb1+z2*zb2+(-(0.04691004069109698+0.013382613843287115i))*(z2*zb2)"
        "+(-(0.04691004069109698-0.013382613843287115i))*(z2*zb2)"
        "+(-(0.0483121957535917+0.03695244791549578i))*(z2*zb1)"
        "+(-(0.0483121957535917-0.03695244791549578i))*(z1*zb2)"
        "+(0.07249187954149906+0.03165644391938756i)*(z1*zb2)"
        "+(0.07249187954149906-0.03165644391938756i)*(z2*zb1)"
        "+(0.0059938678900946655-0.009785369858356582i)*(z1*zb1)"
        "+(0.0059938678900946655+0.009785369858356582i)*(z1*zb1)",
    ),
]


@pytest.mark.parametrize("make,source", GENERATED_SOURCES)
def test_generated_polynomials_print_as_their_trees(make, source):
    p = make()
    assert isinstance(p, Polynomial)
    assert to_source(p) == source
    assert vars(p)["_hash"] == hash(p) == hash(make()) and p == make()


@pytest.mark.parametrize("make,source", GENERATED_SOURCES)
def test_polynomial_leaf_matches_its_parsed_tree(make, source):
    p = make()
    n, tree = p.n, parse(source, p.n)
    z0 = tuple(0.2 - 0.1j * k for k in range(1, n + 1))
    zb0 = tuple(-0.15 + 0.05j * k for k in range(1, n + 1))
    assert eval_jet(p, z0, zb0, 6) == eval_jet(tree, z0, zb0, 6)
    assert classify(p) is classify(tree)
    conjugate = formal_conjugate(p)
    assert isinstance(conjugate, Polynomial)
    assert eval_jet(conjugate, z0, zb0, 6) == eval_jet(formal_conjugate(tree), z0, zb0, 6)
    # a replacement that is not a polynomial, as in a Moebius change of coordinates
    images = [parse(f"z{k}/(1-z{k})", n) for k in range(1, n + 1)]
    images += [formal_conjugate(e) for e in images]
    got = eval_jet(substitute(p, images), z0, zb0, 6)
    want = eval_jet(substitute(tree, images), z0, zb0, 6)
    assert (got - want).max_abs() <= 1e-14 * want.max_abs()


def test_polynomial_leaf_nests_in_trees_and_smaller_charts():
    p = random_polynomial(random.Random(7), 1, degree=2)
    tree = parse(to_source(p), 1)
    for wrap in (lambda e: Mul(e, e), lambda e: Add(Var(1, True), e), lambda e: Pow(e, 2)):
        assert parse(to_source(wrap(p)), 1) == wrap(tree)
    # a polynomial in z1, zb1 on a chart of dimension 2 is one in z1, zb1 there too
    z0, zb0 = (0.1 + 0.2j, -0.3j), (0.1 - 0.2j, 0.3j)
    assert eval_jet(p, z0, zb0, 5) == eval_jet(parse(to_source(p), 2), z0, zb0, 5)
    with pytest.raises(EvaluationError, match="exceeds the chart dimension 1"):
        eval_jet(random_polynomial(random.Random(7), 2), (0.1,), (0.1,), 3)
