"""Expression language: parsing, evaluation, duals against finite differences."""

import math
import random

import numpy as np
import pytest

from wact.chart import CounterStream
from wact.dual import Dual
from wact.errors import DomainError, ParseError, UnknownSymbolError
from wact.expr import (MAX_NESTING, Num, ScalarExpr, make_add, make_mul, make_neg,
                       make_num, make_sub, parse)

XYZ = ("x", "y", "z")

# Covers every grammar production: all operators, functions, constants,
# nesting, unary minus, integer and real powers.
CORPUS = [
    "y/2",
    "x^2+y",
    "sin(x)*exp(z)",
    "(1+y^2)/4",
    "-y/4",
    "x*y*z - x/(2+z^2)",
    "sqrt(4+x)",
    "log(2+x^2)",
    "tan(x/2) + cos(y)*sin(z)",
    "2^x",
    "x^3 - 2*x^-2",
    "(x+y)^2 / (1 + z^2)",
    "pi*x + e^y",
    "-x^2",
    "(-x)^2",
    "1e-3*x + 2.5",
    "x^2.0 + y^0.5*y^0.5",
]


def fd_gradient(e, p, h=1e-5):
    """Central-difference oracle for the gradient."""
    grads = []
    for i in range(len(p)):
        up = list(p)
        dn = list(p)
        up[i] += h
        dn[i] -= h
        grads.append((e.evaluate(up) - e.evaluate(dn)) / (2 * h))
    return grads


def sample_point(stream, k, lo=0.2, hi=0.9):
    # positive interior points keep every corpus expression in-domain
    return [lo + (hi - lo) * stream.u01(3 * k + j) for j in range(3)]


# -- parse ------------------------------------------------------------------

def test_parse_div_example():
    e = parse("y/2", XYZ)
    assert e.evaluate((0, 4, 0)) == 2.0


def test_parse_trig_product():
    e = parse("sin(x)*exp(z)", XYZ)
    assert e.evaluate((0, 0, 0)) == 0.0


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError) as err:
        parse("w+1", XYZ)
    assert err.value.name == "w"
    assert err.value.position == 0


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y", XYZ)
    assert err.value.position == 4


def test_parse_rejects_empty_and_trailing():
    with pytest.raises(ParseError):
        parse("", XYZ)
    with pytest.raises(ParseError):
        parse("x 1", XYZ)
    with pytest.raises(ParseError):
        parse("sin x", XYZ)


def test_parse_rejects_duplicate_coordinates():
    with pytest.raises(ValueError):
        parse("x", ("x", "x", "z"))


def test_power_is_right_associative():
    # 2^(3^2) = 512, not (2^3)^2 = 64; the nested exponent is not a literal,
    # so evaluation goes through exp/log and is exact only to rounding.
    assert abs(parse("2^3^2", XYZ).evaluate((0, 0, 0)) - 512.0) < 1e-9


def test_unary_minus_binds_looser_than_power():
    assert parse("-3^2", XYZ).evaluate((0, 0, 0)) == -9.0
    assert parse("(-3)^2", XYZ).evaluate((0, 0, 0)) == 9.0
    assert parse("2^-2", XYZ).evaluate((0, 0, 0)) == 0.25


# -- eval -------------------------------------------------------------------

def test_eval_examples():
    assert parse("x^2+y", XYZ).evaluate((3, 1, 0)) == 10.0
    assert parse("pi", XYZ).evaluate((0, 0, 0)) == math.pi
    assert parse("e", XYZ).evaluate((0, 0, 0)) == math.e


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        parse("1/x", XYZ).evaluate((0, 1, 1))
    with pytest.raises(DomainError):
        parse("log(x)", XYZ).evaluate((0, 1, 1))
    with pytest.raises(DomainError):
        parse("log(x)", XYZ).evaluate((-1, 1, 1))
    with pytest.raises(DomainError):
        parse("sqrt(x)", XYZ).evaluate((-1, 1, 1))
    with pytest.raises(DomainError):
        parse("x^0.5", XYZ).evaluate((-1, 1, 1))
    with pytest.raises(DomainError):
        parse("x^-2", XYZ).evaluate((0, 1, 1))


def test_eval_wrong_point_size():
    with pytest.raises(ValueError):
        parse("x", XYZ).evaluate((1, 2))


def test_eval_deterministic():
    e = parse("sin(x)*exp(z) - y^3/7", XYZ)
    p = (0.1234, -0.77, 0.5)
    assert e.evaluate(p) == e.evaluate(p)


# -- eval_dual --------------------------------------------------------------

def test_dual_product_rule_example():
    d = parse("x*y", XYZ).eval_dual((2, 3, 0))
    assert d.val == 6.0
    assert tuple(d.d) == (3.0, 2.0, 0.0)


def test_dual_sin_at_zero():
    d = parse("sin(x)", XYZ).eval_dual((0, 1, 1))
    assert d.val == 0.0
    assert d.d[0] == 1.0


def test_dual_constant_lifts_to_zero_gradient():
    d = parse("pi", XYZ).eval_dual((1, 2, 3))
    assert d.val == math.pi
    assert tuple(d.d) == (0.0, 0.0, 0.0)


def test_dual_matches_finite_differences_example():
    e = parse("x^2+y", XYZ)
    p = (0.7, -0.3, 0.2)
    ad = e.eval_dual(p).d
    fd = fd_gradient(e, p)
    for a, f in zip(ad, fd):
        assert abs(a - f) <= 1e-9 * (1 + abs(a))


@pytest.mark.parametrize("source", CORPUS)
def test_dual_matches_finite_differences_corpus(source):
    e = parse(source, XYZ)
    stream = CounterStream(2024, stream=7)
    for k in range(8):
        p = sample_point(stream, k)
        ad = e.eval_dual(p).d
        fd = fd_gradient(e, p)
        for a, f in zip(ad, fd):
            assert abs(a - f) <= 1e-6 * (1 + abs(a)), (source, p)


def test_dual_sum_product_homomorphism():
    a = parse("sin(x)*y", XYZ)
    b = parse("z^2 + x", XYZ)
    total = parse("sin(x)*y + (z^2 + x)", XYZ)
    prod = parse("(sin(x)*y) * (z^2 + x)", XYZ)
    stream = CounterStream(11, stream=3)
    for k in range(5):
        p = sample_point(stream, k)
        da, db = a.eval_dual(p), b.eval_dual(p)
        dt, dp = total.eval_dual(p), prod.eval_dual(p)
        assert abs(dt.val - (da.val + db.val)) < 1e-14
        assert all(abs(x - (u + v)) < 1e-14 for x, u, v in zip(dt.d, da.d, db.d))
        assert abs(dp.val - da.val * db.val) < 1e-14
        for x, u, v in zip(dp.d, da.d, db.d):
            assert abs(x - (u * db.val + da.val * v)) < 1e-12


def test_nested_dual_hessian():
    e = parse("x^2*y + sin(z)", XYZ)
    p = (0.5, -0.25, 0.3)
    val, grad, hess = e.jet2(p)
    assert abs(val - (0.25 * -0.25 + math.sin(0.3))) < 1e-15
    assert abs(grad[0] - 2 * 0.5 * -0.25) < 1e-15
    assert abs(hess[0][0] - 2 * -0.25) < 1e-15
    assert abs(hess[0][1] - 2 * 0.5) < 1e-15
    assert abs(hess[2][2] + math.sin(0.3)) < 1e-15
    # symmetry
    for i in range(3):
        for j in range(3):
            assert abs(hess[i][j] - hess[j][i]) < 1e-12


def test_dual_arithmetic_with_scalars():
    d = Dual(2.0, (1.0, 0.0))
    assert (1.0 + d).val == 3.0
    assert tuple((1.0 - d).d) == (-1.0, 0.0)
    assert tuple((3.0 * d).d) == (3.0, 0.0)
    r = 1.0 / d
    assert r.val == 0.5
    assert tuple(r.d) == (-0.25, 0.0)


# -- printer round-trip ------------------------------------------------------

@pytest.mark.parametrize("source", CORPUS)
def test_print_parse_fixed_point(source):
    e = parse(source, XYZ)
    printed = e.to_source()
    reparsed = parse(printed, XYZ)
    assert reparsed.to_source() == printed
    stream = CounterStream(5, stream=1)
    for k in range(4):
        p = sample_point(stream, k)
        assert reparsed.evaluate(p) == e.evaluate(p)


def test_printer_handles_negative_right_operands():
    for source in ("x - -y", "x*-y", "x^-2", "x--y"):
        e = parse(source, XYZ)
        printed = e.to_source()
        again = parse(printed, XYZ)
        assert again.to_source() == printed
        p = (0.4, 0.7, 0.9)
        assert again.evaluate(p) == e.evaluate(p)


def _random_ast(stream, counter, depth):
    """Seeded random expression source over x, y, z (value-safe on (0,2))."""
    def draw(lo, hi):
        nonlocal counter
        value = lo + (hi - lo) * stream.u01(counter)
        counter += 1
        return value

    def node(d):
        choice = draw(0, 1)
        if d <= 0 or choice < 0.3:
            leaf = draw(0, 1)
            if leaf < 0.4:
                return f"{draw(0.5, 3):.3f}"
            return ("x", "y", "z", "pi", "e")[int(draw(0, 5)) % 5]
        if choice < 0.5:
            return f"-{node(d - 1)}"
        if choice < 0.62:
            fn = ("sin", "cos", "exp", "sqrt", "log")[int(draw(0, 5)) % 5]
            if fn in ("sqrt", "log"):
                return f"{fn}(2.5+{node(d - 1)})" if draw(0, 1) < 0.7 else f"{fn}(4)"
            return f"{fn}({node(d - 1)})"
        if choice < 0.72:
            return f"({node(d - 1)})^{int(draw(1, 4))}"
        op = "+-*/"[int(draw(0, 4)) % 4]
        left, right = node(d - 1), node(d - 1)
        if op == "/":
            right = f"(2.1+sin({right}))"  # keep denominators away from zero
        return f"({left}){op}({right})"

    return node(depth), counter


def test_printer_fixed_point_random_fuzz():
    from wact.errors import DomainError

    stream = CounterStream(90210, stream=6)
    counter = 0
    points = [(0.31, 0.62, 0.47), (1.13, 0.88, 1.71), (0.05, 1.95, 0.99)]
    for _ in range(120):
        source, counter = _random_ast(stream, counter, depth=4)
        e = parse(source, XYZ)
        printed = e.to_source()
        again = parse(printed, XYZ)
        assert again.to_source() == printed, source
        for p in points:
            try:
                expected = e.evaluate(p)
            except DomainError:
                continue  # sqrt/log wandered out of domain; values are random
            assert again.evaluate(p) == expected, (source, printed, p)


def test_non_finite_constants_are_rejected():
    from wact import expr as ex
    with pytest.raises(ParseError) as err:
        parse("y + 0*1e400", XYZ)
    assert err.value.position == 6
    assert parse("1e-400 + -1e308", XYZ).to_source() == "0+(-1e+308)"
    big, tiny = ex.make_num(1e308), ex.make_num(1e-308)
    folds = (lambda: ex.make_num(math.inf), lambda: ex.make_add(big, big),
             lambda: ex.make_sub(ex.make_neg(big), big), lambda: ex.make_mul(big, big),
             lambda: ex.make_div(big, tiny))
    for fold in folds:
        with pytest.raises(ValueError, match="not finite"):
            fold()


@pytest.mark.parametrize("opening, closing, levels", [
    ("(", ")", 1), ("-", "", 1), ("sin(", ")", 1), ("y^", "", 1), ("-(", ")", 2),
])
def test_nesting_beyond_the_cap_is_a_parse_error(opening, closing, levels):
    # each `opening` nests `levels` levels: parentheses, unary minus, calls, powers
    units = MAX_NESTING // levels
    assert parse(opening * units + "y" + closing * units, XYZ)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse(opening * (units + 1) + "y" + closing * (units + 1), XYZ)


# -- flat chains ----------------------------------------------------------------

def _nested_eval(node, env):
    """Reference evaluator: one recursive step per node, divisor before dividend."""
    from wact import dual as dm
    from wact import expr as ex
    if isinstance(node, ex.Bin) and node.op in "+-*":
        left, right = _nested_eval(node.left, env), _nested_eval(node.right, env)
        return {"+": left + right, "-": left - right, "*": left * right}[node.op]
    if isinstance(node, ex.Bin) and node.op == "/":
        denominator = _nested_eval(node.right, env)
        dm.check(dm.real_part(denominator) == 0.0,
                 f"division by zero at position {node.pos}")
        return _nested_eval(node.left, env) / denominator
    return ex.ScalarExpr(node, XYZ)._fn(env)


def test_chains_fold_bit_identically_to_nested_evaluation():
    from wact.dual import Dual
    import numpy as np
    stream = CounterStream(2718, stream=3)
    pts = np.array([[0.3 + 0.5 * stream.u01(3 * k + j) for j in range(3)] for k in range(16)])
    env = [Dual(pts[:, i], np.eye(3)[i][:, None] * np.ones(16)) for i in range(3)]
    counter = 0
    for _ in range(40):
        terms = []
        for _ in range(2 + int(20 * stream.u01(counter))):
            op = "+-*/"[int(4 * stream.u01(counter + 1)) % 4]
            atom = ("x", "y", "z", "sin(x)", f"{0.5 + stream.u01(counter + 2):.4f}",
                    "(x*y-z)", "(1+z/y)")[int(7 * stream.u01(counter + 3)) % 7]
            terms.append(op + atom)
            counter += 4
        source = terms[0][1:] + "".join(terms[1:])
        e = parse(source, XYZ)
        got, want = e._fn(env), _nested_eval(e.node, env)
        assert np.array_equal(got.val, want.val) and np.array_equal(got.d, want.d), source


@pytest.mark.parametrize("source, message", [
    # a quotient evaluates its divisor first, so the last divisor of a chain fails first
    ("log(x-x)*2/(y-y)", "division by zero at position 10"),
    ("1/(y-y)/log(x-x)", "log of non-positive value in 'log' at position 8"),
    ("2/(x-x)*log(y-y)/(z-z)", "division by zero at position 16"),
    ("x/(y-y)/(x-x)", "division by zero at position 7"),
    ("log(x-x)+1/(y-y)", "log of non-positive value in 'log' at position 0"),
])
def test_chain_errors_come_in_nested_order(source, message):
    e = parse(source, XYZ)
    for pts in ([0.1, 0.2, 0.3], [[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]]):
        with pytest.raises(DomainError) as err:
            e.jet1(pts)
        assert err.value.message == message


@pytest.mark.parametrize("terms", [1000, 10000])
def test_long_flat_chains_parse_evaluate_and_print(terms):
    # a chain of 1 000 terms ended in a RecursionError
    p = (0.25, 0.5, 0.75)
    total = parse("+".join(["x"] * terms), XYZ)
    assert total.evaluate(p) == float(terms) * 0.25
    assert total.to_source() == "+".join(["x"] * terms)
    mixed = parse("-".join(["y"] * terms) + "*x/z", XYZ)
    assert mixed.to_source() == "-".join(["y"] * terms) + "*x/z"
    value, grad, hess = mixed.jet2(p)
    expected = 0.5
    for _ in range(terms - 2):
        expected -= 0.5
    assert value == expected - 0.5 * 0.25 / 0.75
    assert grad[1] == (1.0 - (terms - 2)) - 0.25 / 0.75 and hess.shape == (3, 3)
    product = parse("*".join(["y"] * terms), XYZ)
    assert product.evaluate(p) == 0.5 ** terms and product.jet1(p)[0] == 0.5 ** terms
    assert not total.passive and parse("+".join(["1"] * terms), XYZ).passive


@pytest.mark.parametrize("source, point", [
    ("(1e-200)^-2", (0.0, 0.0, 0.0)),    # no coordinate: evaluated once as a float
    ("(x*1e-200)^-2", (0.5, 0.0, 0.0)),  # with duals
])
def test_negative_power_that_underflows_is_a_domain_error(source, point):
    # the base is nonzero, but its square underflows to 0: a ZeroDivisionError
    e = parse(source, XYZ)
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        e.evaluate(point)
    for jet in (e.jet1, e.jet2):
        with pytest.raises(DomainError, match="zero raised to a negative power"):
            jet([point, point])


# -- node arithmetic ----------------------------------------------------------

NODE_POOL = ["0", "1", "-1", "2.5", "-0.5", "x", "-y", "sin(x)", "x*y", "z^2", "1/z",
             "x+y"]


def _node_matrix(rng, shape):
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = parse(rng.choice(NODE_POOL), XYZ).node
    return out


def _fold_product(a, b):
    """Matrix product by the explicit fold from make_num(0.0)."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = make_num(0.0)
            for k in range(a.shape[1]):
                acc = make_add(acc, make_mul(a[i, k], b[k, j]))
            out[i, j] = acc
    return out


def _text(node):
    return ScalarExpr(node, XYZ).to_source()


def test_object_matmul_of_nodes_prints_as_the_explicit_fold():
    rng = random.Random(7)
    for _ in range(200):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a, b = _node_matrix(rng, (n, k)), _node_matrix(rng, (k, m))
        got, want = a @ b, _fold_product(a, b)
        assert [_text(v) for v in got.flat] == [_text(v) for v in want.flat]
        v = b[:, 0]
        assert [_text(x) for x in a @ v] == [_text(x) for x in want[:, 0]]


def test_node_operators_are_the_folding_constructors():
    x, y = parse("x", XYZ).node, parse("sin(y)", XYZ).node
    two = make_num(2.0)
    assert x + y == make_add(x, y) and x - y == make_sub(x, y) and x * y == make_mul(x, y)
    assert two * x == make_mul(two, x) and x * make_num(0.0) == Num(0.0)
    for node in (x, y, two, parse("-x", XYZ).node, parse("x-y", XYZ).node):
        assert -node == make_neg(node)
    assert -(-x) == x and -two == Num(-2.0)


@pytest.mark.parametrize("other", [2.0, 2, "x", np.float64(2.0)])
def test_node_arithmetic_refuses_operands_that_are_not_nodes(other):
    # a constant must come from make_num, which checks that it is finite
    x = parse("x", XYZ).node
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
