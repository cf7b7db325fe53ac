"""Linear-arithmetic validity: Fourier-Motzkin core plus box refutation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tracelet.fo import fo_valid, negate_pred, simplify_or, terms_equal
from tracelet.lang import (Binary, BoolLit, IntLit, ResVar, TokenStream, Var,
                           parse_expr, pretty_expr, tokenize)


def v(name):
    return Var(name)


def atom(op, left, right):
    return Binary(op, left, right)


def pred(text):
    return parse_expr(TokenStream(tokenize(text)), logical=True)


def equivalent(a, b):
    """Each predicate implies the other."""
    return bool(fo_valid([a], b)) and bool(fo_valid([b], a))


class TestValidity:
    def test_strict_implies_nonneg(self):
        assert fo_valid([atom(">", v("n'"), IntLit(0))],
                        atom(">=", v("n'"), IntLit(0))).status == "valid"

    def test_identity(self):
        p = atom("==", v("a"), IntLit(3))
        assert fo_valid([p], p).status == "valid"

    def test_invalid_with_counterexample(self):
        verdict = fo_valid([atom(">", v("n'"), IntLit(0))],
                           atom(">", v("n'"), IntLit(1)))
        assert verdict.status == "invalid"
        assert verdict.counterexample == {"n'": 1}

    def test_step_precondition(self):
        # n' >= 0 and n' != 0 entail n' - 1 >= 0
        gamma = [atom(">=", v("n'"), IntLit(0)), atom("!=", v("n'"), IntLit(0))]
        goal = atom(">=", Binary("-", v("n'"), IntLit(1)), IntLit(0))
        assert fo_valid(gamma, goal).status == "valid"

    def test_equality_substitution(self):
        gamma = [atom("==", ResVar(v("k")), Binary("-", v("n'"), IntLit(1)))]
        goal = atom("==", Binary("+", ResVar(v("k")), IntLit(1)), v("n'"))
        assert fo_valid(gamma, goal).status == "valid"

    def test_boolean_goal(self):
        assert fo_valid([], BoolLit(True)).status == "valid"
        assert fo_valid([], BoolLit(False)).status == "invalid"

    def test_nonlinear_unknown(self):
        goal = atom(">=", Binary("*", v("a"), v("a")), IntLit(0))
        assert fo_valid([], goal).status == "unknown"

    def test_exhaustive_agreement_small_systems(self):
        rng = random.Random(6)
        names = ["a", "b"]
        for _ in range(150):
            def rand_atom():
                return atom(rng.choice(["<", "<=", "==", "!=", ">", ">="]),
                            Binary("+", v(rng.choice(names)),
                                   IntLit(rng.randint(-2, 2))),
                            v(rng.choice(names)))
            gamma = [rand_atom() for _ in range(rng.randint(0, 2))]
            goal = rand_atom()
            verdict = fo_valid(gamma, goal)

            def holds(assignment, e):
                from tracelet.traces import State, eval_expr
                return bool(eval_expr(State(assignment), e))

            brute_valid = all(
                holds(dict(zip(names, point)), goal)
                for point in itertools.product(range(-6, 7), repeat=2)
                if all(holds(dict(zip(names, point)), g) for g in gamma))
            if verdict.status == "valid":
                assert brute_valid
            elif verdict.status == "invalid":
                cex = {k: verdict.counterexample.get(k, 0) for k in names}
                assert all(holds(cex, g) for g in gamma)
                assert not holds(cex, goal)


class TestLargeConstants:
    """Tightening a >= atom by its coefficients' gcd stays exact past 2^53."""

    def test_float_division_counterexample(self):
        # 8x >= 738703391925352938 gives x >= 92337923990669118, and that
        # x is a counterexample to x >= 92337923990669119
        gamma = [atom(">=", Binary("-", Binary("*", IntLit(8), v("x")),
                                   IntLit(738703391925352938)), IntLit(0))]
        x = 92337923990669118
        assert 8 * x - 738703391925352938 >= 0
        verdict = fo_valid(gamma, atom(">=", v("x"), IntLit(x + 1)))
        assert verdict.status != "valid"
        assert fo_valid(gamma, atom(">=", v("x"), IntLit(x))).status == "valid"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=st.integers(2, 64), c=st.integers(-10 ** 24, 10 ** 24),
           delta=st.integers(-2, 2))
    def test_single_bound_decided_exactly(self, a, c, delta):
        # a*x + c >= 0 |- x >= b, where the least x allowed is -(c // a)
        least = -(c // a)
        b = least + delta
        gamma = [atom(">=", Binary("+", Binary("*", IntLit(a), v("x")), IntLit(c)),
                      IntLit(0))]
        verdict = fo_valid(gamma, atom(">=", v("x"), IntLit(b)))
        assert (verdict.status == "valid") == (least >= b)
        if verdict.status == "invalid":
            x = verdict.counterexample["x"]
            assert a * x + c >= 0 and x < b


class TestNegation:
    def test_negate_flips_comparisons(self):
        assert negate_pred(atom("!=", v("x"), IntLit(0))) == atom("==", v("x"), IntLit(0))
        assert negate_pred(atom("<", v("x"), IntLit(0))) == atom(">=", v("x"), IntLit(0))

    def test_negate_pushes_through_conjunction(self):
        p = Binary("&&", atom(">", v("x"), IntLit(0)), atom("<", v("y"), IntLit(0)))
        n = negate_pred(p)
        assert n == Binary("||", atom("<=", v("x"), IntLit(0)),
                           atom(">=", v("y"), IntLit(0)))


class TestCanonical:
    def test_strict_and_shifted_bounds_coincide(self):
        assert equivalent(atom(">", v("n'"), IntLit(0)),
                          atom(">=", Binary("-", v("n'"), IntLit(1)), IntLit(0)))

    def test_pred_equiv(self):
        assert equivalent(atom(">", v("n'"), IntLit(0)),
                          atom(">=", v("n'"), IntLit(1)))
        assert not equivalent(atom(">", v("n'"), IntLit(0)),
                              atom(">=", v("n'"), IntLit(0)))

    def test_simplify_or_merges_base_and_step(self):
        merged = simplify_or(atom("==", v("n"), IntLit(0)),
                             atom(">", v("n"), IntLit(0)))
        assert equivalent(merged, atom(">=", v("n"), IntLit(0)))
        assert merged == atom(">=", v("n"), IntLit(0))

    def test_simplify_or_fallback(self):
        a = atom("==", v("n"), IntLit(0))
        b = atom("==", v("m"), IntLit(1))
        assert simplify_or(a, b) == Binary("||", a, b)

    def test_terms_equal(self):
        assert terms_equal(Binary("+", Binary("-", v("n'"), IntLit(1)), IntLit(1)),
                           v("n'"))
        assert not terms_equal(v("n'"), Binary("+", v("n'"), IntLit(1)))


class TestPredicatesAsWritten:
    """Predicates as a contract file or a program may spell them, including
    those that fo_valid can only answer 'unknown' for."""

    @pytest.mark.parametrize("gamma,goal,status", [
        ([], "-x == 0 - x", "valid"),
        ([], "!(x > 0) || x > 0", "valid"),
        (["2 * x + 3 * y == 1"], "2 * x + 3 * y >= 1", "valid"),
        (["2 * x + 4 * y == 1"], "false", "valid"),     # no integer solution
        ([], "x == true", "unknown"),                  # a truth value as a term
        (["b"], "b", "unknown"),                       # an atom that is no comparison
        ([" && ".join(f"(x{i} == 0 || x{i} == 1)" for i in range(12))], "false", "unknown"),
        ([" && ".join(f"x{i} != 0" for i in range(12))], "false", "unknown"),
        ([" && ".join(f"x - y >= {-i}" for i in range(150))
          + " && " + " && ".join(f"y - x >= {-i}" for i in range(150))], "false", "unknown"),
        ([], "a + b + c + d > 0", "unknown"),           # no box search past three names
    ], ids=["unary-minus", "negation", "non-unit-equality", "equality-without-integers",
            "bool-term", "bare-atom", "dnf-blowup", "disequality-blowup", "fm-blowup",
            "four-names"])
    def test_verdict(self, gamma, goal, status):
        assert fo_valid([pred(g) for g in gamma], pred(goal)).status == status

    @pytest.mark.parametrize("a,b,merged", [
        ("n >= 2", "n >= 5", "n >= 2"),
        ("n == 3", "n == 3", "n == 3"),
        ("n <= 0", "n <= -1", "0 >= n"),
        ("m == n + 1", "m - n >= 2", "m >= n + 1"),
        ("res(0) == 0", "res(0) > 0", "res(0) >= 0"),
        ("n * n == 0", "n > 0", "n * n == 0 || n > 0"),
        ("n == 0", "n == 2", "n == 0 || n == 2"),
    ])
    def test_simplify_or(self, a, b, merged):
        assert pretty_expr(simplify_or(pred(a), pred(b))) == merged
        assert equivalent(pred(merged), Binary("||", pred(a), pred(b))) or "*" in merged

    def test_nonlinear_terms_equal_only_as_written(self):
        assert terms_equal(pred("k * k"), pred("k * k"))
        assert not terms_equal(pred("k * k"), pred("k * (k + 0)"))
