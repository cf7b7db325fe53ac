"""Linear-arithmetic validity: Fourier-Motzkin core plus box refutation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bench_corpus, fo_valid_reference
from tracelet import cli, fo
from tracelet.fo import fo_valid, negate_pred, simplify_or, terms_equal
from tracelet.lang import (CMP_OPS, Binary, BoolLit, IntLit, ResVar, TokenStream, Unary,
                           Var, parse_expr, pretty_expr, tokenize)


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
        # one name: but for the bounds, the box would find a counterexample
        ([" && ".join(f"x >= {-i}" for i in range(150))
          + " && " + " && ".join(f"x <= {i}" for i in range(150))], "false", "unknown"),
        ([" && ".join(["(x == 0 || x == 1)"] * 12)], "false", "unknown"),
        ([" && ".join(f"x != {i}" for i in range(12))], "false", "unknown"),
    ], ids=["unary-minus", "negation", "non-unit-equality", "equality-without-integers",
            "bool-term", "bare-atom", "dnf-blowup", "disequality-blowup", "fm-blowup",
            "four-names", "fm-blowup-one-name", "dnf-blowup-one-name",
            "disequality-blowup-one-name"])
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


def _same(gamma, goal):
    """fo_valid's verdict on gamma |- goal is the reference's, and so is its
    counterexample, key order included (a refusal prints it)."""
    got, want = fo_valid(gamma, goal), fo_valid_reference(gamma, goal)
    assert got == want
    assert list((got.counterexample or {}).items()) == list((want.counterexample or {}).items())
    return got


_NAMES = ["a", "b", "c", "d"]


def _weighted(*choices):
    """One of the strategies, each drawn as often as its weight says."""
    return st.sampled_from([s for s, weight in choices for _ in range(weight)]).flatmap(
        lambda s: s)


def _terms(names):
    leaf = _weighted((st.integers(-3, 3).map(IntLit), 2), (st.sampled_from(names).map(Var), 2),
                     (st.sampled_from(names).map(lambda n: ResVar(Var(n))), 1),
                     (st.integers(0, 1).map(lambda k: ResVar(IntLit(k))), 1))
    return st.recursive(leaf, lambda t: _weighted(
        (st.tuples(st.sampled_from(["+", "-"]), t, t).map(lambda x: Binary(*x)), 2),
        (st.tuples(leaf, t).map(lambda x: Binary("*", *x)), 1),  # nonlinear with a name left
        (t.map(lambda x: Unary("-", x)), 1)), max_leaves=4)


def _predicates(names):
    terms = _terms(names)
    atom = _weighted((st.tuples(st.sampled_from(CMP_OPS), terms, terms).map(
                          lambda x: Binary(*x)), 8),
                     (st.booleans().map(BoolLit), 1),
                     (st.sampled_from(names).map(Var), 1))  # a name is no atom
    return st.recursive(atom, lambda p: _weighted(
        (st.tuples(st.sampled_from(["&&", "||"]), p, p).map(lambda x: Binary(*x)), 2),
        (p.map(lambda x: Unary("!", x)), 1)), max_leaves=5)


@st.composite
def _sequents(draw):
    predicates = _predicates(_NAMES[:draw(st.integers(1, 4))])
    return draw(st.lists(predicates, max_size=3)), draw(predicates)


class TestAgreesWithReference:
    """fo_valid against tests/helpers.fo_valid_reference, the formula put in
    DNF whole, every atom of every disjunct linearized, variable-free
    constraints kept and the box searched point by point."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sequent=_sequents())
    def test_same_result(self, sequent):
        _same(*sequent)

    @pytest.mark.parametrize("gamma,goal,status", [
        (["a >= 3"], "b > 100", "invalid"),       # a bound on a name before the last
        (["2 * b == a + 1"], "false", "invalid"),  # an odd a leaves no integer b
        (["a - 2 * b >= 1", "2 * b >= a - 1"], "false", "invalid"),  # an even a leaves none
        (["a + 2 * b == -31", "c >= 0"], "false", "unknown"),  # false before the last name
        (["x >= 100"], "false", "unknown"),        # no point of the box
        (["1 != 0", "0 <= 2"], "x > 0", "invalid"),  # variable-free, true
        (["x == x", "x == 1"], "x > 0 || 1 != 1", "valid"),
        (["1 > 2 || x >= 0"], "x >= 0", "valid"),  # variable-free, false
        (["x > 0 && false && y > 0"], "false", "valid"),
        (["x * x > 0 || false && y * y > 0"], "false", "unknown"),
        (["false && y * y > 0"], "false", "valid"),
    ], ids=["zero-coefficient-false", "equality-remainder", "negative-coefficient",
            "zero-coefficient-equality", "empty-box", "ground-true", "ground-true-equality",
            "ground-false", "false-literal", "nonlinear-reached", "nonlinear-after-false"])
    def test_box_and_decided_constraints(self, gamma, goal, status):
        assert _same([pred(g) for g in gamma], pred(goal)).status == status

    @pytest.mark.parametrize("split", ["x != 500", "500 != x"])
    def test_the_lower_side_of_a_split_is_refuted_first(self, split):
        # x <= 499 keeps Fourier-Motzkin at 100 * 200 = 20000 combinations,
        # a point of the box satisfies it; x >= 501 makes 101 * 199 and
        # blows up, so the verdict shows which side went first
        bounds = [f"x >= {-i}" for i in range(100)] + [f"x <= {i}" for i in range(199)]
        verdict = _same([pred(" && ".join(bounds + [split]))], pred("false"))
        assert verdict.counterexample == {"x": 0}

    def test_every_call_of_the_seed_1_corpora(self, tmp_path, monkeypatch, capsys):
        corpus, calls, real = bench_corpus(monkeypatch), [], fo.fo_valid

        def record(gamma, goal):
            calls.append((list(gamma), goal))
            return real(*calls[-1])

        monkeypatch.setattr(fo, "fo_valid", record)
        for workload in corpus.WORKLOADS:
            (tmp_path / workload).mkdir()
            built = corpus.build(workload, str(tmp_path / workload), 1)
            for cmd in built.setup:
                cli.main(cmd.argv)
            if built.derive:
                built.derive()
            for cmd in built.warmup + built.commands:
                assert cli.main(cmd.argv) == cmd.expect, cmd.argv
        monkeypatch.setattr(fo, "fo_valid", real)
        capsys.readouterr()
        assert len(calls) > 500
        for gamma, goal in calls:
            _same(gamma, goal)
