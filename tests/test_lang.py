"""Parser, pretty printer, and well-formedness checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (M0_SRC, RUNNING_SRC, parse_formula, random_linear_expr,
                     random_terminating_program, subst_res_oracle,
                     subst_stmt_oracle, subst_vars_oracle, well_formed_oracle)
from tracelet.lang import (ARITH_OPS, CMP_OPS, Assign, Binary, BoolLit, CallAssign,
                           Fresh, If, IntLit, ParseError, ProcDecl, Program,
                           ResVar, Return, Scope, Seq, Skip, TokenStream, Unary,
                           UnknownProcedure, Var, build_lookup, fields, fold_expr, lookup,
                           parse_expr, parse_program, pretty_expr, remake,
                           subst_stmt, subst_vars, tokenize, well_formed)
from tracelet.logic import StatePred


class TestParse:
    def test_running_example(self):
        p = parse_program(RUNNING_SRC)
        assert len(p.procs) == 1
        proc = p.procs[0]
        assert proc.name == "m" and proc.param == "k"
        assert proc.body.decls == ("r",)
        body = proc.body.body
        assert isinstance(body, Seq)
        assert isinstance(body.first, If)
        assert isinstance(body.second, Return)
        assert p.main_decls == ("x",)
        assert p.main_body == CallAssign(Var("x"), "m", IntLit(1))

    def test_smallest_program(self):
        p = parse_program("main { skip }")
        assert p.procs == () and p.main_body == Skip()

    def test_return_mid_body_rejected(self):
        src = "m(k) { r; return r; r = 1 }\nmain { skip }"
        with pytest.raises(ParseError, match="final statement"):
            parse_program(src)

    def test_return_in_main_rejected(self):
        with pytest.raises(ParseError, match="outside a procedure"):
            parse_program("main { x; return x }")

    def test_duplicate_procedure_rejected(self):
        src = "m(k) { return k }\nm(j) { return j }\nmain { skip }"
        with pytest.raises(ParseError, match="duplicate"):
            parse_program(src)

    def test_missing_return_rejected(self):
        with pytest.raises(ParseError, match="must end with return"):
            parse_program("m(k) { r; r = k }\nmain { skip }")

    def test_res_reserved(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_program("main { x; x = res(0) }")

    def test_syntax_error_position(self):
        try:
            parse_program("main { x; x = }")
        except ParseError as e:
            assert e.line == 1 and e.col > 0
        else:
            pytest.fail("expected a syntax error")

    @pytest.mark.parametrize("src,message", [
        ("main { x; true = 1 }", "1:11: unexpected 'true'"),
        ("main { skip } main { skip }", "1:15: trailing input after main block"),
    ])
    def test_syntax_error_message(self, src, message):
        with pytest.raises(ParseError, match=message):
            parse_program(src)

    def test_sequence_right_associated(self):
        p = parse_program("main { x; x = 1; x = 2; x = 3 }")
        body = p.main_body
        assert isinstance(body, Seq)
        assert isinstance(body.first, Assign)
        assert isinstance(body.second, Seq)


class TestPretty:
    def test_roundtrip_fixtures(self):
        for src in (RUNNING_SRC, M0_SRC, "main { skip }",
                    "q(a) { b; while (a > 0) { a = a - 1 }; return b }\n"
                    "main { x; y; x = q(3); if (x == 0) { y = 1 } }"):
            p = parse_program(src)
            printed = str(p)
            again = parse_program(printed)
            assert again == p
            assert str(again) == printed

    def test_roundtrip_generated(self):
        rng = random.Random(20)
        for _ in range(60):
            p = random_terminating_program(rng)
            assert parse_program(str(p)) == p


_NAMES = st.sampled_from(["x", "y", "n'", "r#1"])
_LITERALS = st.builds(IntLit, st.integers(-30, 30))
_ARITH = st.recursive(
    st.builds(Var, _NAMES) | _LITERALS,
    lambda inner: (st.builds(Binary, st.sampled_from(ARITH_OPS), inner, inner)
                   | st.builds(Unary, st.just("-"), inner) | st.builds(ResVar, inner)),
    max_leaves=10)
_BOOL = st.recursive(
    st.builds(BoolLit, st.booleans())
    | st.builds(Binary, st.sampled_from(CMP_OPS), _ARITH, _ARITH),
    lambda inner: (st.builds(Binary, st.sampled_from(["&&", "||", "==", "!="]), inner, inner)
                   | st.builds(Unary, st.just("!"), inner)),
    max_leaves=6)


def _reparsed(text: str):
    ts = TokenStream(tokenize(text))
    e = parse_expr(ts, allow_res=True, allow_bool=True)
    assert ts.peek().kind == "eof", text
    return e


class TestPrettyExpr:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(e=_ARITH | _BOOL, mapping=st.dictionaries(_NAMES, _LITERALS | _ARITH))
    def test_printed_expression_reparses_to_itself(self, e, mapping):
        """Also after a substitution, which can put a negative literal
        under a minus."""
        for tree in (e, subst_vars(e, mapping)):
            assert _reparsed(pretty_expr(tree)) == tree

    @pytest.mark.parametrize("tree,text", [
        (Unary("-", IntLit(-3)), "-(-3)"),
        (Unary("-", IntLit(3)), "-(3)"),
        (IntLit(-3), "-3"),
        (Unary("-", Unary("-", Var("x"))), "--x"),
        (Binary("-", Var("x"), IntLit(-3)), "x - -3"),
    ])
    def test_a_literal_under_a_minus_is_parenthesized(self, tree, text):
        assert pretty_expr(tree) == text
        assert _reparsed(text) == tree

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(e=_BOOL)
    def test_printed_predicate_reparses_to_itself(self, e):
        """Boolean comparisons of comparisons included."""
        f = StatePred(e)
        assert parse_formula(repr(f)) == f

    @pytest.mark.parametrize("tree,text", [
        (Binary("==", Binary("==", Var("n"), IntLit(0)), Binary("==", Var("i"), IntLit(0))),
         "(n == 0) == (i == 0)"),
        (Binary("!=", Binary("<", Var("x"), IntLit(1)), BoolLit(True)), "(x < 1) != true"),
    ])
    def test_a_comparison_under_a_comparison_is_parenthesized(self, tree, text):
        assert pretty_expr(tree) == text
        assert _reparsed(text) == tree
        assert parse_formula(f"[{text}]") == StatePred(tree)

    def test_only_a_literal_right_after_the_minus_folds(self):
        assert _reparsed("- 3") == IntLit(-3)
        assert _reparsed("--3") == Unary("-", IntLit(-3))
        assert _reparsed("-(3)") == Unary("-", IntLit(3))


class TestWellFormed:
    def test_running_example_passes(self):
        assert well_formed(parse_program(RUNNING_SRC)) == []

    def test_fixture_programs_pass(self):
        assert well_formed(parse_program(M0_SRC)) == []

    def test_side_effect_diagnostic(self):
        # a procedure writing a variable it does not declare
        p = Program(
            (ProcDecl("m", "k", Scope((), Seq(Assign(Var("g"), IntLit(1)),
                                              Return(IntLit(0))))),),
            ("g",), Skip())
        codes = {d.code for d in well_formed(p)}
        assert "undeclared" in codes or "side-effect" in codes

    def test_param_write_flagged(self):
        src = "m(k) { k = k + 1; return k }\nmain { skip }"
        codes = {d.code for d in well_formed(parse_program(src))}
        assert "side-effect" in codes

    def test_duplicate_name_diagnostic(self):
        p = Program(
            (ProcDecl("m", "k", Scope((), Return(Var("k")))),
             ProcDecl("m", "j", Scope((), Return(Var("j")))),),
            (), Skip())
        codes = {d.code for d in well_formed(p)}
        assert "duplicate-procedure" in codes

    def test_undeclared_variable(self):
        codes = {d.code for d in well_formed(parse_program("main { x; x = y }"))}
        assert "undeclared" in codes

    def test_type_mismatch_condition(self):
        codes = {d.code
                 for d in well_formed(parse_program("main { x; if (x + 1) { x = 0 } }"))}
        assert "type" in codes

    def test_unknown_procedure_call(self):
        codes = {d.code for d in well_formed(parse_program("main { x; x = q(1) }"))}
        assert "unknown-procedure" in codes

    def test_generated_programs_pass(self):
        rng = random.Random(9)
        for _ in range(100):
            assert well_formed(random_terminating_program(rng)) == []

    def test_diagnostics_match_the_oracle(self):
        # the same diagnostics in the same order, on generated programs and
        # on copies with mutated types, scopes, targets and calls
        rng = random.Random(18)
        codes = set()
        for _ in range(300):
            p = random_terminating_program(rng)
            assert well_formed(p) == well_formed_oracle(p) == []
            for _ in range(3):
                q = _mutate(p, rng)
                got = well_formed(q)
                assert got == well_formed_oracle(q), q
                codes |= {d.code for d in got}
        assert codes == {"type", "undeclared", "res-var", "side-effect",
                         "unknown-procedure", "return-position"}


# replacements for an expression: ill-typed, undeclared, or a result variable
_EXPRS = [BoolLit(True), IntLit(2), Var("w"), Var("a"), Var("z"), ResVar(IntLit(0)),
          Unary("!", Var("x")), Unary("-", BoolLit(False)), Binary("<", Var("v"), IntLit(1)),
          Binary("&&", Var("y"), BoolLit(True)), Binary("+", BoolLit(True), Var("x"))]


def _mutate(node, rng):
    """node with some expressions, assignment targets and called procedures
    replaced, some declarations dropped and some assignments turned into
    returns."""
    kind = type(node)
    if kind is tuple:
        if all(type(x) is str for x in node):
            return tuple(d for d in node if rng.random() < 0.7)
        return tuple(_mutate(x, rng) for x in node)
    if kind is str:
        return node
    if kind in (IntLit, BoolLit, Var, ResVar, Unary, Binary) and rng.random() < 0.15:
        return rng.choice(_EXPRS)
    if kind is Assign and rng.random() < 0.05:
        return Return(node.expr)
    values = [_mutate(v, rng) for v in fields(node)]
    if kind in (Assign, CallAssign):
        # a target stays a variable (or, assigned, a result variable)
        values[0] = rng.choice([node.target] * 6 + [Var("w"), Var("x"), Var("v")]
                               + [ResVar(IntLit(0))] * (kind is Assign))
    if kind is CallAssign and rng.random() < 0.1:
        values[1] = "q"
    return remake(node, values)


class TestLookup:
    def test_lookup_running(self):
        p = parse_program(RUNNING_SRC)
        table = build_lookup(p)
        assert lookup("m", table) is p.procs[0]

    def test_lookup_unknown(self):
        table = build_lookup(parse_program(RUNNING_SRC))
        with pytest.raises(UnknownProcedure):
            lookup("q", table)

    def test_lookup_roundtrip_generated(self):
        rng = random.Random(4)
        for _ in range(50):
            p = random_terminating_program(rng)
            table = build_lookup(p)
            for proc in p.procs:
                assert lookup(proc.name, table) is proc


def occurs(s, name: str) -> bool:
    """Whether Var(name) occurs free in a statement or expression, as a
    target or inside an expression."""
    if isinstance(s, Var):
        return s.name == name
    if isinstance(s, Scope) and name in s.decls:
        return False
    children = [getattr(s, f) for f in type(s).__slots__]
    return any(occurs(c, name) for c in children if not isinstance(c, (str, int, tuple)))


def walk(e):
    """e and every expression below it."""
    yield e
    for f in type(e).__slots__:
        child = getattr(e, f)
        if not isinstance(child, (str, int, bool)):
            yield from walk(child)


def test_fold_under_a_unary_operator():
    assert fold_expr(Unary("-", Binary("+", IntLit(1), IntLit(2)))) == IntLit(-3)
    assert fold_expr(Unary("-", Binary("+", Var("x"), IntLit(0)))) == Unary("-", Var("x"))
    assert fold_expr(Unary("!", BoolLit(True))) == Unary("!", BoolLit(True))


class TestSubstitution:
    NAMES = ["x", "y", "z", "a", "v", "r", "absent"]

    def statements(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_terminating_program(rng)
            yield rng, p.main_body
            for proc in p.procs:
                yield rng, proc.body
                yield rng, proc.body.body
        for src in (RUNNING_SRC, M0_SRC):
            yield rng, parse_program(src).procs[0].body.body

    def test_subst_stmt_agrees_with_oracle(self):
        for rng, s in self.statements():
            name = rng.choice(self.NAMES)
            replacement = rng.choice([Var("w#1"), IntLit(rng.randint(-2, 2)),
                                      Binary("+", Var("q"), IntLit(1))])
            got = subst_stmt(s, {name: replacement})
            assert got == subst_stmt_oracle(s, name, replacement)
            if not occurs(s, name):
                assert got is s

    def test_subst_stmt_mapping_is_successive_renames(self):
        # fresh names that no key equals, as a block's locals get them
        for rng, s in self.statements():
            names = rng.sample(self.NAMES, 2)
            mapping = {name: Var(f"{name}#{k}") for k, name in enumerate(names)}
            want = s
            for name in names:
                want = subst_stmt_oracle(want, name, mapping[name])
            assert subst_stmt(s, mapping) == want

    def test_subst_vars_agrees_with_oracle(self):
        rng = random.Random(12)
        for _ in range(500):
            e = random_linear_expr(rng, ["x", "y", "z"], depth=3)
            if rng.random() < 0.3:
                e = Binary("<", ResVar(e), Unary("-", Var("y")))
            mapping = {n: IntLit(rng.randint(0, 3)) for n in rng.sample("xyq", rng.randint(0, 2))}
            got = subst_vars(e, mapping)
            assert got == subst_vars_oracle(e, mapping)
            if not any(occurs(e, n) for n in mapping):
                assert got is e

    INDICES = [Var("i"), IntLit(0), Var("k'"), Binary("+", Var("i"), IntLit(1))]

    def res_expr(self, rng, depth=3):
        """An expression whose res(...) nodes may nest, their indices drawn
        from INDICES or built like any other subtree."""
        r = rng.random()
        if depth == 0 or r < 0.25:
            return rng.choice([Var("x"), Var("i"), IntLit(rng.randint(-1, 2))])
        if r < 0.55:
            index = rng.choice(self.INDICES) if rng.random() < 0.6 \
                else self.res_expr(rng, depth - 1)
            return ResVar(index)
        if r < 0.65:
            return Unary(rng.choice(["-", "!"]), self.res_expr(rng, depth - 1))
        return Binary(rng.choice(["+", "*", "==", "&&"]), self.res_expr(rng, depth - 1),
                      self.res_expr(rng, depth - 1))

    def test_res_keys_agree_with_oracle(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(1000):
            e = self.res_expr(rng)
            inside = [node.index for node in walk(e) if isinstance(node, ResVar)]
            index = rng.choice(inside if inside and rng.random() < 0.7
                               else self.INDICES + [ResVar(Var("i"))])
            replacement = rng.choice([IntLit(7), Var("y"), ResVar(index),
                                      Binary("-", Var("n'"), IntLit(1))])
            got = subst_vars(e, {ResVar(index): replacement})
            assert got == subst_res_oracle(e, index, replacement)
            occurs = subst_res_oracle(e, index, Var("absent")) != e
            if not occurs:
                assert got is e
            hits += occurs
            # a Fresh argument is substituted like any other subtree
            fresh = Fresh(e)
            assert subst_vars(fresh, {ResVar(index): replacement}) == Fresh(got)
        assert hits >= 300

    def test_name_and_res_keys_at_once(self):
        e = Binary("+", ResVar(Var("i")), Binary("*", Var("i"), ResVar(ResVar(Var("i")))))
        got = subst_vars(e, {"i": Var("j"), ResVar(Var("i")): IntLit(5)})
        assert got == Binary("+", IntLit(5), Binary("*", Var("j"), ResVar(IntLit(5))))

    def test_fresh_argument_substituted_or_shared(self):
        fresh = Fresh(Binary("+", Var("i"), IntLit(1)))
        assert subst_vars(fresh, {"i": Var("i'")}) == Fresh(Binary("+", Var("i'"), IntLit(1)))
        assert subst_vars(fresh, {"j": Var("i'")}) is fresh
        assert subst_vars(fresh, {ResVar(Var("i")): IntLit(0)}) is fresh

    def test_shadowed_name_is_left_alone(self):
        s = Scope(("x",), Assign(Var("x"), Var("x")))
        assert subst_stmt(s, {"x": IntLit(1)}) is s
        assert subst_stmt(Seq(Skip(), s), {"x": IntLit(1)}).second is s

    def test_unchanged_children_are_shared(self):
        left, right = Assign(Var("y"), IntLit(1)), Assign(Var("x"), Var("x"))
        got = subst_stmt(Seq(left, right), {"x": Var("x'")})
        assert got == Seq(left, Assign(Var("x'"), Var("x'"))) and got.first is left
