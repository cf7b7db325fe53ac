"""Trace logic: parsing, membership vs the brute-force oracle, contracts."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (MUTANT_SRC, RUNNING_SRC, contract_m, event_trace, golden_m0,
                     golden_m1, m_source, member_approx, mutate_trace,
                     parse_formula, parse_term_oracle, psi_fixed_point, spec_m)
from tracelet import logic
from tracelet.interp import run
from tracelet.lang import (RESERVED, Binary, BoolLit, IntLit, ParseError,
                           ResVar, TokenStream, Var, names, parse_program,
                           pretty_expr, tokenize)
from tracelet.logic import (And, Chop, Concat, ContractSpec, FinishEvF,
                            Fresh, Gap, LogicError, MemberBudgetExceeded, Mu,
                            MuApp, NoEv, Or, RecApp, StartEvF, StatePred,
                            _Member, big_step_of,
                            contract_file_text, eval_pred, formula_vars,
                            make_contract, member, no_event_chop,
                            parse_contract_file,
                            pretty_formula, psi, substitute, unfold)
from tracelet.traces import (CallEv, Ctx, PopEv, PushEv, RetEv, State, Trace,
                             TraceError, is_state, singleton)


def state_segments(trace):
    """Every segment of trace that starts and ends at a state."""
    states = [p for p, e in enumerate(trace.entries) if is_state(e)]
    for lo in states:
        for hi in states:
            if hi >= lo:
                yield Trace(trace.entries[lo:hi + 1])


def m1_core():
    return Trace(golden_m1().entries[:-1])


def m0_core():
    return Trace(golden_m0().entries[:-1])


def m3_core():
    program = parse_program(RUNNING_SRC.replace("x = m(1)", "x = m(3)"))
    return Trace(run(program).entries[:-1])


def contract_with_post(mu=None):
    mu = mu or contract_m()
    return Chop(MuApp(mu, (Var("n"), Var("i"))),
                StatePred(Binary("==", ResVar(Var("i")), Var("n"))))


class TestEvalPred:
    def test_rigid_equality(self):
        assert eval_pred(State({"n'": 0}), {}, Binary("==", Var("n'"), IntLit(0)))

    def test_true_literal(self):
        assert eval_pred(State({}), {}, BoolLit(True))

    def test_logical_fallback(self):
        assert eval_pred(State({}), {"n": 3}, Binary(">", Var("n"), IntLit(2)))

    def test_logical_binding_shadows_program_var(self):
        # bound parameters of a fixed point must win over state bindings
        assert eval_pred(State({"n": 0}), {"n": 9},
                         Binary("==", Var("n"), IntLit(9)))

    def test_agreement_with_direct_evaluation(self):
        rng = random.Random(2)
        for _ in range(300):
            st = State({"a": rng.randint(-4, 4)})
            env = {"b": rng.randint(-4, 4)}
            p = Binary(rng.choice(["<", "<=", "==", "!=", ">", ">="]),
                       Binary("+", Var("a"), Var("b")), IntLit(rng.randint(-4, 4)))
            direct = (st.get("a") + env["b"])
            expect = {"<": direct < p.right.value, "<=": direct <= p.right.value,
                      "==": direct == p.right.value, "!=": direct != p.right.value,
                      ">": direct > p.right.value, ">=": direct >= p.right.value}[p.op]
            assert eval_pred(st, env, p) == expect


class TestPsi:
    def test_singleton_member(self):
        assert member(singleton(State({"x": 0})), psi("m"))

    def test_call_event_excluded(self):
        t = event_trace(State({"x": 0}), CallEv("m", 1, 0))
        assert not member(t, psi("m"))

    def test_linear_scan_equivalence(self):
        rng = random.Random(12)
        from tracelet.traces import event_involves, ret_owners
        base = golden_m1()
        samples = [base, m1_core()]
        for _ in range(200):
            samples.append(mutate_trace(rng, base))
        for t in samples:
            if t.is_empty:
                continue
            owners = ret_owners(t)
            has_m = any(event_involves(e, {"m"}, owners.get(k))
                        for k, e in enumerate(t.entries))
            assert member(t, psi("m")) == (not has_m)

    def test_no_event_chop_desugaring(self):
        a, b = StatePred(BoolLit(True)), StatePred(BoolLit(True))
        f = no_event_chop(a, "m", b)
        assert f == Chop(Chop(a, psi("m")), b)
        g = no_event_chop(a, None, b)
        assert g.left.right == Gap(frozenset())


class TestParseFormula:
    def test_state_pred_leaf(self):
        f = parse_formula("[x == 0]")
        assert f == StatePred(Binary("==", Var("x"), IntLit(0)))

    def test_contract_text_round_trips(self):
        mu = contract_m()
        printed = pretty_formula(mu)
        again = parse_formula(printed)
        assert mu == again
        assert pretty_formula(again) == printed

    def test_example_contract_two_disjuncts(self):
        f = parse_formula(pretty_formula(contract_m()))
        assert isinstance(f, Mu) and isinstance(f.body, Or)

    def test_nonproductive_mu_accepted(self):
        f = parse_formula("(mu X(). X())()")
        assert not member(singleton(State({})), f)

    def test_unbound_recursion_variable(self):
        with pytest.raises(ParseError, match="1:11: unbound recursion variable Y"):
            parse_formula("[true] ** Y(1)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="1:23: arity mismatch for X: 1 args, expected 2"):
            parse_formula("(mu X(a, b). [a == b])(1)")

    def test_sugar_parses_to_chop_psi_chop(self):
        f = parse_formula("[true] ~m~ [true]")
        assert isinstance(f, Chop) and f.left.right == psi("m")

    def test_noev_syntax(self):
        f = parse_formula("noev(m, q)")
        assert f == NoEv(frozenset({"m", "q"}))

    @pytest.mark.parametrize("text", [
        "startEv(m, res(0), 0)",
        "(mu X(a). [a == 0])(res(0) + 1)",
    ])
    def test_res_is_not_a_term(self, text):
        # res(i) reads a state, so it belongs inside [...] predicates only
        with pytest.raises(ParseError, match="res"):
            parse_formula(text)


# The words the term parser rejects as variables, though the grammar
# before parse_expr served terms read them as variables.
NEWLY_REJECTED = ["contract", "false", "finishEv", "if", "main", "mu", "psi",
                  "return", "skip", "spec", "startEv", "true", "while"]
_TERM_NAMES = ["x", "n", "k'", "i''", "a_1"]
_TERM_NOISE = ["(", ")", "+", "-", "*", ",", "<", "!", "&&", "==", "fresh",
               "res", "x", "3", "true", "mu", "[", "]"]


def random_term_text(rng, depth=3) -> str:
    """Integer literals, negatives, nested parentheses, unary minus,
    + - *, primed names, and now and then a reserved word as a name."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.3:
            return str(rng.randint(0, 12))
        if r < 0.4:
            return f"-{rng.randint(0, 9)}"
        if r < 0.96:
            return rng.choice(_TERM_NAMES)
        return rng.choice(NEWLY_REJECTED)
    r = rng.random()
    if r < 0.2:
        return f"({random_term_text(rng, depth - 1)})"
    if r < 0.3:
        return f"-{random_term_text(rng, depth - 1)}"
    op = rng.choice(["+", "-", "*"])
    return f"{random_term_text(rng, depth - 1)} {op} {random_term_text(rng, depth - 1)}"


def term_texts(count: int, seed: int):
    """Seeded term texts; a third of them have a token dropped, inserted
    or duplicated, and some stand inside fresh(...)."""
    rng = random.Random(seed)
    for _ in range(count):
        text = random_term_text(rng)
        if rng.random() < 0.15:
            text = f"fresh({text})"
        if rng.random() < 0.33:
            toks = [t.text for t in tokenize(text)[:-1]]
            k = rng.randrange(len(toks) + 1)
            edit = rng.choice(["drop", "insert", "duplicate"])
            if edit == "insert" or not toks:
                toks.insert(k, rng.choice(_TERM_NOISE))
            elif edit == "drop":
                del toks[min(k, len(toks) - 1)]
            else:
                toks.insert(k, toks[min(k, len(toks) - 1)])
            text = " ".join(toks)
        yield text


def parse_whole_term(parse, text: str):
    """parse's term for all of text, or ParseError (the class) if it
    raises one or leaves input over."""
    ts = TokenStream(tokenize(text))
    try:
        got = parse(ts)
        if ts.peek().kind != "eof":
            ts.error("trailing input")
    except ParseError:
        return ParseError
    return got


class TestTermParser:
    def test_newly_rejected_are_the_reserved_words(self):
        assert NEWLY_REJECTED == sorted(RESERVED - {"res", "fresh"})

    def test_agrees_with_the_term_grammar_oracle(self):
        kinds = Counter()
        for text in term_texts(4000, 15):
            want = parse_whole_term(parse_term_oracle, text)
            got = parse_whole_term(logic._parse_term, text)
            words = {t.text for t in tokenize(text) if t.kind == "ident"}
            if want is ParseError:
                assert got is ParseError, text
                kinds["both reject"] += 1
            elif words & set(NEWLY_REJECTED):
                assert got is ParseError, text
                kinds["newly rejected"] += 1
            else:
                assert got == want, text
                assert parse_whole_term(logic._parse_term, pretty_expr(got)) == got, text
                kinds["equal"] += 1
                kinds["fresh"] += isinstance(got, Fresh)
        assert kinds["equal"] >= 2000 and kinds["both reject"] >= 800
        assert kinds["newly rejected"] >= 150 and kinds["fresh"] >= 200

    @pytest.mark.parametrize("text, message", [
        ("startEv(m, true, i)", "'true' not allowed here"),
        ("startEv(m, n, psi)", "reserved word 'psi'"),
        ("startEv(m, n < 1, i)", "expected an arithmetic term, found 'n < 1'"),
        ("startEv(m, !n, i)", "expected an arithmetic term"),
        ("(mu X(a). [a == 0])(n && 1)", "expected an arithmetic term"),
        ("startEv(m, res(0), 0)", "1:12: res(...) may only appear inside [...] predicates"),
        ("startEv(m, n + fresh(i), i)", "1:16: fresh(...) must be a whole argument"),
        ("startEv(m, fresh(fresh(i)), i)", "fresh(...) must be a whole argument"),
    ])
    def test_malformed_terms(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert message in str(err.value)

    @pytest.mark.parametrize("text,message", [
        ("spec m { base: [n == 0]; step: [n > 0]; inv: n - 1; result: n; post: n }",
         "unknown spec field 'post'"),
        ("spec m { base: [n == 0]; step: [n > 0] }",
         "spec m missing fields: ['inv', 'result']"),
        ("[true] [true]", "trailing input after formula"),
        ("contract c() := [true]\nproof c", "expected 'contract' or 'spec'"),
        ("[true](1)", "1:7: only fixed points and recursion variables take arguments"),
        ("(mu X(a). X(1)(2))(0)",
         "1:15: only fixed points and recursion variables take arguments, one list each"),
        ("** [true]", "expected formula, found '**'"),
        ("(mu X(a). [a == 0] ** X(1, 2))(0)", "1:23: arity mismatch for X: 2 args, expected 1"),
        ("(mu X(a). [a == 0] ** X)(0)", "1:23: arity mismatch for X: 0 args, expected 1"),
        ("(mu X(a). [a == 0])(0, 1)", "1:20: arity mismatch for X: 2 args, expected 1"),
        ("[true] ** Y(1)", "1:11: unbound recursion variable Y"),
        ("(mu X(a). [a == 0])(0) ** X(0)", "1:27: unbound recursion variable X"),
        ("contract c(a) := mu X(a, b). [a == 0]",
         "1:18: fixed point X takes 2 parameters, the contract 1"),
        ("contract d() := [true]\ncontract c(a, b) :=\n  (mu X(a). [a == 0])",
         "3:3: fixed point X takes 1 parameters, the contract 2"),
        ("mu X(a). [a == 0]", "1:1: fixed point X takes 1 parameters, the contract 0"),
        ("startEv(m, fresh(i), 0)", "1:12: fresh(...) must be a whole argument of a recursion"),
        ("finishEv(m, 0, fresh(i))", "1:16: fresh(...) must be a whole argument of a recursion"),
        ("spec m { base: [n == 0]; step: [n > 0];\n inv: n - 1; result: fresh(n) }",
         "2:22: fresh(...) must be a whole argument of a recursion"),
        ("spec m { base: [n == 0]; step: [n > 0]; inv: fresh(n); result: n }",
         "1:46: fresh(...) must be a whole argument of a recursion"),
    ], ids=["unknown-field", "missing-fields", "trailing-input", "top-level",
            "applied-predicate", "applied-twice", "no-formula", "arity", "arity-bare",
            "arity-applied", "unbound", "unbound-outside", "contract-params",
            "contract-params-line-3", "formula-file-params", "fresh-start", "fresh-finish",
            "fresh-result", "fresh-inv"])
    def test_malformed_contract_files(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_contract_file(text)

    def test_spec_fields_are_terms(self):
        with pytest.raises(ParseError, match="'true' not allowed here"):
            parse_contract_file("spec m { base: [n == 0]; step: [n > 0]; "
                                "inv: n - 1; result: true }")


class TestMember:
    def test_state_pred_membership(self):
        assert member(singleton(State({"x": 0})),
                      StatePred(Binary("==", Var("x"), IntLit(0))))
        assert not member(singleton(State({"x": 1})),
                          StatePred(Binary("==", Var("x"), IntLit(0))))

    def test_m0_core_in_contract(self):
        assert member(m0_core(), contract_with_post(), {"n": 0, "i": 0})
        assert member_approx(m0_core(), contract_with_post(), {"n": 0, "i": 0})

    def test_m1_core_in_contract_and_not_off_by_one(self):
        phi = contract_with_post()
        assert member(m1_core(), phi, {"n": 1, "i": 0})
        assert not member(m1_core(), phi, {"n": 2, "i": 0})
        assert member_approx(m1_core(), phi, {"n": 1, "i": 0})
        assert not member_approx(m1_core(), phi, {"n": 2, "i": 0})

    def test_empty_mu_is_empty(self):
        f = MuApp(Mu("X", (), RecApp("X", ())), ())
        for t in (singleton(State({})), golden_m1()):
            assert not member(t, f)

    def test_oracle_agreement_on_mutants(self):
        rng = random.Random(77)
        phi = contract_with_post()
        big = big_step_of(spec_m())
        corpus = [golden_m1(), m1_core(), golden_m0(), m0_core()]
        for _ in range(60):
            corpus.append(mutate_trace(rng, rng.choice(corpus[:4])))
        for t in corpus:
            if t.is_empty or len(t.entries) > 30:
                continue
            for env in ({"n": 0, "i": 0}, {"n": 1, "i": 0}):
                assert member(t, phi, env) == member_approx(t, phi, env)
                assert member(t, big, env) == member_approx(t, big, env)

    def test_membership_without_mu_matches_bruteforce(self):
        rng = random.Random(5)
        leafs = [StatePred(BoolLit(True)),
                 StatePred(Binary(">=", Var("x"), IntLit(0))),
                 NoEv(frozenset()), NoEv(frozenset({"m"})),
                 StartEvF("m", IntLit(0), IntLit(0)),
                 FinishEvF("m", IntLit(0), IntLit(0)),
                 psi("m")]
        for _ in range(120):
            f = rng.choice(leafs)
            for _ in range(rng.randint(1, 3)):
                op, g = rng.choice([Chop, Concat, Or, And]), rng.choice(leafs)
                f = op(f, g) if rng.random() < 0.5 else op(g, f)
            for seg in state_segments(rng.choice([golden_m0(), golden_m1()])):
                assert member(seg, f) == member_approx(seg, f), (f, seg.entries)

    @pytest.mark.parametrize("text", [
        # each is misjudged on some segment of golden_m1 if _shape gives
        # the compound an anchor its matches do not all have
        "noev() ** (psi(m) ** startEv(m, 0, 1))",    # Chop, wide left half
        "(finishEv(m, 0, 1) ** psi(m)) ** noev()",   # Chop, wide right half
        "noev() ** (noev() .. startEv(m, 0, 1))",    # Concat, first from the left
        "(finishEv(m, 0, 1) .. noev()) ** noev()",   # Concat, last from the right
        "noev() ** (startEv(m, 0, 1) \\/ noev())",   # Or, halves disagree
        "(finishEv(m, 0, 1) \\/ noev()) ** noev()",  # Or, halves disagree
        # Concat splits at its halves' anchors too
        "[true] .. startEv(m, 0, 1)",                # right half's first
        "finishEv(m, 0, 1) .. [true]",               # left half's last
        "noev() .. (startEv(m, 0, 1) ** psi(m))",    # right half's first
        "(psi(m) ** finishEv(m, 0, 1)) .. noev()",   # left half's last
        # a fresh argument is bound to the call at lo+1 only when every
        # body match starts with a call that the parameter names
        "(mu Y(a, b). startEv(m, 1, a) \\/ startEv(m, 1, b) ** psi()"
        " ** startEv(m, 0, a) ** psi())(fresh(n), 0)",  # Or, halves disagree
        "(mu Y(b). (mu Z(b). startEv(m, 1, b) ** psi())(0) /\\ startEv(m, 1, 0)"
        " ** psi() ** startEv(m, 0, b) ** psi())(fresh(n))",  # inner argument
    ])
    def test_compound_anchors_match_bruteforce(self, text):
        f = parse_formula(text)
        segs = list(state_segments(golden_m1()))
        verdicts = [member(seg, f) for seg in segs]
        assert verdicts == [member_approx(seg, f) for seg in segs]
        assert any(verdicts)

    def test_one_memo_key_shape(self):
        core = m3_core()
        checker = _Member(core)
        assert checker.sat(contract_with_post(), 0, len(core.entries),
                           {"n": 3, "i": 0}, {})
        keys = list(checker.memo) + list(checker.onstack)
        assert keys and all(len(k) == 4 and all(type(x) is int for x in k)
                            for k in keys)

    def test_budget_stops_a_query(self, monkeypatch):
        env = {"n": 3, "i": 0}
        assert member(m3_core(), contract_with_post(), env)
        monkeypatch.setattr(logic, "MEMBER_BUDGET", 2)
        with pytest.raises(MemberBudgetExceeded):
            member(m3_core(), contract_with_post(), env)

    def test_false_under_an_open_item_is_not_reused(self):
        # items inside X's body are decided while X on the whole trace is
        # open and counts as false; X turns out true, so a false memoized
        # then would be reused stale
        t = Trace((State({"x": 1}), State({"x": 2})))
        f = parse_formula("(mu X(). ((X() \\/ noev()) ** ([x == 0] \\/ X())"
                          " ** (X() \\/ noev() .. X()) \\/ noev()))()")
        assert member(t, f)
        assert member_approx(t, f)

    def test_right_recursion_false_is_memoized(self, monkeypatch):
        # X on [j, hi) hits itself at split j, then opens X on [j+1, hi):
        # that item relied only on itself, so its false is final once it
        # closes; not memoizing it would expand 2^n items
        t = Trace(tuple(State({"x": k}) for k in range(30)))
        f = parse_formula("(mu X(). [x == 99] \\/ (psi() ** X()))()")
        monkeypatch.setattr(logic, "MEMBER_BUDGET", 100)
        assert not member(t, f)

    def test_false_relying_on_an_outer_item_is_not_reused(self):
        # X(1) opens inside X(0) and hits it on the stack; X(0) turns out
        # true, so X(1), asked again under the same closure, is true too
        app = parse_formula("(mu X(a). [a == 1] /\\ X(0)"
                            " \\/ [a == 0] /\\ (X(1) \\/ [true]))(0)")
        f = And(app, MuApp(app.mu, (IntLit(1),)))
        t = Trace((State({"x": 0}),))
        assert member(t, f)
        assert member_approx(t, f)

    def test_reason_read_from_the_chart(self, monkeypatch):
        core = m3_core()
        f = Chop(contract_with_post(), StatePred(Binary("==", Var("x"), IntLit(7))))
        checker = _Member(core)
        assert not checker.sat(f, 0, len(core.entries), {"n": 3, "i": 0}, {})
        budget, memo = checker.budget, dict(checker.memo)

        def decide(*args):
            raise AssertionError("the reason decided an item")

        for name in ("sat", "_sat", "_mu_member"):
            monkeypatch.setattr(checker, name, decide)
        assert checker.why_not(f) == (
            "no match for chain element #3: [x == 7] "
            f"(#1..#2 match entries 0..{len(core.entries) - 1})")
        assert (checker.budget, checker.memo) == (budget, memo)

    def test_reason_only_for_a_non_member(self):
        why = []
        assert member(m3_core(), contract_with_post(), {"n": 3, "i": 0}, why)
        assert not member(singleton(State({"x": 1})), parse_formula("[x == 0]"), None, why)
        assert why == ["trace is not in the denotation of [x == 0]"]

    def test_owner_table_built_on_first_use(self, monkeypatch):
        # only a psi gap's reach reads the retEv owners
        built = []
        owners = logic.ret_owners
        monkeypatch.setattr(logic, "ret_owners",
                            lambda t: built.append(t) or owners(t))
        full = run(parse_program(m_source(3)))
        f = Chop(contract_with_post(), StatePred(Binary("==", Var("x"), IntLit(7))))
        why = []
        assert not member(full, f, {"n": 3, "i": 0}, why)
        assert why[0].startswith("no match for chain element #1")
        assert built == []  # the anchors reject it before any item
        # two gaps, two reach tables, one owner table
        assert not member(full, parse_formula("psi(p) /\\ psi(m)"))
        assert len(built) == 1

    def test_tables_built_on_first_use(self, monkeypatch):
        # the anchor and split tables are lazy, like the owner table
        made = []
        monkeypatch.setattr(logic, "_Member",
                            lambda t: made.append(_Member(t)) or made[-1])
        tables = {"owners", "_evpos", "_state_flags"}
        full = run(parse_program(m_source(3)))
        f = Chop(contract_with_post(), StatePred(Binary("==", Var("x"), IntLit(7))))
        assert not member(full, f, {"n": 3, "i": 0}, [])
        assert tables.isdisjoint(vars(made[-1]))  # rejected by the anchors
        assert not member(full, MuApp(contract_m(), (Var("n"), Var("i"))), {"n": 3, "i": 0})
        assert tables.isdisjoint(vars(made[-1]))
        # a core trace reaches the Chop split loops, which read the flags
        assert member(Trace(full.entries[:-1]), f.left, {"n": 3, "i": 0})
        assert "_state_flags" in vars(made[-1])

    def test_fresh_id_existential(self):
        # the recursive disjunct finds the inner call id
        phi = contract_with_post()
        assert member(m1_core(), phi, {"n": 1, "i": 0})
        # and never steals the enclosing id: pushEv ids are unique per trace
        t = m1_core()
        ids = [e.call_id for e in t.entries if isinstance(e, CallEv)]
        assert ids == [0, 1]


def _property_traces():
    rng = random.Random(11)
    out = []
    for k in range(4):
        for src in (RUNNING_SRC, MUTANT_SRC):
            full = run(parse_program(src.replace("x = m(1)", f"x = m({k})")))
            out += [full, Trace(full.entries[:-1])]
    return out + [mutate_trace(rng, rng.choice(out)) for _ in range(8)]


_PROPERTY_TRACES = _property_traces()
_CONTRACT = f"({pretty_formula(contract_m())})"
_PROPERTY_LEAVES = [parse_formula(text) for text in [
    "psi(m)", "psi()", "noev()", "noev(m)",
    "startEv(m, n, i)", "startEv(m, 0, 1)", "startEv(m, 1, 0)",
    "finishEv(m, n, i)", "finishEv(m, 0, 1)", "finishEv(m, 1, 0)",
    "[true]", "[x >= 1]", "[n == 0]", "[res(i) == n]",
    _CONTRACT + "(n, i)", _CONTRACT + "(1, 1)",
    _CONTRACT + "(0, fresh(i))", _CONTRACT + "(n, fresh(i))",
    # psi gaps whose reach carries across a fixed-width neighbour
    "[true] ** startEv(m, 0, 1) ** psi(m)",
    "psi(m) ** finishEv(m, 0, 1) ** [true]",
    "startEv(m, n, i) .. psi(m)", "psi() .. finishEv(m, n, i)",
    "noev() ** startEv(m, 1, 0) ** psi(m) ** noev()",
    "psi(m) /\\ (noev() .. psi())",
]]


@st.composite
def _segments(draw):
    trace = draw(st.sampled_from(_PROPERTY_TRACES))
    states = [p for p, e in enumerate(trace.entries) if is_state(e)]
    lo = draw(st.sampled_from(states))
    hi = draw(st.sampled_from([p for p in states if p >= lo]))
    return Trace(trace.entries[lo:hi + 1])


_formulas = st.recursive(
    st.sampled_from(_PROPERTY_LEAVES),
    lambda sub: st.builds(lambda op, l, r: op(l, r),
                          st.sampled_from([And, Or, Concat, Chop]), sub, sub),
    max_leaves=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=_formulas, seg=_segments(), n=st.integers(0, 3))
def test_bounded_splits_match_oracle(f, seg, n):
    env = {"n": n, "i": 0}
    assert member(seg, f, env) == member_approx(seg, f, env)


class TestContracts:
    def test_make_contract_shape(self):
        mu = contract_m()
        assert mu.params == ("n", "i")
        base, step = mu.body.left, mu.body.right
        base_parts = [base]
        from tracelet.logic import flatten_chain
        bp = flatten_chain(base)
        assert isinstance(bp[0], StatePred)
        assert isinstance(bp[1][1], StartEvF)
        assert bp[2][1] == psi("m")
        assert isinstance(bp[3][1], FinishEvF)
        assert isinstance(bp[4][1], StatePred)
        sp = flatten_chain(step)
        assert isinstance(sp[3][1], RecApp)
        assert isinstance(sp[3][1].args[1], Fresh)

    def test_empty_preconditions_empty_denotation(self):
        spec = ContractSpec("m", BoolLit(False), BoolLit(False), Var("n"),
                            Binary("-", Var("n"), IntLit(1)))
        phi = Chop(MuApp(make_contract(spec), (Var("n"), Var("i"))),
                   StatePred(Binary("==", ResVar(Var("i")), Var("n"))))
        for t in (m0_core(), m1_core(), singleton(State({}))):
            assert not member(t, phi, {"n": 1, "i": 0})

    def test_generated_contract_file_parses(self):
        text = contract_file_text(spec_m())
        cf = parse_contract_file(text)
        assert set(cf.contracts) == {"m", "m_big_step"}
        assert "m" in cf.specs
        params, formula = cf.contracts["m"]
        assert params == ("n", "i")
        assert formula == contract_m()

    def test_big_step_weakening_on_goldens(self):
        big = big_step_of(spec_m())
        phi = contract_with_post()
        for core, n in ((m0_core(), 0), (m1_core(), 1)):
            env = {"n": n, "i": 0}
            assert member(core, phi, env)
            assert member(core, big, env)

    def test_big_step_needs_pre_and_post_states(self):
        # a singleton without the result binding is no witness
        assert not member(singleton(State({"x": 0})), big_step_of(spec_m()),
                          {"n": 1, "i": 0})


class TestUnfold:
    def test_unfold_equivalence_on_corpus(self):
        mu = contract_m()
        app = MuApp(mu, (Var("n"), Var("i")))
        unfolded = unfold(app)
        assert parse_formula(pretty_formula(unfolded)) == unfolded
        phi_app = Chop(app, StatePred(Binary("==", ResVar(Var("i")), Var("n"))))
        phi_unf = Chop(unfolded, StatePred(Binary("==", ResVar(Var("i")), Var("n"))))
        rng = random.Random(13)
        corpus = [golden_m0(), golden_m1(), m0_core(), m1_core()]
        for _ in range(40):
            corpus.append(mutate_trace(rng, rng.choice(corpus[:4])))
        for t in corpus:
            if t.is_empty:
                continue
            for n in (0, 1, 2):
                env = {"n": n, "i": 0}
                assert member(t, phi_app, env) == member(t, phi_unf, env)

    def test_variables_free_and_with_binders(self):
        # asked in either order, on the same objects: each Mu keeps its
        # names and its free variables apart
        for first in (False, True):
            f = parse_formula("(mu X(a). (mu Y(c). [c == a] /\\ [d == 0])(a))(k)")
            expected = {False: {"d", "k"}, True: {"a", "c", "d", "k"}}
            for binders in (first, not first, first):
                got = names(f) if binders else formula_vars(f)
                assert got == expected[binders]

    def test_substitution_identity_when_absent(self):
        mu = contract_m()
        f = StatePred(Binary("==", Var("x"), IntLit(0)))
        assert substitute(f, "X_m", mu, (IntLit(0), IntLit(0))) == f

    def test_double_unfold_commutes(self):
        # unfolding the re-rolled occurrence agrees with substituting into
        # an independently parsed copy of the contract
        from tracelet.calculus import _instantiate_fresh
        rng = random.Random(8)

        def inner_apps(f):
            if isinstance(f, MuApp):
                yield f
            if hasattr(f, "left"):
                yield from inner_apps(f.left)
                yield from inner_apps(f.right)

        for _ in range(10):
            mu = contract_m()
            n = rng.randint(1, 6)
            app = MuApp(mu, (IntLit(n), IntLit(0)))
            once = _instantiate_fresh(unfold(app), set())
            inner = [a for a in inner_apps(once) if a.mu is mu]
            assert inner, "unfolded body re-rolls the recursion"
            twice = _instantiate_fresh(unfold(inner[0]), {"k'"})
            mu2 = parse_formula(pretty_formula(contract_m()))
            direct = _instantiate_fresh(
                substitute(mu2.body, mu2.name, mu2, inner[0].args), {"k'"})
            assert twice == direct
            assert parse_formula(pretty_formula(twice)) == twice

    def test_unfold_substitutes_all_parameters_at_once(self):
        # the argument for n names the parameter i, which must stay i
        mu = parse_formula("mu X(n, i). [n + i == 0]")
        assert unfold(MuApp(mu, (Var("i"), Var("k")))) == \
            parse_formula("[i + k == 0]")

    def test_monotonicity_extra_disjunct(self):
        phi = contract_with_post()
        widened = Or(phi, StatePred(BoolLit(True)))
        env = {"n": 1, "i": 0}
        assert member(m1_core(), phi, env)
        assert member(m1_core(), widened, env)

    def test_member_total_on_corpus(self):
        # termination smoke: every query returns a boolean
        rng = random.Random(3)
        phi = contract_with_post()
        for _ in range(50):
            t = mutate_trace(rng, golden_m1())
            if t.is_empty:
                continue
            assert member(t, phi, {"n": 1, "i": 0}) in (True, False)


class TestSchemaCrossCheck:
    def test_psi_membership_equals_schema_gap(self):
        # the no-event fixed point agrees with the brute-force oracle
        rng = random.Random(31)
        base = golden_m1()
        samples = [base, m1_core(), golden_m0(), singleton(State({"x": 0}))]
        for _ in range(120):
            t = mutate_trace(rng, base)
            if not t.is_empty:
                samples.append(t)
        for t in samples:
            entries = t.entries
            from tracelet.traces import is_state
            if not (is_state(entries[0]) and is_state(entries[-1])):
                continue  # mutants that break the state/event shape
            assert member(t, psi("m")) == member_approx(t, psi("m")), t


class TestFormulasAsWritten:
    """Formulas a contract file may hold that no contract template builds."""

    def test_near_gaps_are_not_gaps(self):
        # psi is one node: a fixed point is never read as a gap by its shape,
        # not even the one that defines psi, and each is decided as written
        texts = [pretty_formula(psi_fixed_point("m")),
                 "mu G(). [true] \\/ noev(m) .. G()",
                 "mu G(). noev(m) \\/ noev(q) .. G()",
                 "mu H(). (mu G(). noev(m) \\/ noev(m) .. H())()"]
        sigma = State({"x": 0})
        traces = [singleton(sigma), golden_m1(), m1_core(),
                  event_trace(sigma, CallEv("q", 1, 0)), event_trace(sigma, CallEv("m", 1, 0))]
        for text in texts:
            f = parse_formula(text)
            assert isinstance(f, Mu) and "psi" not in pretty_formula(f)
            for t in traces:
                assert member(t, f) == member_approx(t, f), (text, t)
        written = parse_formula(texts[0])
        assert [member(t, written) for t in traces] == [member(t, psi("m")) for t in traces] \
            == [True, False, False, True, False]

    def test_unfolding_through_a_nested_fixed_point(self):
        f = parse_formula("(mu X(a). [a == 0] ** (mu Y(b). [b == a])(a))(1)")
        assert unfold(f) == parse_formula("[1 == 0] ** (mu Y(b). [b == 1])(1)")
        # a nested binder of the same name shadows X
        f = parse_formula("(mu X(a). (mu X(b). [b == a] .. X(b))(0))(1)")
        assert unfold(f) == parse_formula("(mu X(b). [b == 1] .. X(b))(0)")
        with pytest.raises(LogicError, match="capture a parameter of Y"):
            unfold(parse_formula("(mu X(a). (mu Y(b). [b == a])(0))(b)"))

    def test_fresh_cannot_reach_a_state_predicate(self):
        mu = parse_formula("mu X(n, i). [i == 0] ** X(n, fresh(i))")
        with pytest.raises(LogicError, match="cannot appear inside state predicates"):
            substitute(mu.body, "X", mu, (Var("n"), Fresh(Var("i"))))

    @pytest.mark.parametrize("formula,message", [
        (StatePred(Binary("+", Var("x"), IntLit(1))), "predicate is not boolean"),
        (Mu("X", ("a",), StatePred(BoolLit(True))), "unapplied fixed point X"),
    ], ids=["non-boolean", "unapplied"])
    def test_refused_at_membership(self, formula, message):
        with pytest.raises(LogicError, match=message):
            member(singleton(State({"x": 0})), formula)

    def test_fresh_event_argument_built_by_hand_is_an_error(self):
        # the parser lets fresh(...) stand only as a recursion argument
        sigma, done = State({"x": 0}), State({"x": 0, "res0": 5})
        start = Trace([sigma, CallEv("m", 1, 0), sigma, PushEv(Ctx("m", 0)), sigma])
        finish = Trace([sigma, RetEv(5), sigma, done, PopEv(Ctx("m", 0)), done])
        assert member(start, StartEvF("m", IntLit(1), IntLit(0)))
        assert member(finish, FinishEvF("m", IntLit(5), IntLit(0)))
        for trace, formula in [
                (start, StartEvF("m", Fresh(Var("i")), IntLit(0))),
                (start, StartEvF("m", IntLit(1), Fresh(Var("i")))),
                (finish, FinishEvF("m", Fresh(Var("i")), IntLit(0))),
                (finish, FinishEvF("m", IntLit(5), Fresh(Var("i"))))]:
            with pytest.raises(TraceError, match="cannot evaluate Fresh"):
                member(trace, formula)

    def test_parameterless_fixed_point_in_formula_position(self):
        assert member(singleton(State({})), Mu("X", (), StatePred(BoolLit(True))))

    def test_empty_trace_refused(self):
        with pytest.raises(LogicError, match="empty trace"):
            member(Trace(()), StatePred(BoolLit(True)))

    def test_width_range_named_when_the_trace_is_too_long(self):
        why = []
        three = Trace([State({})] * 3)
        assert not member(three, parse_formula("[true] \\/ [true] .. [true]"), why=why)
        assert why == ["the trace has 3 entries; the formula matches traces of 1 to 2 entries"]

    def test_segment_ids_read_once(self):
        checker = _Member(golden_m1())
        first = checker.ids_in(0, len(golden_m1().entries))
        assert checker.ids_in(0, len(golden_m1().entries)) is first
