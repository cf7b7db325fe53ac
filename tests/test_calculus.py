"""Sequent calculus: rules, automated proof, replay checking, soundness."""

import ast
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (MUTANT_SRC, dump_proof_oracle,
                     event_skeleton, expr_vars_oracle,
                     formula_children_oracle, formula_rebuild_oracle,
                     formula_vars_oracle, judgment_true, names_in_sequent_oracle,
                     parse_formula, random_terminating_program,
                     run_update_prefixed, running_program, sample_states,
                     semantics, sequent_true, spec_m, stmt_names_oracle,
                     subst_atom_oracle, update_reads_oracle)
from tracelet import calculus, lang, proofs
from tracelet.calculus import (ContractAssumption, ContractGoal, Judgment,
                               PredAssert, PredGoal, RuleContext, RuleError,
                               Sequent, apply_rule, contract_goal, inline,
                               stmt_head)
from tracelet.fo import fo_valid
from tracelet.lang import (RESERVED, Assign, Binary, BoolLit, CallAssign, If,
                           IntLit, Return, ResVar, Scope, Seq, Skip,
                           TokenStream, Var, build_lookup, parse_expr,
                           parse_program, pretty_expr, subst_vars, tokenize)
from tracelet.logic import (Chop, ContractSpec, MuApp, StatePred, children,
                            formula_vars, pretty_formula, psi, rebuild)
from tracelet.proofs import check_proof, dump_proof, load_proof
from tracelet.prover import (ScriptError, UnsupportedConstruct, prove_auto,
                             run_script)
from tracelet.traces import State, eval_expr, singleton
from tracelet.updates import (CallUpd, Elem, FinishUpd, StartUpd,
                              apply_update_expr, pretty_update, update_reads,
                              update_writes)


def ctx_m():
    program = running_program()
    return RuleContext.for_program(program,
                                   [ContractAssumption.from_spec(spec_m())])


def pexpr(text):
    ts = TokenStream(tokenize(text))
    return parse_expr(ts, logical=True)


START_M00 = StartUpd("m", IntLit(0), IntLit(0))
START_K = StartUpd("m", IntLit(0), Var("k'"))
FINISH_K = FinishUpd("m", IntLit(6), Var("k'"))


def rule_counts(tree):
    """How often each rule is applied in a proof tree."""
    counts, stack = Counter(), [tree]
    while stack:
        node = stack.pop()
        if node.rule:
            counts[node.rule] += 1
        stack.extend(node.children)
    return counts


def equivalent(a, b):
    """Each predicate implies the other."""
    return bool(fo_valid([a], b)) and bool(fo_valid([b], a))


def replay(tree, ctx=None):
    """check_proof of tree as `prove -o` writes it."""
    proc, root = load_proof(dump_proof(tree, "m"))
    return check_proof(root, proc, ctx or ctx_m())


class TestUpdateApplication:
    def test_param_copy(self):
        # {k' := n'}(k' - 1)  ->  n' - 1
        u = (Elem(Var("k'"), Var("n'")),)
        assert apply_update_expr(u, pexpr("k' - 1")) == pexpr("n' - 1")

    def test_res_assignment_is_skipped(self):
        # a res(...) elementary update is a no-op at run time
        u = (Elem(ResVar(IntLit(0)), IntLit(5)),)
        assert apply_update_expr(u, pexpr("res(0) + 1")) == pexpr("res(0) + 1")

    def test_empty_identity(self):
        assert apply_update_expr((), pexpr("x + 1")) == pexpr("x + 1")

    def test_inner_to_outermost(self):
        u = (Elem(Var("x"), IntLit(1)), Elem(Var("x"), pexpr("x + 1")))
        assert apply_update_expr(u, pexpr("x")) == IntLit(2)

    def test_event_updates_bind_result_variables(self):
        u = (FinishUpd("m", Var("r'"), IntLit(0)),)
        assert apply_update_expr(u, pexpr("res(0) == 5")) == pexpr("r' == 5")

    def test_semantic_agreement(self):
        # applied expression evaluated in sigma equals evaluation in the
        # final state of the update's trace
        rng = random.Random(14)
        table = build_lookup(running_program())
        for _ in range(100):
            atoms = tuple(Elem(Var(rng.choice("ab")),
                               pexpr(rng.choice(["a + 1", "b - 2", "3", "a * 2"])))
                          for _ in range(rng.randint(0, 4)))
            e = pexpr(rng.choice(["a + b", "a - 1", "b * 3"]))
            sigma = State({"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)})
            tr = run_update_prefixed(atoms, None, singleton(sigma), table)
            assert eval_expr(sigma, apply_update_expr(atoms, e)) == \
                eval_expr(tr.last(), e)


class TestCurrCtxUpdate:
    """The call a return finishes: the update's leading startEv, the one
    that ProcedureContract inlines."""

    @staticmethod
    def finished(update):
        seq0 = Sequent((), Judgment(update, Return(Var("e'")), StatePred(BoolLit(True))))
        return apply_rule("Return", seq0, {}, ctx_m())[0].goal.update[-1]

    def test_open_start_event(self):
        u = (StartUpd("m'", IntLit(0), Var("i")), Elem(Var("r"), IntLit(0)))
        assert self.finished(u) == FinishUpd("m'", Var("e'"), Var("i"))

    def test_empty_is_main(self):
        # a hand-built goal in no call is refused, not an IndexError
        for update in ((), (Elem(Var("r"), IntLit(0)), START_M00)):
            with pytest.raises(RuleError, match="return outside any startEv context"):
                self.finished(update)

    def test_nested_stack(self):
        u = (START_M00, StartUpd("m", IntLit(0), IntLit(1)),
             FinishUpd("m", IntLit(0), IntLit(1)))
        assert self.finished(u) == FinishUpd("m", Var("e'"), IntLit(0))

    def test_agrees_with_concrete_context(self):
        # every return that the auto proofs reach is its body's last
        # statement, under an update whose one event atom is the leading
        # startEv: the innermost call still open
        returns = 0
        for seq in _auto_proof_sequents():
            j = seq.goal
            if isinstance(j, Judgment) and j.stmt is not None and \
                    isinstance(stmt_head(j.stmt)[0], Return):
                returns += 1
                assert stmt_head(j.stmt)[1] is None
                assert type(j.update[0]) is StartUpd
                assert not any(isinstance(a, (StartUpd, FinishUpd)) for a in j.update[1:])
        assert returns >= 40


class TestRules:
    def test_cond_produces_two_premises_and_right_closes(self):
        # under k > 0 the negative branch is refutable
        seq0 = Sequent((PredAssert(pexpr("k > 0")),),
                       Judgment((StartUpd("m", Var("k"), Var("i'")),),
                                Seq(If(pexpr("k != 0"),
                                       Seq(Assign(Var("r"), pexpr("k - 1")),
                                           Assign(Var("r"), pexpr("r + 1")))),
                                    Return(Var("r"))),
                                StatePred(BoolLit(True))))
        prem = apply_rule("Cond", seq0, {}, ctx_m())
        assert len(prem) == 2
        neg = prem[1].gamma[-1].pred
        from tracelet.fo import fo_valid
        assert fo_valid([pexpr("k > 0")], pexpr("k != 0")).status == "valid"
        assert fo_valid([pexpr("k > 0"), neg], BoolLit(False)).status == "valid"

    def test_return_introduces_finish_event(self):
        seq0 = Sequent((), Judgment((StartUpd("m", Var("n'"), Var("i'")),),
                                    Return(Var("e'")),
                                    StatePred(BoolLit(True))))
        prem = apply_rule("Return", seq0, {}, ctx_m())
        j = prem[0].goal
        assert j.update[-1] == FinishUpd("m", Var("e'"), Var("i'"))
        assert j.stmt == Assign(ResVar(Var("i'")), Var("e'"))

    def test_return_requires_context(self):
        seq0 = Sequent((), Judgment((), Return(Var("x")),
                                    StatePred(BoolLit(True))))
        with pytest.raises(RuleError):
            apply_rule("Return", seq0, {}, ctx_m())

    def test_var_decl_freshness(self):
        seq0 = Sequent((PredAssert(pexpr("r' == 1")),),
                       Judgment((), Scope(("r",), Seq(Assign(Var("r"), pexpr("r + 1")),
                                                      Return(Var("r")))),
                                StatePred(BoolLit(True))))
        prem = apply_rule("VarDecl", seq0, {}, ctx_m())
        j = prem[0].goal
        target = j.update[-1].target.name
        assert target not in lang.names(seq0)
        assert target.startswith("r'")

    def test_unfold_instantiates_fresh_ids(self):
        c = ContractAssumption.from_spec(spec_m())
        seq0 = Sequent((), Judgment((), None, MuApp(c.phi, (Var("n'"), Var("i'")))))
        args = {}
        prem = apply_rule("Unfold", seq0, args, ctx_m())
        body = prem[0].goal.formula
        assert args["fresh"] == ["k'"]
        inner = []

        def walk(f):
            if isinstance(f, MuApp) and f.mu is c.phi:
                inner.append(f)
            for attr in ("left", "right"):
                if hasattr(f, attr):
                    walk(getattr(f, attr))

        walk(body)
        assert inner and inner[0].args == (pexpr("n' - 1"), Var("k'"))

    def test_close_by_linear_arithmetic(self):
        seq0 = Sequent((PredAssert(pexpr("n' > 0")),), PredGoal(pexpr("n' >= 0")))
        assert apply_rule("Close", seq0, {}, ctx_m()) == []

    def test_close_rejects_invalid(self):
        seq0 = Sequent((), PredGoal(pexpr("n' > 0")))
        with pytest.raises(RuleError):
            apply_rule("Close", seq0, {}, ctx_m())

    def test_unknown_rule(self):
        with pytest.raises(RuleError, match="unknown rule"):
            apply_rule("Bogus", Sequent((), PredGoal(BoolLit(True))), {}, ctx_m())

    def test_extension_rules_gated(self):
        # one rule table and no gate: the two rules that failed the
        # semantic check are gone, so are the two that no goal descending
        # from a contract meets, and the three that no proof applied
        seq0 = Sequent((), Judgment((START_M00,), None,
                                    parse_formula("psi(m) ** [true]")))
        for rule in ("PrefixEv", "Composition", "AndSplit", "ElimUpdate1", "ApplyEqRigid",
                     "FiniteTraceEmptyPrefix", "FiniteTraceEmptyPostfix"):
            with pytest.raises(RuleError, match="unknown rule"):
                apply_rule(rule, seq0, {"at": 0, "split": 1}, ctx_m())

    def test_gap_axiom_blocks_excluded_events(self):
        seq0 = Sequent((), Judgment((START_M00,), None, psi("m")))
        with pytest.raises(RuleError):
            apply_rule("GapAxiom", seq0, {}, ctx_m())
        seq1 = Sequent((), Judgment((StartUpd("q", IntLit(0), IntLit(0)),), None, psi("m")))
        assert apply_rule("GapAxiom", seq1, {}, ctx_m()) == []


# ---------------------------------------------------------------------------
# Every refusal of the kernel, reached through apply_rule: one row per
# `raise RuleError` in calculus.py.  Most of these shapes never descend from
# a contract goal; a proof file can still name any rule at any goal.
# ---------------------------------------------------------------------------

C_M = ContractAssumption.from_spec(spec_m())
CALL_M = CallUpd(Var("r'"), "m", pexpr("n' - 1"))


def _seq(update, stmt, formula, gamma=(C_M,)):
    if isinstance(formula, str):
        formula = parse_formula(formula)
    return Sequent(tuple(gamma), Judgment(tuple(update), stmt, formula))


def _x_m(*args, mu=C_M.phi):
    """[true] ** X_m(args) ** [true]: a recursion occurrence for TrAbs."""
    return Chop(Chop(StatePred(BoolLit(True)), MuApp(mu, args)), StatePred(BoolLit(True)))


_OTHER_M = ContractAssumption.from_spec(
    ContractSpec("m", pexpr("n == 0"), pexpr("n > 0"), pexpr("n + 1"), pexpr("n - 1")))
_TRUE = StatePred(BoolLit(True))
_PRED = Sequent((), PredGoal(pexpr("x > 0")))
_X1 = Elem(Var("x"), IntLit(1))

REFUSALS = [
    ("Prestate", _PRED, {}, "expects a judgment goal"),
    ("Assign", _seq((), None, _TRUE), {}, "Assign needs a leading statement"),
    ("Poststate", _seq((), Skip(), _TRUE), {}, "applies after symbolic execution finished"),
    ("ApplyUpdate", _seq((_X1,), None, _TRUE), {}, r"needs at=<index>"),
    ("ApplyUpdate", _seq((_X1,), None, _TRUE), {"at": 1}, "index out of range"),
    ("DropUpdate", _seq((START_M00,), None, _TRUE), {"at": 0},
     "expects an elementary update on a variable"),
    ("DropResUpdate", _seq((Elem(ResVar(IntLit(0)), IntLit(1)),), None, _TRUE), {"at": "0"},
     "at= must be an integer"),
    ("Assign", _seq((), Skip(), _TRUE), {}, "expects an assignment statement"),
    ("Skip", _seq((), Assign(Var("x"), IntLit(1)), _TRUE), {}, "expects a skip statement"),
    ("Scope", _seq((), Scope(("y",), Skip()), _TRUE), {}, "expects a declaration-free block"),
    ("VarDecl", _seq((), Skip(), _TRUE), {}, "expects a block with declarations"),
    ("Cond", _seq((), Skip(), _TRUE), {}, "expects a conditional"),
    ("Cond", _seq((CallUpd(Var("x"), "m", IntLit(1)),), If(pexpr("x == 0"), Skip()), _TRUE),
     {}, "guard reads a call-update target"),
    ("Return", _seq((), Skip(), _TRUE), {}, "expects a return statement"),
    ("Return", _seq((FinishUpd("m", IntLit(1), IntLit(0)),), Return(IntLit(1)), _TRUE), {},
     "return outside any startEv context"),
    # a row's test id holds its index, so a row fills a freed place rather
    # than shift the rows after it
    ("ElimStart", _seq((START_M00,), None, "startEv(q, 0, 0)"), {},
     "event update and formula do not align"),
    ("AndSplit", _seq((), None, "[true] /\\ [true]"), {}, "unknown rule 'AndSplit'"),
    ("Prestate", _seq((), None, "psi(m) ** [true]"), {}, r"expects \[Q\] \*\* Phi"),
    ("Poststate", _seq((), None, _TRUE), {}, r"expects Phi \*\* \[Q\]"),
    ("Poststate", _seq((CallUpd(Var("x"), "m", IntLit(1)),), None, "psi(m) ** [x == 0]"), {},
     "reads 'x', assigned by a call update"),
    ("EmptyUpdate", _seq((_X1,), None, _TRUE), {}, "expects an empty update and no statement"),
    ("EmptyUpdate", _seq((), None, psi("m")), {}, "expects a state predicate"),
    ("Unfold", _seq((), None, psi("m")), {}, "expects an applied fixed point"),
    ("OrLeft", _seq((), None, _TRUE), {}, "expects a disjunctive trace formula"),
    ("Close", _seq((), None, _TRUE), {}, "Close expects a predicate goal"),
    ("Close", _PRED, {}, r"not first-order valid \(counterexample \{'x': -10\}\)"),
    ("ProcedureContract", _seq((), None, _TRUE), {}, "expects a contract goal"),
    ("ProcedureContract", Sequent((), ContractGoal("q")), {}, "no contract assumption for 'q'"),
    ("TrAbs", _seq((), None, _TRUE), {}, "needs a call update"),
    ("TrAbs", _seq((START_M00, CALL_M), None, _x_m(pexpr("n' - 1"), Var("k'"))), {"call": 0},
     "no call update at index 0"),
    ("TrAbs", _seq((CALL_M, CALL_M), None, _x_m(pexpr("n' - 1"), Var("k'"))), {"call": 1},
     "call updates precede the selected one"),
    ("TrAbs", _seq((CALL_M,), None, "[true] .. [true]"), {}, "expects a chop chain"),
    ("TrAbs", _seq((CALL_M,), None, "[true] ** [true]"), {}, "no recursion occurrence"),
    ("TrAbs", _seq((CALL_M,), None, _x_m(pexpr("n' - 1"), Var("k'"))), {"occ": 0},
     "recursion occurrence must be interior"),
    ("TrAbs", _seq((CallUpd(Var("r'"), "q", IntLit(0)),), None,
                   _x_m(pexpr("n' - 1"), Var("k'"))), {}, "no contract assumption for 'q'"),
    ("TrAbs", _seq((CALL_M,), None, _x_m(pexpr("n' - 1"), Var("k'")), gamma=()), {},
     "contract for 'm' not among the assumptions"),
    ("TrAbs", _seq((CALL_M,), None, _x_m(pexpr("n' - 1"), Var("k'"), mu=_OTHER_M.phi)), {},
     "recursion occurrence does not match the contract"),
    ("TrAbs", _seq((CALL_M,), None, _x_m(pexpr("n' - 1"))), {},
     r"take \(value, identifier\) arguments"),
    ("TrAbs", _seq((CALL_M,), None, _x_m(pexpr("n' - 1"), IntLit(0))), {},
     "identifier argument must be a rigid symbol"),
    ("TrAbs", _seq((CALL_M,), None, _x_m(pexpr("n' - 2"), Var("k'"))), {},
     "call argument n' - 1 does not match occurrence argument n' - 2"),
    ("ApplyUpdate", _seq((Elem(Var("x"), pexpr("x + 1")),), None, _TRUE), {"at": 0},
     "cannot propagate a self-referential update"),
    ("DropUpdate", _seq((_X1, Elem(Var("y"), Var("x"))), None, _TRUE), {"at": 0},
     "'x' is read by a later update"),
    ("DropUpdate", _seq((_X1,), Assign(Var("y"), Var("x")), _TRUE), {"at": 0},
     "'x' occurs in the remaining statement"),
    ("DropUpdate", _seq((_X1,), None, "[x == 1]"), {"at": 0}, "'x' occurs in the goal formula"),
    # the entry falls in the leading gap, but after an event
    ("DropUpdate", _seq((START_M00, _X1), None, "psi(m) ** [true]"), {"at": 1},
     "goal formula does not absorb the dropped state entry"),
    ("DropResUpdate", _seq((), None, _TRUE), {}, "no result-variable update to drop"),
    ("DropResUpdate", _seq((Elem(ResVar(IntLit(0)), IntLit(1)), _X1), None, _TRUE), {"at": 1},
     "no result-variable update at index 1"),
    ("SubsumeUpdates", _seq((), None, _TRUE), {}, "expects a trailing chop gap"),
    ("SubsumeUpdates", _seq((), None, "[true] ** [true]"), {}, "expects a trailing no-event gap"),
    ("SubsumeUpdates", _seq((), None, "[true] ** psi(m)"), {"keep": 1}, "keep out of range"),
    ("SubsumeUpdates", _seq((CallUpd(Var("x"), "q", IntLit(1)),), None, "[true] ** psi(m)"),
     {"keep": 0}, "dropped updates involve an excluded procedure"),
    ("GapAxiom", _seq((), None, _TRUE), {}, "expects a no-event gap formula"),
    ("GapAxiom", _seq((START_M00,), None, psi("m")), {}, "updates involve an excluded procedure"),
    ("ElimStart", _seq((), None, "startEv(m, 0, 0)"), {}, "expects a trailing event update"),
    ("ElimStart", _seq((START_M00,), None, _TRUE), {}, "ElimStart: shape mismatch"),
]


def _refusal_site(rule, seq, args) -> int:
    """The line in calculus.py of the raise that refuses the row."""
    with pytest.raises(RuleError) as info:
        apply_rule(rule, seq, dict(args), ctx_m())
    return [tb.lineno for tb in info.traceback if tb.path == Path(calculus.__file__)][-1] + 1


def _rule_error_raises() -> dict:
    """{line: raise node} of every `raise RuleError(...)` in calculus.py."""
    tree = ast.parse(Path(calculus.__file__).read_text())
    return {node.lineno: node for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "RuleError"}


class TestRefusals:
    @pytest.mark.parametrize("rule,seq,args,message", REFUSALS,
                             ids=[f"{k}-{row[0]}" for k, row in enumerate(REFUSALS)])
    def test_refused_with_its_reason(self, rule, seq, args, message):
        with pytest.raises(RuleError, match=message):
            apply_rule(rule, seq, dict(args), ctx_m())

    def test_one_row_per_refusal(self):
        raises = _rule_error_raises()
        sites = [_refusal_site(*row[:3]) for row in REFUSALS]
        assert len(REFUSALS) == len(raises)
        assert sorted(sites) == sorted(raises)

    def test_state_entry_outside_a_gap_is_kept(self):
        seq0 = _seq((_X1,), None, "[true] ** psi(m)")
        with pytest.raises(RuleError, match="does not absorb the dropped state entry"):
            apply_rule("DropUpdate", seq0, {"at": 0}, ctx_m())

    def test_event_argument_read_through_a_call_is_refused(self):
        seq0 = _seq((CallUpd(Var("x"), "q", IntLit(1)), FinishUpd("m", Var("x"), IntLit(0))),
                    None, "[true] ** finishEv(m, 1, 0)")
        with pytest.raises(RuleError, match="event update and formula do not align"):
            apply_rule("ElimFinish", seq0, {}, ctx_m())


def closed_proof():
    tree = prove_auto(contract_goal("m"), ctx_m())
    assert tree.closed
    return tree


def find_nodes(node, rule):
    out = []
    if node.rule == rule:
        out.append(node)
    for c in node.children:
        out.extend(find_nodes(c, rule))
    return out


def rec_source(proc="m", param="k", local="r", step="1", extra_local=False):
    """The recursive m of the paper under other names, with a step."""
    if extra_local:
        decls, call = f"{local}; t;", f"t = {proc}({param} - 1); {local} = t + {step}"
    else:
        decls, call = f"{local};", (f"{local} = {proc}({param} - 1); "
                                    f"{local} = {local} + {step}")
    return (f"{proc}({param}) {{ {decls} if ({param} != 0) {{ {call} }}; "
            f"return {local} }}\nmain {{ x; x = {proc}(1) }}\n")


def gen_contract_spec(proc, result):
    """The spec that gen-contract writes for PROC with --pre-base 'n == 0'
    --pre-step 'n > 0' --result RESULT --step-inv 'n - 1'."""
    return ContractSpec(proc, pexpr("n == 0"), pexpr("n > 0"), pexpr(result),
                        pexpr("n - 1"))


class TestProveAuto:
    def test_contract_proof_closes(self):
        tree = closed_proof()
        ms = rule_counts(tree)
        for required in ("ProcedureContract", "VarDecl", "Assign", "Cond",
                         "Return", "Unfold", "Prestate", "TrAbs"):
            assert ms.get(required, 0) >= 1, required

    def test_trivial_judgment_closes_quickly(self):
        seq0 = Sequent((), Judgment((Elem(Var("x"), IntLit(0)),),
                                    None, psi()))
        tree = prove_auto(seq0, ctx_m())
        assert tree.closed and tree.size() <= 3

    def test_mutated_contract_stays_open(self):
        bad_spec = spec_m()
        bad = ContractAssumption.from_spec(
            type(bad_spec)(bad_spec.proc, bad_spec.pre_base, bad_spec.pre_step,
                           Binary("+", Var("n"), IntLit(1)), bad_spec.step_inv))
        ctx = RuleContext.for_program(running_program(), [bad])
        tree = prove_auto(contract_goal("m"), ctx)
        assert not tree.closed
        assert tree.open_goals()

    def test_while_raises_unsupported(self):
        src = "m(k) { r; while (r > 0) { r = r - 1 }; return r }\nmain { skip }"
        prog = parse_program(src)
        ctx = RuleContext.for_program(prog, [ContractAssumption.from_spec(spec_m())])
        with pytest.raises(UnsupportedConstruct):
            prove_auto(contract_goal("m"), ctx)


class TestTrAbsChildren:
    """The three premises match the published trace-abstraction example.

    Goal structures are compared exactly up to a consistent renaming of
    rigid symbols; assumption lists are compared as equivalent
    conjunctions (the display simplifies them); the example's two obvious
    slips (res_i' for the fresh res_k, and a literal 0 context in one
    finishEv) follow the appendix's extended derivation.
    """

    EXPECTED = [
        {"gamma": ["n' > 0"], "update": "{startEv(m,n',i')}", "stmt": None,
         "formula": "[n' > 0] ** startEv(m, n', i') ** psi(m)"},
        {"gamma": ["n' > 0"], "pred": "n' > 0"},
        {"gamma": ["res(k') == n' - 1"],
         "update": "{r' := res(k')}{r' := r' + 1}{finishEv(m,r',i')}{res(i') := r'}",
         "stmt": None,
         "formula": "psi(m) ** finishEv(m, n', i') ** [res(i') == n']"},
    ]

    @staticmethod
    def _rigids(text):
        out = []
        for tok in tokenize(text):
            if tok.kind == "ident" and tok.text.endswith("'") and tok.text not in out:
                out.append(tok.text)
        return out

    @staticmethod
    def _canon(text, mapping):
        toks = tokenize(text)
        words = []
        for tok in toks:
            if tok.kind == "eof":
                break
            words.append(mapping.get(tok.text, tok.text)
                         if tok.kind == "ident" else tok.text)
        return " ".join(words)

    def test_children_match_display(self):
        tree = closed_proof()
        trabs = find_nodes(tree, "TrAbs")
        assert len(trabs) == 1
        children = [c.sequent for c in trabs[0].children]
        assert len(children) == 3

        # structural parts, concatenated for one consistent renaming
        def goal_text(seq):
            g = seq.goal
            if isinstance(g, PredGoal):
                return ""
            return f"{pretty_update(g.update)} : {pretty_formula(g.formula)}"

        actual_blob = " ; ".join(goal_text(s) for s in children)
        expected_blob = " ; ".join(
            "" if "pred" in e else f"{e['update']} : {e['formula']}"
            for e in self.EXPECTED)
        actual_map = {r: f"R{k}" for k, r in enumerate(self._rigids(actual_blob))}
        expected_map = {r: f"R{k}" for k, r in enumerate(self._rigids(expected_blob))}
        assert self._canon(actual_blob, actual_map) == \
            self._canon(expected_blob, expected_map)

        # assumptions and the precondition premise, up to equivalence
        rename_actual = {k: v for k, v in actual_map.items()}
        rename_expected = {k: v for k, v in expected_map.items()}

        def renamed_pred(text, mapping):
            toks = []
            for tok in tokenize(text):
                if tok.kind == "eof":
                    break
                toks.append(mapping.get(tok.text, tok.text)
                            if tok.kind == "ident" else tok.text)
            return pexpr(" ".join(toks))

        for child, expected in zip(children, self.EXPECTED):
            actual_preds = [pretty_expr(a.pred) for a in child.gamma
                            if isinstance(a, PredAssert)]
            conj_a = None
            for t in actual_preds:
                e = renamed_pred(t, rename_actual)
                conj_a = e if conj_a is None else Binary("&&", conj_a, e)
            conj_e = None
            for t in expected["gamma"]:
                e = renamed_pred(t, rename_expected)
                conj_e = e if conj_e is None else Binary("&&", conj_e, e)
            assert equivalent(conj_a, conj_e), (actual_preds, expected["gamma"])
            if "pred" in expected:
                assert isinstance(child.goal, PredGoal)
                assert equivalent(
                    renamed_pred(pretty_expr(child.goal.pred), rename_actual),
                    renamed_pred(expected["pred"], rename_expected))


class TestCheckProof:
    def test_valid_proof_accepted(self):
        tree = closed_proof()
        assert replay(tree) is None

    def test_missing_premise_rejected(self):
        tree = closed_proof()
        node = find_nodes(tree, "Cond")[0]
        node.children = node.children[:1]
        bad = replay(tree)
        assert bad is not None and "premises" in bad.reason

    def test_serialization_roundtrip_and_replay(self):
        tree = closed_proof()
        text = dump_proof(tree, "m")
        proc, root = load_proof(text)
        assert proc == "m"
        assert root == dump_proof_oracle(tree, "m")["root"]
        assert check_proof(root, proc, ctx_m()) is None

    def test_random_mutations_rejected(self):
        assert_mutations_rejected(dump_proof(closed_proof(), "m"), ctx_m(), 100)

    def test_every_stored_part_is_compared(self):
        # each node of the m proof, each printed part of its sequent
        assert_edits_rejected(closed_proof(), ctx_m(), every_node=True)

    def test_recorded_sequents_are_not_evidence(self):
        # the kernel rebuilds every sequent from rules, args and children:
        # with every recorded sequent replaced, the proof still replays
        # when any record is accepted, and check_proof's comparison
        # refuses it at the root
        proc, root = load_proof(dump_proof(closed_proof(), "m"))
        stack = [root]
        while stack:
            node = stack.pop()
            node["sequent"] = {"gamma": [], "goal": {"kind": "contract", "proc": "other"}}
            stack.extend(node["children"])
        assert calculus.replay(root, proc, ctx_m(), lambda node, seq: True) is None
        assert str(check_proof(root, proc, ctx_m())) == \
            "invalid step at root: recorded sequent is not  |- C_m"

    @pytest.mark.parametrize("src,result", [
        (rec_source(step="3"), "3 * n"),
        (rec_source(step="1", extra_local=True), "n"),
        (rec_source("kö", "m𝑥'", "rλ", step="2"), "2 * n"),
    ], ids=["scaled", "local", "unicode"])
    def test_part_shared_with_the_parent_is_compared(self, src, result):
        program = parse_program(src)
        proc = program.procs[0].name
        ctx = RuleContext.for_program(
            program, [ContractAssumption.from_spec(gen_contract_spec(proc, result))])
        tree = prove_auto(contract_goal(proc), ctx)
        assert tree.closed
        assert_edits_rejected(tree, ctx, every_node=False, proc=proc)

    def test_each_formula_printed_once_per_call(self, monkeypatch):
        tree = closed_proof()
        calls, held = Counter(), []
        show = proofs.pretty_formula

        def counted(f, *rest):
            calls[id(f)] += 1
            held.append(f)  # keeps each id to one object
            return show(f, *rest)

        monkeypatch.setattr(proofs, "pretty_formula", counted)
        text = dump_proof(tree, "m")
        assert calls and max(calls.values()) == 1
        assert len(calls) < tree.size()
        calls.clear()
        proc, root = load_proof(text)
        assert check_proof(root, proc, ctx_m()) is None
        assert calls and max(calls.values()) == 1
        assert len(calls) < tree.size()


def _printed_parts(seq):
    """(keys, text) of each printed part of a stored sequent."""
    goal = seq["goal"]
    parts = [(("goal", k), goal[k]) for k in ("formula", "update", "stmt", "pred")
             if goal.get(k) is not None]
    parts += [(("gamma", j, "pred"), a["pred"])
              for j, a in enumerate(seq["gamma"]) if "pred" in a]
    return parts


def _part(seq, keys):
    for k in keys:
        try:
            seq = seq[k]
        except (KeyError, IndexError):
            return None
    return seq


def assert_edits_rejected(tree, ctx, every_node, proc="m"):
    """Each edit of one printed part of one stored sequent is rejected at
    that node.  The part becomes its parent's text where that differs, so a
    checker that trusts a text it has seen before fails, else it gains
    brackets.  every_node=False edits only the nodes whose formula object
    is their parent's."""
    text = dump_proof(tree, proc)
    edits = []
    stack = [(tree, None, load_proof(text)[1], None, ())]
    while stack:
        node, parent, stored, parent_stored, path = stack.pop()
        shared = parent is not None and isinstance(node.sequent.goal, Judgment) \
            and isinstance(parent.sequent.goal, Judgment) \
            and node.sequent.goal.formula is parent.sequent.goal.formula
        if every_node or shared:
            for keys, old in _printed_parts(stored["sequent"]):
                before = None if parent_stored is None \
                    else _part(parent_stored["sequent"], keys)
                new = before if before is not None and before != old else f"({old})"
                edits.append((path, keys, new))
        stack.extend((child, node, child_stored, stored, path + (k,))
                     for k, (child, child_stored)
                     in enumerate(zip(node.children, stored["children"])))
    assert edits
    assert every_node or {p for p, _, _ in edits} != {()}
    for path, keys, new in edits:
        _, root = load_proof(text)
        node = root
        for k in path:
            node = node["children"][k]
        target = node["sequent"]
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = new
        bad = check_proof(root, proc, ctx)
        assert bad is not None and bad.path == path, (path, keys, new, bad)
        assert bad.reason.startswith("recorded sequent is not"), bad.reason


# identifiers with primes and letters beyond ASCII, which the file escapes
_IDENT = st.builds(lambda head, tail, primes: head + tail + "'" * primes,
                   st.sampled_from("kqrλéΩ𝑥"), st.text("aß1_é", max_size=2),
                   st.integers(0, 2)).filter(
    lambda s: s not in RESERVED and s not in ("n", "i", "x"))
# script argument text: no whitespace, '=' or '/'
_ARG_TEXT = st.text(st.sampled_from(list("az09-_+é\"\\'λ𝑥\x07€")), max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda sub: st.lists(sub, max_size=3)
    | st.dictionaries(st.text(max_size=4), sub, max_size=3),
    max_leaves=8)


def assert_plain_json(text, doc):
    """text is doc as json.dumps(doc, sort_keys=True) lays it out: ASCII,
    on one line and its newline."""
    assert text.isascii() and text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == doc
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def assert_written_as_plain_json(tree, proc, ctx):
    """dump_proof writes the oracle's document as plain json, and the file
    replays: a closed proof is valid, an open one stops at its first open
    goal.  The same document in the indented layout that earlier versions
    wrote replays with the same verdict."""
    text = dump_proof(tree, proc)
    assert_plain_json(text, dump_proof_oracle(tree, proc))
    indented = json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    bad, bad_indented = (check_proof(load_proof(t)[1], proc, ctx) for t in (text, indented))
    assert bad == bad_indented
    if tree.closed:
        assert bad is None
    else:
        assert bad is not None and bad.reason == "open goal"


class TestProofFile:
    """A proof file is its document as json.dumps(doc, sort_keys=True) lays
    it out; any JSON layout of that document replays the same."""

    def test_m_proof(self):
        assert_written_as_plain_json(closed_proof(), "m", ctx_m())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10 ** 6),
           result=st.sampled_from(["n", "n + 1", "2 * n", "0", "n - 1"]))
    def test_generated_programs(self, seed, result):
        program = random_terminating_program(random.Random(seed))
        assume(program.procs)
        for proc in program.procs:
            ctx = RuleContext.for_program(
                program, [ContractAssumption.from_spec(gen_contract_spec(proc.name, result))])
            tree = prove_auto(contract_goal(proc.name), ctx, max_nodes=300)
            assert_written_as_plain_json(tree, proc.name, ctx)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(names=st.lists(_IDENT, min_size=3, max_size=3, unique=True),
           step=st.integers(1, 3), result=st.sampled_from(["n", "2 * n", "3 * n"]),
           extra_local=st.booleans())
    def test_unicode_and_primed_names(self, names, step, result, extra_local):
        program = parse_program(rec_source(*names, step=str(step),
                                           extra_local=extra_local))
        proc = names[0]
        ctx = RuleContext.for_program(
            program, [ContractAssumption.from_spec(gen_contract_spec(proc, result))])
        tree = prove_auto(contract_goal(proc), ctx)
        assert tree.closed == (result == ("n" if step == 1 else f"{step} * n"))
        assert_written_as_plain_json(tree, proc, ctx)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(extra=st.lists(st.tuples(st.text(st.sampled_from(list("akéλ_0")), min_size=1,
                                            max_size=3),
                                    st.one_of(st.integers(-99, 99).map(str), _ARG_TEXT)),
                          max_size=4),
           unfold=st.booleans())
    def test_scripted_proofs(self, extra, unfold):
        args = " ".join(f"{k}={v}" for k, v in extra)
        script = (f"ProcedureContract @ 0 {args}\nAssign @ 0 {args}\nVarDecl @ 0\n"
                  "Scope @ 0\nCond @ 0\n" + ("Unfold @ 0\n" if unfold else ""))
        tree = run_script(contract_goal("m"), ctx_m(), script)
        assert set(tree.args) == {k for k, _ in extra}
        assert bool(find_nodes(tree, "Unfold")) == unfold
        if unfold:
            assert find_nodes(tree, "Unfold")[0].args["fresh"]
        assert_written_as_plain_json(tree, "m", ctx_m())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(args=st.lists(st.dictionaries(st.text(max_size=4), _JSON, max_size=3),
                         min_size=1, max_size=6))
    def test_any_json_args(self, args):
        tree = closed_proof()
        nodes, stack = [], [tree]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].children)
        for node, value in zip(nodes, args):
            node.args = value
        assert_plain_json(dump_proof(tree, "m"), dump_proof_oracle(tree, "m"))


def assert_mutations_rejected(text, ctx, count):
    """check_proof rejects each of `count` random one-step mutations of a
    proof file's nodes."""
    rng = random.Random(0)
    rejected = 0
    trials = 0
    while rejected < count:
        trials += 1
        assert trials < 4 * count, "mutation generator stalled"
        proc, root = load_proof(text)
        nodes = []

        def collect(n, depth=0):
            nodes.append((n, depth))
            for c in n["children"]:
                collect(c, depth + 1)

        collect(root)
        kind = rng.randrange(3)
        if kind == 0:
            # perturb an integer constant inside a non-root sequent
            node = rng.choice([n for n, d in nodes if d > 0])
            if not _perturb_sequent(node, rng):
                continue
        else:
            node = rng.choice([n for n, d in nodes if len(n["children"]) >= 2])
            node["children"] = node["children"][:-1] if kind == 1 \
                else list(reversed(node["children"]))
        assert check_proof(root, proc, ctx) is not None
        rejected += 1


def _perturb_sequent(node, rng):
    """Shift the first integer literal of a proof-file node's printed goal;
    returns False if it has none."""
    goal = node["sequent"]["goal"]
    for key in ("formula", "update", "stmt", "pred"):
        val = goal.get(key)
        if not val:
            continue
        m = re.search(r"\d+", val)
        if not m:
            continue
        num = int(m.group(0))
        goal[key] = val[:m.start()] + str(num + 1 + rng.randrange(3)) + val[m.end():]
        return True
    return False


class TestScripts:
    def test_script_replays_first_steps(self):
        script = """\
// start the contract proof by hand
ProcedureContract @ 0
Assign @ 0
VarDecl @ 0
Scope @ 0
Cond @ 0
"""
        tree = run_script(contract_goal("m"), ctx_m(), script)
        assert len(tree.open_goals()) == 2  # the two conditional branches
        ms = rule_counts(tree)
        assert ms["Cond"] == 1 and ms["VarDecl"] == 1

    def test_script_error_reports_line(self):
        with pytest.raises(ScriptError, match="line 2"):
            run_script(contract_goal("m"), ctx_m(),
                       "ProcedureContract @ 0\nReturn @ 0")

    @pytest.mark.parametrize("line,message", [
        ("Assign 0", "line 1: expected 'rule @ goal-index [key=value ...]'"),
        ("Assign @ first", "line 1: goal index must be an integer"),
        ("ApplyUpdate @ 0 at", "line 1: malformed argument 'at'"),
    ])
    def test_malformed_script_line(self, line, message):
        with pytest.raises(ScriptError, match=re.escape(message)):
            run_script(contract_goal("m"), ctx_m(), line)

    def test_bad_goal_index(self):
        with pytest.raises(ScriptError, match="out of range"):
            run_script(contract_goal("m"), ctx_m(), "ProcedureContract @ 3")


class TestDifferentialSoundness:
    def test_closed_judgments_hold_concretely(self):
        tree = closed_proof()
        table = build_lookup(running_program())
        rng = random.Random(99)
        checked = 0
        stack = [(tree, ())]
        while stack:
            node, witnesses = stack.pop()
            if node.rule == "Unfold":
                witnesses = witnesses + tuple(node.args.get("fresh", ()))
            for c in node.children:
                stack.append((c, witnesses))
            if not isinstance(node.sequent.goal, Judgment) or not node.closed:
                continue
            for state in sample_states(node.sequent, rng)[:4]:
                assert judgment_true(node.sequent, state, table, witnesses), \
                    (node.rule, node.sequent)
                checked += 1
        assert checked >= 30

    def test_assign_and_cond_reversible(self):
        tree = closed_proof()
        table = build_lookup(running_program())
        rng = random.Random(7)
        for rule in ("Assign", "Cond"):
            for node in find_nodes(tree, rule):
                if not isinstance(node.sequent.goal, Judgment):
                    continue
                for state in sample_states(node.sequent, rng)[:3]:
                    conclusion = judgment_true(node.sequent, state, table,
                                                ("k'",))
                    premises = all(
                        sequent_true(c.sequent, state, table)
                        for c in node.children
                        if isinstance(c.sequent.goal, Judgment))
                    if premises:
                        assert conclusion

    def test_a_written_variable_is_read_after_the_write(self):
        # x is sampled, but the update writes it: the formula reads 5, not 0
        seq = Sequent((), Judgment((Elem(Var("x"), IntLit(5)),), None,
                                   parse_formula("psi(q) ** [x == 5]")))
        assert sequent_true(seq, State({"x": 0}), build_lookup(running_program()))

    def test_mutant_program_judgment_fails(self):
        # the same contract formula rejects the off-by-one implementation
        mutant = parse_program(MUTANT_SRC)
        ctx = RuleContext.for_program(mutant,
                                      [ContractAssumption.from_spec(spec_m())])
        tree = prove_auto(contract_goal("m"), ctx)
        assert not tree.closed


class TestInline:
    def test_inline_shape(self):
        table = build_lookup(running_program())
        update, stmt = inline("m", Var("n'"), Var("i'"), table)
        assert update == (StartUpd("m", Var("n'"), Var("i'")),)
        head, rest = stmt_head(stmt)
        assert head == Assign(Var("k'"), Var("n'"))
        assert "k'" in repr(rest)

    def test_inline_of_constant_body(self):
        table = build_lookup(parse_program(
            "q(a) { return 0 }\nmain { skip }"))
        update, stmt = inline("q", IntLit(5), IntLit(0), table)
        head, rest = stmt_head(stmt)
        assert head == Assign(Var("a'"), IntLit(5))
        assert rest == Scope((), Return(IntLit(0)))

    def test_inline_runs_like_a_call(self):
        # differential: executing the inlined form reproduces the call
        table = build_lookup(running_program())
        update, stmt = inline("m", IntLit(2), IntLit(0), table)
        t_inline = run_update_prefixed(update, stmt, singleton(State({})), table)
        t_call = semantics(CallAssign(Var("x"), "m", IntLit(2)), singleton(State({})), table)
        assert event_skeleton(t_inline) == event_skeleton(t_call)
        assert t_inline.last().get("res0") == t_call.last().get("res0") == 2


def _apply_update_instances(rng, count):
    """Random ApplyUpdate conclusions: y and z start as the rigid a and
    x, then later atoms read or reassign them, and a chain observes their
    final values or an event argument."""
    assigns = [Elem(Var("y"), pexpr("z + 1")), Elem(Var("z"), IntLit(2)),
               Elem(Var("y"), pexpr("y * 2")), Elem(Var("z"), Var("y")),
               Elem(Var("y"), IntLit(3)), Elem(Var("z"), pexpr("z + y")),
               StartUpd("m", Var("y"), IntLit(0))]
    stmts = [None, None, Assign(Var("z"), pexpr("z + y")), Skip()]
    for _ in range(count):
        update = (Elem(Var("y"), Var("a")), Elem(Var("z"), Var("x"))) + \
            tuple(rng.choice(assigns) for _ in range(rng.randint(1, 4)))
        k = rng.randint(0, 6)
        formula = parse_formula(rng.choice([
            f"psi(q) ** [y == {k}]", f"psi(q) ** [z == {k}]", "psi(q) ** [y >= z]",
            f"psi(q) ** startEv(m, {k}, 0) ** psi(q)", f"psi(q) ** [y == z + {k}]"]))
        seq = Sequent((), Judgment(update, rng.choice(stmts), formula))
        yield seq, {"at": rng.randrange(len(update))}, "ApplyUpdate"


def _states(rng, count):
    return [State({"a": rng.randint(0, 3), "x": rng.randint(0, 3)})
            for _ in range(count)]


class TestExtensionRules:
    """The rule table admits a rule only when sampled states never make
    its premises true and its conclusion false."""

    def test_apply_update_preserves_truth_on_sampled_states(self):
        # a rigid symbol reads its value in the first state
        ctx = ctx_m()
        rng = random.Random(31)
        applied = Counter()
        for seq, args, kind in _apply_update_instances(rng, 1000):
            try:
                premises = apply_rule("ApplyUpdate", seq, args, ctx)
            except RuleError:
                continue
            for state in _states(rng, 4):
                if all(sequent_true(p, state, ctx.table) for p in premises):
                    applied[kind] += 1
                    assert sequent_true(seq, state, ctx.table), (seq, state)
        assert sum(applied.values()) >= 200 and min(applied.values()) >= 100, applied

    def test_prefix_ev_counterexample(self):
        # PrefixEv took ev ** Phi under {ev}U to Phi under U; but the event
        # update writes res(0), which Phi then reads
        table = build_lookup(running_program())
        finish = FinishUpd("m", IntLit(5), IntLit(0))
        conclusion = Sequent((), Judgment((finish,), None, parse_formula(
            "finishEv(m, 5, 0) ** [res(0) == 3]")))
        premise = Sequent((), Judgment((), None, parse_formula("[res(0) == 3]")))
        state = State({"res0": 3})
        assert judgment_true(premise, state, table)
        assert not judgment_true(conclusion, state, table)
        with pytest.raises(RuleError, match="unknown rule"):
            apply_rule("PrefixEv", conclusion, {}, ctx_m())

    def test_composition_splits_update_and_chain(self):
        # Composition at=1 split=2 ran each half of the update from the
        # initial state, so the second half missed the first one's writes
        table = build_lookup(running_program())
        x1, zx = Elem(Var("x"), IntLit(1)), Elem(Var("z"), Var("x"))
        conclusion = Sequent((), Judgment((x1, zx), None, parse_formula(
            "([true] .. [true]) ** ([true] .. [z == 0])")))
        premises = [Sequent((), Judgment((x1,), None, parse_formula("[true] .. [true]"))),
                    Sequent((), Judgment((zx,), None, parse_formula("[true] .. [z == 0]")))]
        state = State({"x": 0})
        assert all(judgment_true(p, state, table) for p in premises)
        assert not judgment_true(conclusion, state, table)
        with pytest.raises(RuleError, match="unknown rule"):
            apply_rule("Composition", conclusion, {"at": 1, "split": 2}, ctx_m())

    def test_appendix_style_proof(self):
        # the published base-branch chain, driven by a script
        ctx = ctx_m()
        script = """\
ProcedureContract @ 0
Assign @ 0
VarDecl @ 0
Scope @ 0
Cond @ 0
Return @ 1
Assign @ 1
Unfold @ 1
OrLeft @ 1
Prestate @ 1
DropResUpdate @ 2
Poststate @ 2
ElimFinish @ 3
SubsumeUpdates @ 4
ElimStart @ 4
"""
        tree = run_script(contract_goal("m"), ctx, script)
        # the scripted branch is fully decomposed; remaining opens are the
        # recursive branch plus the generated first-order side conditions
        for g in tree.open_goals():
            assert isinstance(g.sequent.goal, (PredGoal, Judgment))


def test_trivial_skip_judgment_closes_in_three_steps():
    seq0 = Sequent((), Judgment((), Skip(),
                                StatePred(BoolLit(True))))
    tree = prove_auto(seq0, ctx_m())
    assert tree.closed and tree.size() <= 3


def _auto_proof_sequents():
    """Every sequent of the auto proofs of generated procedures with
    gen-contract specs: the paper's m under other steps and locals, whose
    specs are provable, their off-by-k mutants, and the procedures of
    random_terminating_program."""
    cases = []
    for step, extra in ((1, False), (2, False), (1, True)):
        program = parse_program(rec_source(step=str(step), extra_local=extra))
        for k in (0, 1, -2):
            cases.append((program, "m", f"{step} * n + {k}" if k else f"{step} * n"))
    rng = random.Random(17)
    while len(cases) < 40:
        program = random_terminating_program(rng)
        for proc in program.procs:
            cases.append((program, proc.name, rng.choice(["n", "n + 1", "2 * n", "0"])))
    for program, proc, result in cases:
        ctx = RuleContext.for_program(
            program, [ContractAssumption.from_spec(gen_contract_spec(proc, result))])
        stack = [prove_auto(contract_goal(proc), ctx, max_nodes=300)]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            yield node.sequent


def _scripted_premises():
    """(conclusion, args, premise) of the sampled ApplyUpdate instances
    that a one-line proof script applies."""
    rng = random.Random(5)
    for seq, args, _ in _apply_update_instances(rng, 150):
        line = "ApplyUpdate @ 0 " + " ".join(f"{k}={int(v)}" for k, v in args.items())
        try:
            tree = run_script(seq, ctx_m(), line)
        except ScriptError:
            continue
        yield seq, tree.args, tree.children[0].sequent


def _formulas_in(f):
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(formula_children_oracle(f)[0])


def _assert_walks_agree(seqs) -> int:
    """Each walk agrees with its oracle on every sequent of seqs, and on
    each distinct formula node and update atom among them.  Atoms that
    hold each res(...) node of the sequent in every field are added.
    Returns the number of sequents."""
    formulas, atoms = {}, {}
    for seq in seqs:
        assert lang.names(seq) == names_in_sequent_oracle(seq)
        j = seq.goal
        if not isinstance(j, Judgment):
            continue
        assert lang.names(j.stmt) == stmt_names_oracle(j.stmt)
        formulas.update(dict.fromkeys(_formulas_in(j.formula)))
        extra = tuple(atom for r in lang.nodes(seq) if isinstance(r, ResVar) for atom in
                      (Elem(ResVar(r), r), CallUpd(Var("y"), "m", r), StartUpd("m", r, r),
                       FinishUpd("m", r, ResVar(r))))
        atoms.update(dict.fromkeys(j.update + extra))
    for f in formulas:
        assert children(f) == formula_children_oracle(f)
        subs, terms = children(f)
        assert rebuild(f, subs, terms) == f
        terms = tuple(subst_vars(t, {"n": Var("q")}) for t in terms)
        assert rebuild(f, subs, terms) == formula_rebuild_oracle(f, subs, terms)
        assert formula_vars(f) == formula_vars_oracle(f)
        assert lang.names(f) == formula_vars_oracle(f, binders=True)
    for atom in atoms:
        assert update_reads(atom) == update_reads_oracle(atom)
        for v in sorted(lang.names(atom)) + ["absent"]:
            for e in (IntLit(7), pexpr(f"{v} + 1"), pexpr("res(w) * 2")):
                assert calculus._subst_atom(atom, {v: e}) == subst_atom_oracle(atom, v, e)
    return len(seqs)


class TestWalksAgainstOracles:
    """The field walks give the sets and records of the hand-written walks
    they replaced (tests/helpers.py keeps those as oracles)."""

    def test_auto_proof_sequents(self):
        assert _assert_walks_agree(list(_auto_proof_sequents())) >= 1000

    def test_scripted_apply_update(self):
        premises = list(_scripted_premises())
        _assert_walks_agree([s for seq, _, premise in premises for s in (seq, premise)])
        for seq, args, premise in premises:
            j = seq.goal
            v, e = j.update[args["at"]].target.name, j.update[args["at"]].expr
            update = list(j.update)
            for k in range(args["at"] + 1, len(update)):
                update[k] = subst_atom_oracle(j.update[k], v, e)
                if update_writes(j.update[k]) in {v} | expr_vars_oracle(e):
                    break
            expected = Judgment(tuple(update), j.stmt, j.formula)
            assert premise.goal == expected, (seq, premise)
        assert len(premises) >= 50, len(premises)
