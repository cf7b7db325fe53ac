"""Acceptance suite: one test per exit criterion, with time budgets.

Each criterion prints a PASS/FAIL line in the terminal summary.
"""

import random
import time

import pytest

from helpers import (M0_SRC, M2_EVENT_SKELETON, M2_SRC, MUTANT_SRC,
                     RUNNING_SRC, chop, contract_m, event_skeleton, golden_m0,
                     golden_m1, member_approx, mutate_trace,
                     random_terminating_program, run_update_prefixed,
                     running_program, semantics, spec_m)
from tracelet.calculus import ContractAssumption, contract_goal
from tracelet.cli import validate_contract
from tracelet.interp import run
from tracelet.lang import (Assign, Binary, CallAssign, IntLit, ResVar, Seq,
                           Var, build_lookup, parse_program, seq)
from tracelet.logic import (Chop, MuApp, StatePred, big_step_of, member,
                            unfold)
from tracelet.proofs import dump_proof
from tracelet.prover import prove_auto
from tracelet.traces import (State, Trace, is_adequate, singleton,
                             CallEv, PushEv, PopEv, RetEv, Ctx)
from tracelet.updates import CallUpd, Elem, FinishUpd, StartUpd

from test_calculus import TestTrAbsChildren as _TrAbsChildren
from test_calculus import (assert_mutations_rejected, ctx_m, replay,
                          rule_counts)


def contract_with_post():
    return Chop(MuApp(contract_m(), (Var("n"), Var("i"))),
                StatePred(Binary("==", ResVar(Var("i")), Var("n"))))


@pytest.mark.acceptance("criterion 1: golden trace of x = m(1) (< 1 s)")
def test_criterion_1_golden_m1():
    t0 = time.time()
    trace = run(parse_program(RUNNING_SRC))
    expected = golden_m1()
    assert len(trace.entries) == len(expected.entries)
    for k, (got, want) in enumerate(zip(trace.entries, expected.entries)):
        assert got == want, f"entry {k}: {got!r} != {want!r}"
    assert time.time() - t0 < 1.0


@pytest.mark.acceptance("criterion 2: golden m(0) + m(2) event skeleton (< 1 s)")
def test_criterion_2_golden_m0_and_m2():
    t0 = time.time()
    assert run(parse_program(M0_SRC)).entries == golden_m0().entries
    skeleton = event_skeleton(run(parse_program(M2_SRC)))
    assert skeleton == M2_EVENT_SKELETON
    assert time.time() - t0 < 1.0


@pytest.mark.acceptance("criterion 3: adequacy on 500 random programs + "
                        "mutation suite (< 60 s)")
def test_criterion_3_adequacy():
    t0 = time.time()
    rng = random.Random(2024)
    for k in range(500):
        program = random_terminating_program(rng)
        trace = run(program)
        assert is_adequate(trace, strict=True), (k, program)
        assert is_adequate(trace, strict=False), (k, program)

    sigma = State({"x": 0})
    push = lambda i: PushEv(Ctx("m", i))
    pop = lambda i: PopEv(Ctx("m", i))
    # six hand-crafted inadequate traces, each rejected with its clause
    mutants = [
        # duplicate call identifier
        (Trace([sigma, CallEv("m", 1, 0), sigma, push(0), sigma,
                CallEv("m", 0, 0), sigma]), False, "2"),
        # two variables change in one step
        (Trace([sigma, sigma.set("y", 1).set("z", 2)]), False, "1"),
        # push without a call
        (Trace([sigma, push(0), sigma]), False, "4"),
        # pop in the wrong context
        (Trace([sigma, CallEv("m", 1, 0), sigma, push(0), sigma,
                RetEv(0), sigma, sigma.set("res1", 0), PopEv(Ctx("m", 1)),
                sigma.set("res1", 0)]), False, "5"),
        # an event directly after callEv
        (Trace([sigma, CallEv("m", 1, 0), sigma, RetEv(0), sigma]),
         False, "3"),
        # retEv not followed by its popEv (strict mode)
        (Trace([sigma, CallEv("m", 1, 0), sigma, push(0), sigma,
                RetEv(0), sigma, sigma.set("a", 1), sigma.set("a", 1).set("b", 1)]),
         True, "strict"),
    ]
    for k, (trace, lenient_ok, clause) in enumerate(mutants):
        strict_verdict = is_adequate(trace, strict=True)
        assert not strict_verdict, k
        lenient_verdict = is_adequate(trace, strict=False)
        assert bool(lenient_verdict) == lenient_ok, k
        reported = lenient_verdict.clause if not lenient_ok else strict_verdict.clause
        assert reported == clause, (k, reported, clause)
    assert time.time() - t0 < 60.0


@pytest.mark.acceptance("criterion 4: membership vs brute-force oracle on "
                        "goldens + 200 mutants (< 120 s)")
def test_criterion_4_membership_oracle():
    t0 = time.time()
    rng = random.Random(42)
    phi = contract_with_post()
    big = big_step_of(spec_m())
    goldens = [golden_m0(), golden_m1(),
               Trace(golden_m0().entries[:-1]), Trace(golden_m1().entries[:-1])]
    corpus = list(goldens)
    while len(corpus) < len(goldens) + 200:
        t = mutate_trace(rng, rng.choice(goldens))
        if not t.is_empty:
            corpus.append(t)
    subset_positives = 0
    for trace in corpus:
        for env in ({"n": 0, "i": 0}, {"n": 1, "i": 0}):
            got_full = member(trace, phi, env)
            got_big = member(trace, big, env)
            assert got_full == member_approx(trace, phi, env)
            assert got_big == member_approx(trace, big, env)
            if got_full:
                subset_positives += 1
                assert got_big, "recursive contract must entail its big-step form"
    assert subset_positives >= 2
    assert time.time() - t0 < 120.0


@pytest.mark.acceptance("criterion 5: membership invariant under one-step "
                        "unfolding (< 30 s)")
def test_criterion_5_unfold_equivalence():
    t0 = time.time()
    rng = random.Random(5)
    mu = contract_m()
    res_post = StatePred(Binary("==", ResVar(Var("i")), Var("n")))
    folded = Chop(MuApp(mu, (Var("n"), Var("i"))), res_post)
    unfolded = Chop(unfold(MuApp(mu, (Var("n"), Var("i")))), res_post)
    goldens = [golden_m0(), golden_m1(),
               Trace(golden_m0().entries[:-1]), Trace(golden_m1().entries[:-1])]
    corpus = list(goldens)
    for _ in range(100):
        t = mutate_trace(rng, rng.choice(goldens))
        if not t.is_empty:
            corpus.append(t)
    for trace in corpus:
        for n in (0, 1, 2):
            env = {"n": n, "i": 0}
            assert member(trace, folded, env) == member(trace, unfolded, env)
    assert time.time() - t0 < 30.0


@pytest.mark.acceptance("criterion 6: automated proof of the contract + "
                        "replay checking + 100 mutations (< 30 s)")
def test_criterion_6_contract_proof():
    t0 = time.time()
    ctx = ctx_m()
    tree = prove_auto(contract_goal("m"), ctx)
    assert tree.closed
    multiset = rule_counts(tree)
    for rule in ("ProcedureContract", "VarDecl", "Assign", "Cond", "Return",
                 "Unfold", "Prestate", "TrAbs"):
        assert multiset.get(rule, 0) >= 1, rule

    # the three premises of the trace-abstraction step match the published
    # sequents up to rigid renaming (see TestTrAbsChildren for the details)
    _TrAbsChildren().test_children_match_display()

    assert replay(tree, ctx) is None
    assert_mutations_rejected(dump_proof(tree, "m"), ctx, 100)
    assert time.time() - t0 < 30.0


@pytest.mark.acceptance("criterion 7: differential validation, 26 samples + "
                        "off-by-two mutant (< 60 s)")
def test_criterion_7_differential_validation():
    t0 = time.time()
    ctx = ctx_m()
    tree = prove_auto(contract_goal("m"), ctx)
    assert tree.closed and replay(tree, ctx) is None

    assumption = ContractAssumption.from_spec(spec_m())
    report = validate_contract(running_program(), assumption,
                               0, 25, samples=26, seed=0)
    assert report.overall == "pass"
    assert len(report.samples) == 26
    assert all(s.verdict == "pass" and s.result_ok and s.member_ok
               for s in report.samples)

    mutant_report = validate_contract(parse_program(MUTANT_SRC), assumption,
                                      0, 25, samples=26, seed=0)
    assert mutant_report.overall == "fail"
    assert mutant_report.counterexample["n"] == 1  # smallest recursive input
    assert time.time() - t0 < 60.0


@pytest.mark.acceptance("criterion 8: semantic composition properties "
                        "(500+500 splits, 1000 chop pairs) (< 60 s)")
def test_criterion_8_composition_properties():
    t0 = time.time()
    table = build_lookup(running_program())
    rng = random.Random(88)

    def pool():
        return [Assign(Var("x"), IntLit(rng.randint(0, 4))),
                CallAssign(Var("x"), "m", IntLit(rng.randint(0, 3))),
                Assign(Var("x"), Binary("+", Var("x"), IntLit(1))),
                Assign(Var("x"), Binary("*", Var("x"), IntLit(2)))]

    # [[r;s]](t) = t' ** [[s]](t') with t' = [[r]](t)
    for _ in range(500):
        stmts = pool()
        rng.shuffle(stmts)
        cut = rng.randint(1, 3)
        r, s = seq(stmts[:cut]), seq(stmts[cut:])
        start = singleton(State({"x": rng.randint(0, 3)}))
        whole = semantics(Seq(r, s), start, table)
        t_r = semantics(r, start, table)
        t_s = semantics(s, chop(start, t_r), table)
        assert whole == chop(t_r, t_s)

    # [[U s]](t) = [[U]](t) ** [[s]]([[U]](t))
    for _ in range(500):
        atoms = [Elem(Var("x"), IntLit(rng.randint(0, 4)))]
        if rng.random() < 0.6:
            atoms.append(CallUpd(Var("x"), "m", IntLit(rng.randint(0, 3))))
        if rng.random() < 0.4:
            atoms.append(StartUpd("q", IntLit(0), IntLit(17)))
            atoms.append(FinishUpd("q", IntLit(0), IntLit(17)))
        if rng.random() < 0.5:
            atoms.append(Elem(Var("x"), Binary("+", Var("x"), IntLit(1))))
        stmt = Assign(Var("x"), Binary("*", Var("x"), IntLit(2)))
        start = singleton(State({"x": rng.randint(0, 3)}))
        whole = run_update_prefixed(tuple(atoms), stmt, start, table)
        t_u = run_update_prefixed(tuple(atoms), None, start, table)
        rest = semantics(stmt, chop(start, t_u), table)
        assert whole == chop(t_u, rest)

    # chop associativity and identities on compatible random pairs
    for _ in range(1000):
        states = [State({"v": rng.randint(0, 2), "w": rng.randint(0, 1)})
                  for _ in range(4)]
        t1 = Trace([states[0], states[1]])
        t2 = Trace([states[1], states[2]])
        t3 = Trace([states[2], states[3]])
        assert chop(chop(t1, t2), t3) == chop(t1, chop(t2, t3))
        assert chop(t1, singleton(t1.last())) == t1
        assert chop(singleton(t1.entries[0]), t1) == t1
    assert time.time() - t0 < 60.0
