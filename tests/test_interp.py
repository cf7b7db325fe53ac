"""Interpreter: local evaluation, composition rules, golden traces."""

import random

import pytest

from helpers import (M0_SRC, M2_SRC, M2_EVENT_SKELETON, RUNNING_SRC,
                     ReferenceMachine, chop, curr_ctx_stack, event_skeleton,
                     golden_m0, golden_m1, m_source, multi_proc_source,
                     random_linear_expr, random_terminating_program,
                     run_update_prefixed, semantics, subst_stmt_oracle,
                     while_source)
from tracelet.interp import (FuelExhausted, Machine, RunError, UpStmt,
                             initial_state, run, run_cont)
from tracelet.lang import (Assign, Binary, CallAssign, IntLit, ResVar,
                           Scope, Seq, Skip, Var, While, build_lookup,
                           parse_program, seq)
from tracelet.traces import (CallEv, Ctx, MAIN_CTX, PopEv, PushEv, RetEv, State,
                             Trace, dump_trace, is_adequate, singleton)
from tracelet.updates import CallUpd, Elem, FinishUpd, StartUpd


def table_of(src):
    return build_lookup(parse_program(src))


EMPTY_TABLE = {}


def machine(state, cont, table=EMPTY_TABLE):
    return Machine(singleton(state), cont, table)


class TestLocalEval:
    def test_skip(self):
        m = machine(State({"x": 0}), None)
        tr, cont = m.local_eval(State({"x": 0}), Skip())
        assert tr == singleton(State({"x": 0})) and cont is None

    def test_assign(self):
        sigma = State({"x": 0})
        m = machine(sigma, None)
        tr, cont = m.local_eval(sigma, Assign(Var("x"), IntLit(5)))
        assert tr.entries == (sigma, State({"x": 5})) and cont is None

    def test_call_assign_emits_call_event(self):
        sigma = State({"x": 0})
        m = machine(sigma, None)
        tr, cont = m.local_eval(sigma, CallAssign(Var("x"), "m", IntLit(1)))
        assert tr.entries == (sigma, CallEv("m", 1, 0), sigma)
        assert cont == Assign(Var("x"), ResVar(IntLit(0)))

    def test_res_assignment_is_ignored(self):
        sigma = State({"x": 0})
        m = machine(sigma, None)
        tr, cont = m.local_eval(sigma, UpStmt((Elem(ResVar(IntLit(0)), IntLit(5)),)))
        assert tr == singleton(sigma) and cont is None

    def test_start_event_update(self):
        # one local step yields the callEv ** pushEv trace
        sigma = State({})
        m = machine(sigma, None)
        up = UpStmt((StartUpd("q", IntLit(0), IntLit(3)),),
                    Assign(Var("r"), IntLit(0)))
        tr, cont = m.local_eval(sigma, up)
        assert tr.entries == (sigma, CallEv("q", 0, 3), sigma,
                              PushEv(Ctx("q", 3)), sigma)
        assert cont == Assign(Var("r"), IntLit(0))

    def test_finish_event_update(self):
        sigma = State({})
        m = machine(sigma, None)
        up = UpStmt((FinishUpd("q", IntLit(7), IntLit(2)),))
        tr, cont = m.local_eval(sigma, up)
        after = sigma.set("res2", 7)
        assert tr.entries == (sigma, RetEv(7), sigma, after,
                              PopEv(Ctx("q", 2)), after)
        assert cont is None

    def test_scope_declares_fresh_zero(self):
        sigma = State({"r": 9})
        m = machine(sigma, None)
        tr, cont = m.local_eval(sigma, Scope(("r",), Assign(Var("r"), IntLit(1))))
        assert tr.entries[1].get("r#1") == 0
        assert cont == Scope((), Assign(Var("r#1"), IntLit(1)))

    def test_scope_names_all_locals_on_its_first_step(self):
        sigma = State({"r": 9})
        m = machine(sigma, None)
        tr, cont = m.local_eval(sigma, Scope(("r", "t"), Assign(Var("r"), Var("t"))))
        assert tr.entries == (sigma, sigma.set("r#1", 0))
        assert cont == UpStmt((Elem(Var("t#2"), IntLit(0)),),
                              Scope((), Assign(Var("r#1"), Var("t#2"))))

    def test_local_named_like_a_fresh_name_is_not_captured(self):
        # a becomes a#1 and the local a#1 becomes a#1#2, both at once
        src = "p(k) { a; a#1; a = 5; a#1 = 7; return a }\nmain { x; x = p(0) }\n"
        assert run(parse_program(src)).last().get("x") == 5


class TestStep:
    def test_call_rule_inlines_body(self):
        src = RUNNING_SRC
        p = parse_program(src)
        m = Machine(singleton(State({"x": 0})), p.main_body, build_lookup(p))
        m.step()  # progress: emit callEv
        assert isinstance(m.trace.entries[-2], CallEv)
        m.step()  # call rule: push context, inline body
        assert isinstance(m.trace.entries[-2], PushEv)
        assert m.trace.entries[-2].ctx == Ctx("m", 0)

    def test_return_rule_assigns_res_and_pops(self):
        src = "m(k) { r; return r }\nmain { x; x = m(5) }"
        p = parse_program(src)
        m = Machine(singleton(State({"x": 0})), p.main_body, build_lookup(p))
        while not isinstance(m.trace.entries[-2] if len(m.trace.entries) > 1 else None, RetEv):
            m.step()
        m.step()  # return rule
        assert isinstance(m.trace.entries[-2], PopEv)
        assert m.trace.entries[-1].get("res0") == 0

    def test_step_deterministic(self):
        rng = random.Random(17)
        for _ in range(40):
            p = random_terminating_program(rng)
            t1 = run(p)
            t2 = run(p)
            assert t1 == t2

    def test_ctxs_follow_the_stack_oracle(self):
        rng = random.Random(29)
        for _ in range(30):
            p = random_terminating_program(rng)
            m = Machine(singleton(initial_state(p)), p.main_body, build_lookup(p))
            while not m.done:
                m.step()
                assert (m.ctxs or [MAIN_CTX])[-1] == curr_ctx_stack(m.trace)

    def test_final_configuration_rejects_step(self):
        p = parse_program("main { skip }")
        m = Machine(singleton(State({})), p.main_body, build_lookup(p))
        m.run()
        with pytest.raises(RunError):
            m.step()


class TestRun:
    def test_golden_m1_entry_for_entry(self):
        assert run(parse_program(RUNNING_SRC)).entries == golden_m1().entries

    def test_golden_m0_entry_for_entry(self):
        assert run(parse_program(M0_SRC)).entries == golden_m0().entries

    def test_m2_event_skeleton(self):
        t = run(parse_program(M2_SRC))
        assert event_skeleton(t) == M2_EVENT_SKELETON

    def test_skip_single_state(self):
        t = run(parse_program("main { skip }"))
        assert t.entries == (State({}),)

    def test_identity_function_up_to_ten(self):
        base = parse_program(RUNNING_SRC)
        for n in range(11):
            src = RUNNING_SRC.replace("x = m(1)", f"x = m({n})")
            t = run(parse_program(src))
            assert t.last().get("x") == n

    def test_initial_state_override(self):
        p = parse_program("main { x; x = x + 1 }")
        t = run(p, initial_state(p, {"x": 41}))
        assert t.last().get("x") == 42

    def test_unknown_initial_binding_rejected(self):
        p = parse_program("main { x; skip }")
        with pytest.raises(RunError):
            initial_state(p, {"y": 0})

    def test_fuel_exhaustion(self):
        p = parse_program("main { x; while (0 == 0) { skip } }")
        with pytest.raises(FuelExhausted):
            run(p, fuel=100)

    def test_while_unfolds(self):
        p = parse_program("main { x; x = 3; while (x > 0) { x = x - 1 } }")
        assert run(p).last().get("x") == 0


class TestAdequacyTheorem:
    def test_sample_runs_adequate(self):
        rng = random.Random(23)
        for _ in range(60):
            p = random_terminating_program(rng)
            t = run(p)
            assert is_adequate(t, strict=True), p
            assert is_adequate(t, strict=False)

    def test_call_followed_by_push_ret_by_pop(self):
        t = run(parse_program(M2_SRC))
        ent = t.entries
        for k, e in enumerate(ent):
            if isinstance(e, CallEv):
                assert isinstance(ent[k + 2], PushEv)
                assert ent[k + 2].ctx == Ctx(e.proc, e.call_id)
            if isinstance(e, RetEv):
                assert isinstance(ent[k + 3], PopEv)


class TestCompositionProperties:
    def test_seq_decomposition(self):
        # [[r;s]](t) = t' ** [[s]](t') with t' = [[r]](t)
        rng = random.Random(31)
        p = parse_program(RUNNING_SRC)
        table = build_lookup(p)
        for _ in range(60):
            n_first = rng.randint(1, 3)
            stmts = [Assign(Var("x"), IntLit(rng.randint(0, 5))),
                     CallAssign(Var("x"), "m", IntLit(rng.randint(0, 3))),
                     Assign(Var("x"), Binary("+", Var("x"), IntLit(1))),
                     CallAssign(Var("x"), "m", IntLit(rng.randint(0, 2)))]
            rng.shuffle(stmts)
            r = seq(stmts[:n_first])
            s_part = seq(stmts[n_first:])
            start = singleton(State({"x": 0}))
            whole = semantics(Seq(r, s_part), start, table)
            t_r = semantics(r, start, table)
            t_s = semantics(s_part, chop(start, t_r), table)
            assert whole == chop(t_r, t_s)

    def test_update_decomposition(self):
        # [[U s]](t) = [[U]](t) ** [[s]]([[U]](t))
        rng = random.Random(41)
        p = parse_program(RUNNING_SRC)
        table = build_lookup(p)
        for _ in range(60):
            atoms = [Elem(Var("x"), IntLit(rng.randint(0, 4)))]
            if rng.random() < 0.6:
                atoms.append(CallUpd(Var("x"), "m", IntLit(rng.randint(0, 3))))
            if rng.random() < 0.5:
                atoms.append(Elem(Var("x"), Binary("+", Var("x"), IntLit(1))))
            stmt = Assign(Var("x"), Binary("*", Var("x"), IntLit(2)))
            start = singleton(State({"x": 0}))
            whole = run_update_prefixed(tuple(atoms), stmt, start, table)
            t_u = run_update_prefixed(tuple(atoms), None, start, table)
            rest = semantics(stmt, chop(start, t_u), table)
            assert whole == chop(t_u, rest)

    def test_call_update_uses_last_state_only(self):
        # [[{v := m(e)}]](t) = [[{v := m(e)}]](last(t))
        p = parse_program(RUNNING_SRC)
        table = build_lookup(p)
        long_start = Trace([State({"x": 0}), State({"x": 1}), State({"x": 2})])
        u = (CallUpd(Var("x"), "m", IntLit(2)),)
        via_trace = run_update_prefixed(u, None, long_start, table)
        via_last = run_update_prefixed(u, None, singleton(long_start.last()), table)
        assert via_trace == via_last

    def test_update_event_sandwich(self):
        # startEv/finishEv updates reproduce the interpreter's event shape
        p = parse_program(RUNNING_SRC)
        table = build_lookup(p)
        start = singleton(State({}))
        atoms = (StartUpd("m", IntLit(0), IntLit(0)),
                 FinishUpd("m", IntLit(0), IntLit(0)),
                 Elem(ResVar(IntLit(0)), IntLit(0)))
        t = run_update_prefixed(atoms, None, start, table)
        kinds = [type(e).__name__ for e in t.entries]
        assert kinds == ["State", "CallEv", "State", "PushEv", "State",
                         "RetEv", "State", "State", "PopEv", "State"]

    def test_inline_matches_direct_call(self):
        # running inline(m, v, i) equals the call's event skeleton
        p = parse_program(RUNNING_SRC)
        table = build_lookup(p)
        proc = p.procs[0]
        from tracelet.lang import subst_stmt
        inlined = UpStmt((StartUpd("m", IntLit(1), IntLit(0)),),
                         Seq(Assign(Var("k'"), IntLit(1)),
                             subst_stmt(proc.body, {"k": Var("k'")})))
        t_inline = run_cont(singleton(State({})), inlined, table).trace
        t_call = run_cont(singleton(State({})), CallAssign(Var("x"), "m", IntLit(1)),
                          table).trace
        assert event_skeleton(t_inline) == event_skeleton(t_call)
        assert t_inline.last().get("res0") == t_call.last().get("res0") == 1


class TestLastEventLemma:
    def test_call_and_ret_events_only_at_the_end(self):
        # in every reachable configuration, a trailing callEv/retEv is
        # literally the last event group of the trace
        p = parse_program(M2_SRC)
        m = Machine(singleton(State({"x": 0})), p.main_body, build_lookup(p))
        while not m.done:
            ev = next((e for e in reversed(m.entries) if not isinstance(e, State)), None)
            if isinstance(ev, (CallEv, RetEv)):
                # nothing may follow the event's flanking state
                assert m.entries[-2] is ev
            m.step()


def test_update_prefixed_skip():
    # {x := 1} skip from <sigma>: one update step plus skip's no-op
    p = parse_program("main { skip }")
    table = build_lookup(p)
    sigma = State({"x": 0})
    out = run_update_prefixed((Elem(Var("x"), IntLit(1)),), Skip(),
                              singleton(sigma), table)
    assert out.entries == (sigma, sigma.set("x", 1))


def oracle_programs():
    """Random terminating programs, counting loops, m(n) and programs of
    several procedures, as (id, program) pairs."""
    rng = random.Random(101)
    out = [(f"random-{k}", random_terminating_program(rng)) for k in range(200)]
    out += [(f"while-{n}", parse_program(while_source(n, c))) for n, c in [(0, 1), (1, 4), (37, 3)]]
    out += [(f"m-{n}", parse_program(m_source(n))) for n in (0, 1, 7, 30)]
    out += [(f"procs-{k}", parse_program(multi_proc_source(random.Random(k), k, 2)))
            for k in (1, 2, 3)]
    out.append(("m0", parse_program(M0_SRC)))
    return out


def declared_ahead(ref_cont, cont):
    """The reference's continuation and fresh-name counter as the machine
    holds them, given the machine's continuation cont.

    The reference declares a block's locals one per step and renames the
    body each time.  The machine names them all on the first step and
    renames the body once, so until the reference has declared the last
    one the machine holds zero updates of the names still to be bound
    in front of the block with all of them renamed, and its counter
    stands at the last name's suffix.
    """
    seconds, head = [], ref_cont
    while type(head) is Seq:
        seconds.append(head.second)
        head = head.first
    if type(head) is not Scope or not head.decls or type(cont) is not UpStmt:
        return ref_cont, None
    names = [atom.target.name for atom in cont.atoms]
    body = head.body
    for name, fresh in zip(head.decls, names):
        body = subst_stmt_oracle(body, name, Var(fresh))
    settled = Scope((), body)
    for second in reversed(seconds):
        settled = Seq(settled, second)
    zeros = tuple(Elem(Var(fresh), IntLit(0)) for fresh in names[:len(head.decls)])
    return UpStmt(zeros, settled), int(names[-1].rsplit("#", 1)[1])


def assert_agrees_with_reference(start: Trace, cont, table, fuel=100_000):
    """The machine and the reference machine step in lockstep to the same
    entries, open contexts, continuation and counters, up to the
    declarations the machine makes ahead (``declared_ahead``)."""
    m, ref = Machine(start, cont, table, fuel), ReferenceMachine(start, cont, table, fuel)
    while not ref.done:
        assert not m.done
        ref.step()
        m.step()
        ref_cont, ref_fresh = declared_ahead(ref.cont, m.cont)
        assert m.entries == ref.entries and m.ctxs == ref.ctxs and m.cont == ref_cont
        assert (m.next_id, m.next_fresh, m.fuel) == \
            (ref.next_id, ref.next_fresh if ref_fresh is None else ref_fresh, ref.fuel)
    assert m.done
    assert dump_trace(m.trace) == dump_trace(ref.trace)


def test_run_agrees_with_reference_machine():
    for name, p in oracle_programs():
        start = singleton(initial_state(p))
        ref = ReferenceMachine(start, p.main_body, build_lookup(p)).run()
        assert run(p).entries == ref.trace.entries, name
        assert_agrees_with_reference(start, p.main_body, build_lookup(p))


def test_update_prefixed_runs_agree_with_reference_machine():
    rng = random.Random(103)
    table = build_lookup(parse_program(RUNNING_SRC))
    for _ in range(150):
        atoms = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(5)
            if kind == 0:
                atoms.append(Elem(Var(rng.choice("xy")), random_linear_expr(rng, ["x", "y"])))
            elif kind == 1:
                atoms.append(CallUpd(Var(rng.choice("xy")), "m", IntLit(rng.randint(0, 3))))
            elif kind == 2:
                atoms.append(StartUpd("m", IntLit(rng.randint(0, 3)), IntLit(rng.randint(0, 5))))
            elif kind == 3:
                atoms.append(FinishUpd("m", Var("x"), IntLit(rng.randint(0, 5))))
            else:
                atoms.append(Elem(ResVar(IntLit(0)), IntLit(1)))
        stmt = rng.choice([None, Skip(), Assign(Var("x"), Binary("+", Var("y"), IntLit(1))),
                           CallAssign(Var("y"), "m", Binary("-", IntLit(2), Var("z"))),
                           While(Binary("<", Var("x"), IntLit(3)),
                                 Assign(Var("x"), Binary("+", Var("x"), IntLit(1))))])
        start = singleton(State({"x": rng.randint(-1, 2), "y": 0, "z": rng.randint(0, 2)}))
        assert_agrees_with_reference(start, UpStmt(tuple(atoms), stmt), table)


def test_loop_continuation_built_once_per_loop():
    p = parse_program(while_source(5, 2))
    m = Machine(singleton(initial_state(p)), p.main_body, build_lookup(p))
    unfolded = []
    while not m.done:
        loop = m.cont if isinstance(m.cont, While) else None
        m.step()
        if loop is not None and m.cont is not None:
            assert m.cont == Seq(loop.body, loop)
            unfolded.append(m.cont)
    assert len(unfolded) == 5 and all(c is unfolded[0] for c in unfolded)
