"""Interpreter: local evaluation, composition rules, golden traces."""

import random
import sys

import pytest

from helpers import (M0_SRC, M2_SRC, M2_EVENT_SKELETON, RUNNING_SRC,
                     ReferenceMachine, UpStmt, chop, cont_shape, curr_ctx_stack,
                     event_skeleton, golden_m0, golden_m1, m_source, multi_proc_source,
                     random_linear_expr, random_terminating_program,
                     run_update_prefixed, semantics, subst_stmt_oracle,
                     while_source)
from tracelet.interp import (DEFAULT_FUEL, FuelExhausted, Machine, RunError,
                             initial_state, run)
from tracelet.lang import (Assign, Binary, CallAssign, IntLit, ResVar,
                           Scope, Seq, Skip, Var, While, build_lookup, nodes,
                           parse_program, seq, subst_stmt)
from tracelet.traces import (CallEv, Ctx, MAIN_CTX, PopEv, PushEv, RetEv, State,
                             Trace, dump_trace, is_adequate, nest, singleton)
from tracelet.updates import CallUpd, Elem, FinishUpd, StartUpd


def table_of(src):
    return build_lookup(parse_program(src))


EMPTY_TABLE = {}


def advance(m: Machine, fuel: int) -> Machine:
    """Run m on fuel more units, up to where they run out."""
    m.fuel += fuel
    try:
        m.run()
    except FuelExhausted:
        pass
    return m


def after_rules(k, state, cont, table=EMPTY_TABLE):
    """The machine from <state> with cont once it has applied k rules, or
    at its final configuration if that comes first."""
    return advance(Machine(singleton(state), cont, table, fuel=0), k)


def configurations(start, cont, table):
    """The machine at the start and after each rule it applies, given one
    unit of fuel at a time: the same object each time."""
    m = Machine(start, cont, table, fuel=0)
    while m.fuel == 0:
        yield m
        advance(m, 1)


def rule_count(start, cont, table) -> int:
    """How many rules the machine applies to run cont from start."""
    return DEFAULT_FUEL - Machine(start, cont, table).run().fuel


class TestLocalEval:
    def test_skip(self):
        m = after_rules(1, State({"x": 0}), Skip())
        assert m.entries == [State({"x": 0})] and m.stack == [] and m.fuel == 0

    def test_assign(self):
        sigma = State({"x": 0})
        m = after_rules(1, sigma, Assign(Var("x"), IntLit(5)))
        assert m.entries == [sigma, State({"x": 5})] and m.stack == []

    def test_call_assign_emits_call_event(self):
        sigma = State({"x": 0})
        m = after_rules(1, sigma, CallAssign(Var("x"), "m", IntLit(1)))
        assert m.entries == [sigma, CallEv("m", 1, 0), sigma]
        assert m.stack == [Assign(Var("x"), ResVar(IntLit(0)))]

    def test_res_assignment_is_ignored(self):
        sigma = State({"x": 0})
        m = after_rules(1, sigma, Assign(ResVar(IntLit(0)), IntLit(5)))
        assert m.entries == [sigma] and m.stack == [] and m.fuel == 0

    def test_start_event_update(self):
        # the update yields the callEv ** pushEv trace and opens q's context
        sigma = State({})
        t = run_update_prefixed((StartUpd("q", IntLit(0), IntLit(3)),), None,
                                singleton(sigma), EMPTY_TABLE)
        assert t.entries == (sigma, CallEv("q", 0, 3), sigma, PushEv(Ctx("q", 3)), sigma)
        assert nest([], t.entries) == [Ctx("q", 3)]

    def test_finish_event_update(self):
        sigma = State({})
        t = run_update_prefixed((FinishUpd("q", IntLit(7), IntLit(2)),), None,
                                singleton(sigma), EMPTY_TABLE)
        after = sigma.set("res2", 7)
        assert t.entries == (sigma, RetEv(7), sigma, after, PopEv(Ctx("q", 2)), after)

    def test_scope_declares_fresh_zero(self):
        m = after_rules(1, State({"r": 9}), Scope(("r",), Assign(Var("r"), IntLit(1))))
        assert m.entries[1].get("r#1") == 0
        assert m.stack == [Assign(Var("r#1"), IntLit(1))]

    def test_scope_names_all_locals_on_its_first_step(self):
        sigma = State({"r": 9})
        m = after_rules(1, sigma, Scope(("r", "t"), Assign(Var("r"), Var("t"))))
        assert m.entries == [sigma, sigma.set("r#1", 0)]
        assert m.stack == [Assign(Var("r#1"), Var("t#2")), Assign(Var("t#2"), IntLit(0))]

    def test_local_named_like_a_fresh_name_is_not_captured(self):
        # a becomes a#1 and the local a#1 becomes a#1#2, both at once
        src = "p(k) { a; a#1; a = 5; a#1 = 7; return a }\nmain { x; x = p(0) }\n"
        assert run(parse_program(src)).last().get("x") == 5


class TestStep:
    def test_call_rule_inlines_body(self):
        p = parse_program(RUNNING_SRC)
        m = after_rules(1, State({"x": 0}), p.main_body, build_lookup(p))
        assert isinstance(m.entries[-2], CallEv)  # progress: emit callEv
        m = after_rules(2, State({"x": 0}), p.main_body, build_lookup(p))
        assert m.entries[-2] == PushEv(Ctx("m", 0))  # call rule: push context
        assert m.stack[-1] == subst_stmt(p.procs[0].body, {"k": IntLit(1)})

    def test_return_rule_assigns_res_and_pops(self):
        p = parse_program("m(k) { r; return r }\nmain { x; x = m(5) }")
        k = 1
        while not isinstance(after_rules(k, State({"x": 0}), p.main_body,
                                         build_lookup(p)).entries[-2], RetEv):
            k += 1
        m = after_rules(k + 1, State({"x": 0}), p.main_body, build_lookup(p))
        assert isinstance(m.entries[-2], PopEv)  # return rule
        assert m.entries[-1].get("res0") == 0

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
            for m in configurations(singleton(initial_state(p)), p.main_body,
                                    build_lookup(p)):
                assert (m.ctxs or [MAIN_CTX])[-1] == curr_ctx_stack(m.trace)

    def test_final_configuration_takes_no_rule(self):
        # a final configuration runs without fuel and is left as it is
        p = parse_program("main { skip }")
        m = Machine(singleton(State({})), p.main_body, build_lookup(p), fuel=1).run()
        assert m.fuel == 0
        assert m.run().entries == [State({})] and m.fuel == 0


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
        t_inline = run_update_prefixed((StartUpd("m", IntLit(1), IntLit(0)),),
                                       Seq(Assign(Var("k'"), IntLit(1)),
                                           subst_stmt(proc.body, {"k": Var("k'")})),
                                       singleton(State({})), table)
        t_call = semantics(CallAssign(Var("x"), "m", IntLit(1)), singleton(State({})), table)
        assert event_skeleton(t_inline) == event_skeleton(t_call)
        assert t_inline.last().get("res0") == t_call.last().get("res0") == 1


class TestLastEventLemma:
    def test_call_and_ret_events_only_at_the_end(self):
        # in every reachable configuration, a trailing callEv/retEv is
        # literally the last event group of the trace
        p = parse_program(M2_SRC)
        for m in configurations(singleton(State({"x": 0})), p.main_body, build_lookup(p)):
            entries = m.entries
            ev = next((e for e in reversed(entries) if not isinstance(e, State)), None)
            if isinstance(ev, (CallEv, RetEv)):
                # nothing may follow the event's flanking state
                assert entries[-2] is ev


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
    holds them, given the machine's continuation cont (``cont_shape``).

    The reference declares a block's locals one per step and renames the
    body each time.  The machine names them all on the first step and
    renames the body once, so until the reference has declared the last
    one the machine holds zero assignments of the names still to be
    bound in front of the block with all of them renamed, and its counter
    stands at the last name's suffix.
    """
    seconds, head = [], ref_cont
    while type(head) is Seq:
        seconds.append(head.second)
        head = head.first
    first = cont.first if type(cont) is Seq else cont
    if type(head) is not Scope or not head.decls or type(first) is not Assign:
        return ref_cont, None
    names = []
    for _ in head.decls:
        names.append(cont.first.target.name)
        cont = cont.second
    body = head.body
    for name, fresh in zip(head.decls, names):
        body = subst_stmt_oracle(body, name, Var(fresh))
    settled = Scope((), body)
    for second in reversed(seconds):
        settled = Seq(settled, second)
    for fresh in reversed(names):
        settled = Seq(Assign(Var(fresh), IntLit(0)), settled)
    return settled, int(names[-1].rsplit("#", 1)[1])


def assert_agrees_with_reference(start: Trace, cont, table, fuel=100_000):
    """The machine, given after each step of the reference machine the
    fuel that step used, uses it up and stops at the same entries, open
    contexts, continuation and counters, up to the declarations the
    machine makes ahead (``declared_ahead``).  Given all the fuel at
    once, it ends where the reference ends."""
    ref = ReferenceMachine(start, cont, table, fuel)
    m = Machine(start, cont, table, fuel=0)
    while not ref.done:
        before = ref.fuel
        ref.step()
        advance(m, before - ref.fuel)
        shape = cont_shape(m.stack)
        ref_cont, ref_fresh = declared_ahead(ref.cont, shape)
        assert m.entries == ref.entries and m.ctxs == ref.ctxs
        assert shape == cont_shape([ref_cont])
        assert (m.next_id, m.next_fresh, m.fuel) == \
            (ref.next_id, ref.next_fresh if ref_fresh is None else ref_fresh, 0)
    assert m.stack == [] and advance(m, 1).fuel == 1
    whole = Machine(start, cont, table, fuel).run()
    assert whole.fuel == ref.fuel and dump_trace(whole.trace) == dump_trace(ref.trace)


def test_run_agrees_with_reference_machine():
    for name, p in oracle_programs():
        start = singleton(initial_state(p))
        ref = ReferenceMachine(start, p.main_body, build_lookup(p)).run()
        assert run(p).entries == ref.trace.entries, name
        assert_agrees_with_reference(start, p.main_body, build_lookup(p))


def random_update_prefixed(rng: random.Random):
    """A start trace and an update-prefixed continuation for RUNNING_SRC's
    table: one to four atoms of every kind, then nothing, a statement or
    a loop."""
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
    return start, UpStmt(tuple(atoms), stmt)


def fuel_outcome(run_to_end):
    """What a run does: the partial trace it exhausts its fuel at, or the
    trace it ends with, as dumped."""
    try:
        return "finished", dump_trace(run_to_end())
    except FuelExhausted as e:
        return "exhausted", dump_trace(e.partial)


def test_update_prefixed_runs_agree_with_reference_machine():
    """At every fuel up to the reference's rule count, ``run_update_prefixed``
    (the atoms on the reference machine, the statement on the package
    machine) and the reference machine alone stop with the same partial
    trace or end with the same trace.  The start is one state, so the
    suffix ``run_update_prefixed`` returns is the whole trace."""
    rng = random.Random(103)
    table = build_lookup(parse_program(RUNNING_SRC))
    for _ in range(150):
        start, cont = random_update_prefixed(rng)
        total = DEFAULT_FUEL - ReferenceMachine(start, cont, table).run().fuel
        for fuel in range(total + 1):
            assert fuel_outcome(lambda: run_update_prefixed(cont.atoms, cont.stmt, start,
                                                            table, fuel)) == \
                fuel_outcome(lambda: ReferenceMachine(start, cont, table, fuel).run().trace), \
                (cont, fuel)


def assert_same_at_every_fuel(start: Trace, cont, table):
    """Given each fuel up to the run's rule count, the machine and the
    reference machine stop with the same partial trace, or both end with
    the same trace.  Each step of the reference costs one unit of fuel,
    and given fuel k it stops where its steps have used k, so one
    reference is stepped along."""
    total = rule_count(start, cont, table)
    ref = ReferenceMachine(start, cont, table, total)
    for fuel in range(total + 1):
        while total - ref.fuel < fuel:
            ref.step()
        expected = "finished" if ref.done else "exhausted", dump_trace(ref.trace)
        assert fuel_outcome(lambda: Machine(start, cont, table, fuel).run().trace) == \
            expected, fuel
    assert ref.done


def test_fuel_runs_out_where_the_reference_machine_runs_out():
    """At every fuel up to a run's rule count, both machines stop with the
    same partial trace, or both end with the same trace."""
    for name, p in oracle_programs():
        assert_same_at_every_fuel(singleton(initial_state(p)), p.main_body, build_lookup(p))


def test_loop_turn_pushes_the_loop_and_its_body():
    # each turn leaves the While node and its body node on the stack
    # themselves, and the stack does not grow from turn to turn
    p = parse_program(while_source(5, 2))
    loop = next(node for node in nodes(p.main_body) if type(node) is While)
    turns, depth = 0, 0
    for m in configurations(singleton(initial_state(p)), p.main_body, build_lookup(p)):
        stack = m.stack
        if stack and stack[-1] is loop.body:
            assert stack[-2] is loop
            turns += 1
        depth = max(depth, len(stack))
    assert turns == 5 and depth <= 3


def calls_per_entry(program) -> float:
    """The Python calls, and calls of built-ins, that ``run`` makes per
    entry of the trace it returns."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        t = run(program)
    finally:
        sys.setprofile(None)
    return count / len(t.entries)


@pytest.mark.parametrize("src, bound", [(while_source(2000, 3), 25), (m_source(100), 15)],
                         ids=["while", "m"])
def test_calls_per_entry(src, bound):
    assert calls_per_entry(parse_program(src)) <= bound
