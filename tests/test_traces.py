"""Trace model: chop, concat, event traces, contexts, adequacy, gaps, JSON."""

import random

import pytest

from helpers import (curr_ctx_stack, eval_expr_oracle, golden_m1,
                     random_linear_expr, random_terminating_program,
                     running_program)
from tracelet.interp import run
from tracelet.lang import Binary, IntLit, Var, parse_program
from tracelet.logic import member, parse_formula, psi
from tracelet.traces import (CallEv, ChopUndefined, Ctx, EmptyTraceError,
                             MAIN_CTX, PopEv, PushEv, RetEv, State, Trace,
                             chop, concat, dump_trace, eval_expr, event_trace,
                             is_adequate, load_trace, nest, singleton)


def s(**kw):
    return State(kw)


class TestStates:
    def test_update_overwrites(self):
        assert s(x=0).set("x", 1) == s(x=1)

    def test_update_preserves_rest(self):
        st = s(x=0, y=1).set("x", 5)
        assert st.get("y") == 1 and st.get("x") == 5

    def test_eval_example(self):
        # val(x+y) = 0 + 1 = 1
        assert eval_expr(s(x=0, y=1), Binary("+", Var("x"), Var("y"))) == 1

    def test_eval_literal(self):
        assert eval_expr(s(), IntLit(7)) == 7

    def test_eval_agrees_with_oracle(self):
        rng = random.Random(7)
        for _ in range(1000):
            st = State({n: rng.randint(-9, 9) for n in "abc"})
            e = random_linear_expr(rng, ["a", "b", "c"], depth=3)
            assert eval_expr(st, e) == eval_expr_oracle(st, e)

    def test_random_update_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            st = State({n: rng.randint(-5, 5) for n in "pq"})
            name = rng.choice("pqr")
            v = rng.randint(-100, 100)
            assert st.set(name, v).get(name) == v


class TestChopConcat:
    def test_chop_example(self):
        sigma = s(a=0)
        t1 = Trace([sigma, sigma.set("x", 1)])
        t2 = Trace([sigma.set("x", 1), sigma.set("x", 1).set("y", 2)])
        fused = chop(t1, t2)
        assert fused.entries == (sigma, sigma.set("x", 1),
                                 sigma.set("x", 1).set("y", 2))

    def test_chop_singleton_identity(self):
        t = singleton(s(x=0))
        assert chop(t, t) == t

    def test_chop_undefined_on_mismatch(self):
        with pytest.raises(ChopUndefined):
            chop(singleton(s(x=0)), singleton(s(x=1)))

    def test_chop_identities(self):
        t = golden_m1()
        assert chop(t, singleton(t.last())) == t
        assert chop(singleton(t.first()), t) == t

    def test_chop_associative_where_defined(self):
        rng = random.Random(11)
        for _ in range(200):
            states = [s(v=rng.randint(0, 2)) for _ in range(4)]
            t1 = Trace([states[0], states[1]])
            t2 = Trace([states[1], states[2]])
            t3 = Trace([states[2], states[3]])
            assert chop(chop(t1, t2), t3) == chop(t1, chop(t2, t3))

    def test_concat_lengths(self):
        rng = random.Random(5)
        for _ in range(100):
            t1 = Trace([s(a=rng.randint(0, 3)) for _ in range(rng.randint(0, 4))])
            t2 = Trace([s(b=rng.randint(0, 3)) for _ in range(rng.randint(0, 4))])
            assert len(concat(t1, t2)) == len(t1) + len(t2)

    def test_concat_empty_identity(self):
        t = golden_m1()
        assert concat(t, Trace()) == t

    def test_concat_models_return_pop_shape(self):
        # retEv trace . popEv trace over the res-updated boundary
        sigma = s(x=0)
        after = sigma.set("res0", 3)
        combined = concat(event_trace(sigma, RetEv(3)),
                          event_trace(after, PopEv(Ctx("m", 0))))
        assert combined.entries == (sigma, RetEv(3), sigma,
                                    after, PopEv(Ctx("m", 0)), after)


class TestEventTrace:
    def test_shape(self):
        sigma = s(x=0)
        t = event_trace(sigma, CallEv("m", 1, 0))
        assert t.entries == (sigma, CallEv("m", 1, 0), sigma)
        assert t.first() == t.last() == sigma

    def test_interpreter_traces_keep_trio_shape(self):
        t = run(running_program())
        for k, e in enumerate(t.entries):
            if not isinstance(e, State):
                assert t.entries[k - 1] == t.entries[k + 1]


def current(entries):
    """The current context by nest: the innermost open one, or (main, nul)."""
    return (nest([], entries) or [MAIN_CTX])[-1]


class TestLastEventCurrCtx:
    def test_curr_ctx_cases_on_golden_prefixes(self):
        t = golden_m1()
        assert current(t.entries[:1]) == MAIN_CTX
        # up to and including pushEv((m,1))
        push_m1 = next(k for k, e in enumerate(t.entries)
                       if isinstance(e, PushEv) and e.ctx == Ctx("m", 1))
        assert nest([], t.entries[:push_m1 + 2]) == [Ctx("m", 0), Ctx("m", 1)]
        assert nest([], t.entries) == []

    def test_curr_ctx_matches_stack_oracle(self):
        rng = random.Random(23)
        traces = [golden_m1()] + [run(random_terminating_program(rng)) for _ in range(30)]
        for t in traces:
            for hi in range(1, len(t.entries) + 1):
                prefix = Trace(t.entries[:hi])
                assert current(prefix.entries) == curr_ctx_stack(prefix)

    def test_pop_with_nothing_open_closes_nothing(self):
        ctxs = nest([], [PopEv(Ctx("m", 0)), PushEv(Ctx("q", 1))])
        assert ctxs == [Ctx("q", 1)]


class TestAdequacy:
    def test_golden_adequate_both_modes(self):
        t = golden_m1()
        assert is_adequate(t, strict=True)
        assert is_adequate(t, strict=False)

    def test_singleton_adequate(self):
        assert is_adequate(singleton(s(x=0)))

    def test_duplicate_call_id_clause2(self):
        sigma = s(x=0)
        t = Trace([sigma, CallEv("m", 1, 0), sigma, PushEv(Ctx("m", 0)), sigma,
                   CallEv("m", 0, 0), sigma])
        verdict = is_adequate(t, strict=False)
        assert not verdict and verdict.clause == "2"

    def test_two_variable_update_clause1(self):
        sigma = s(x=0)
        t = Trace([sigma, sigma.set("x", 1),
                   sigma.set("x", 1).set("y", 2).set("z", 3)])
        verdict = is_adequate(t, strict=False)
        assert not verdict and verdict.clause == "1"

    def test_push_without_call_clause4(self):
        sigma = s(x=0)
        t = Trace([sigma, PushEv(Ctx("m", 0)), sigma])
        verdict = is_adequate(t, strict=False)
        assert not verdict and verdict.clause == "4"

    def test_pop_in_wrong_context_clause5(self):
        t = golden_m1()
        entries = list(t.entries)
        for k, e in enumerate(entries):
            if isinstance(e, PopEv) and e.ctx == Ctx("m", 1):
                entries[k] = PopEv(Ctx("m", 0))
        verdict = is_adequate(Trace(entries), strict=False)
        assert not verdict and verdict.clause == "5"

    def test_update_after_call_strict_vs_lenient(self):
        # the literal clauses admit an update step right after callEv
        sigma = s(x=0)
        t = Trace([sigma, CallEv("m", 1, 0), sigma, sigma.set("x", 5)])
        assert is_adequate(t, strict=False)
        verdict = is_adequate(t, strict=True)
        assert not verdict and verdict.clause == "strict"

    def test_event_after_call_rejected_both(self):
        sigma = s(x=0)
        t = Trace([sigma, CallEv("m", 1, 0), sigma, RetEv(0), sigma])
        assert not is_adequate(t, strict=False)
        assert not is_adequate(t, strict=True)

    def test_ret_not_followed_by_pop(self):
        sigma = s(x=0)
        t = Trace([sigma, CallEv("m", 1, 0), sigma, PushEv(Ctx("m", 0)), sigma,
                   RetEv(0), sigma, sigma.set("x", 3), sigma.set("x", 4)])
        # lenient admits trailing update steps; strict demands the popEv
        assert is_adequate(t, strict=False)
        verdict = is_adequate(t, strict=True)
        assert not verdict and verdict.clause == "strict"

    def test_empty_trace_precondition(self):
        with pytest.raises(EmptyTraceError):
            is_adequate(Trace())


class TestSchemas:
    """Event shapes of traces, written as formulas and checked by member."""

    def test_m0_schema(self):
        prog = parse_program(
            "m(k) { r; if (k != 0) { r = m(k - 1); r = r + 1 }; return r }\n"
            "main { x; x = m(0) }")
        t = run(prog)
        # call and push of m(0), an event-free body, then its return and
        # pop, then anything
        schema = parse_formula("startEv(m, 0, 0) ~m~ finishEv(m, 0, 0) ** psi()")
        assert member(t, schema)
        assert not member(t, parse_formula("startEv(m, 1, 0) ~m~ finishEv(m, 0, 0) ** psi()"))

    def test_singleton_matches_empty_gap(self):
        assert member(singleton(s(x=0)), psi())

    def test_push_excluded(self):
        assert not member(golden_m1(), psi("m"))

    def test_gap_respects_procedure_restriction(self):
        sigma = s(x=0)
        t = event_trace(sigma, CallEv("q", 1, 0))
        assert member(t, psi("m"))
        assert not member(t, psi("q"))


class TestJson:
    def test_roundtrip_bit_exact(self):
        t = run(running_program())
        text = dump_trace(t)
        again = load_trace(text)
        assert again == t
        assert dump_trace(again) == text

    def test_one_entry_per_line(self):
        t = run(running_program())
        text = dump_trace(t)
        assert len(text.splitlines()) == len(t) + 2
        assert load_trace(text) == t

    def test_res_serialization(self):
        t = golden_m1()
        text = dump_trace(t)
        assert '"res0": 1' in text and '"res1": 0' in text
