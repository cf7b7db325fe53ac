"""Trace model: chop, concat, event traces, contexts, adequacy, gaps, JSON."""

import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (V2_HEADER, ChopUndefined, DictState, chop, concat,
                     curr_ctx_stack, dump_trace_oracle, dump_trace_v2_oracle,
                     eval_expr_oracle, eval_expr_reference, event_trace,
                     golden_m0, golden_m1, is_set_oracle,
                     load_trace_oracle, m_source, mutate_trace, parse_formula,
                     random_linear_expr, random_terminating_program,
                     running_program, step_diff_oracle)
from tracelet import traces
from tracelet.interp import run
from tracelet.lang import (Binary, BoolLit, Fresh, IntLit, ResVar, Unary, Var,
                           parse_program)
from tracelet.logic import member, psi
from tracelet.traces import (CallEv, Ctx, EmptyTraceError,
                             MAIN_CTX, PopEv, PushEv, RetEv, State, Trace,
                             TraceError, UndefinedVariable, dump_trace,
                             eval_expr, is_adequate, is_set,
                             is_state, load_trace, nest, singleton)


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

    def test_eval_of_a_fresh_term_refused(self):
        with pytest.raises(TraceError, match="cannot evaluate"):
            eval_expr(s(i=0), Fresh(Var("i")))

    def test_empty_trace_has_no_last_state(self):
        with pytest.raises(EmptyTraceError):
            Trace().last()
        assert repr(singleton(s(x=0))) == "Trace([x=0])"

    def test_eval_literal(self):
        assert eval_expr(s(), IntLit(7)) == 7

    def test_eval_agrees_with_oracle(self):
        rng = random.Random(7)
        for _ in range(1000):
            st = State({n: rng.randint(-9, 9) for n in "abc"})
            e = random_linear_expr(rng, ["a", "b", "c"], depth=3)
            assert eval_expr(st, e) == eval_expr_oracle(st, e)

    def test_eval_agrees_with_reference_evaluator(self):
        # u is never bound and n only in env: && and || must not evaluate
        # their right operand once the left one decides
        rng = random.Random(8)
        names = ["a", "b", "u", "n"]

        def term(depth):
            if rng.random() < 0.15:
                return ResVar(IntLit(rng.randint(0, 1)))
            e = random_linear_expr(rng, names, depth)
            return Unary("-", e) if rng.random() < 0.1 else e

        def cond(depth):
            roll = rng.random()
            if depth == 0 or roll < 0.4:
                return Binary(rng.choice(["==", "!=", "<", "<=", ">", ">="]), term(1), term(1))
            if roll < 0.5:
                return Unary("!", cond(depth - 1))
            if roll < 0.55:
                return BoolLit(rng.random() < 0.5)
            return Binary(rng.choice(["&&", "||"]), cond(depth - 1), cond(depth - 1))

        outcomes = set()
        for _ in range(3000):
            st = State({"a": rng.randint(-2, 2), "b": rng.randint(-2, 2), "res0": rng.randint(-2, 2)})
            env = {"n": rng.randint(-2, 2)} if rng.random() < 0.5 else None
            e = cond(3) if rng.random() < 0.7 else term(3)
            results = []
            for evaluate in (eval_expr, eval_expr_reference):
                try:
                    results.append(evaluate(st, e, env))
                except TraceError as err:
                    results.append((type(err), str(err)))
            assert results[0] == results[1] and type(results[0]) is type(results[1]), e
            outcomes.add(type(results[0]))
        assert outcomes == {bool, int, tuple}

    def test_random_update_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            st = State({n: rng.randint(-5, 5) for n in "pq"})
            name = rng.choice("pqr")
            v = rng.randint(-100, 100)
            assert st.set(name, v).get(name) == v


_POOL = [f"v{k:02d}" for k in range(32)]
_VALUES = st.integers(0, 2) | st.sampled_from([-1, 2 ** 70, None])


@st.composite
def _state_families(draw):
    """The same set calls made on State and on the dict-copy oracle, from
    the same bindings: (states, oracle states, sets), where sets[k - 1] is
    (parent index, name, value) of state k.  A parent is mostly the newest
    state, so chains pass the overlay's bound, and otherwise any earlier
    one, so they branch."""
    init = {name: draw(_VALUES) for name in _POOL[:draw(st.integers(0, len(_POOL)))]}
    new, old, sets = [State(init)], [DictState(init)], []
    for _ in range(draw(st.integers(0, 60))):
        parent = len(new) - 1 if draw(st.integers(0, 3)) else \
            draw(st.integers(0, len(new) - 1))
        name, value = draw(st.sampled_from(_POOL)), draw(_VALUES)
        new.append(new[parent].set(name, value))
        old.append(old[parent].set(name, value))
        sets.append((parent, name, value))
    return new, old, sets


def _lookup(state, name):
    try:
        return state.get(name)
    except UndefinedVariable:
        return UndefinedVariable


class TestStateOracle:
    """traces.State (a shared base plus an overlay) against the dict-copy
    state it replaced."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(families=_state_families(), data=st.data())
    def test_agrees_with_dict_copy_state(self, families, data):
        new, old, sets = families
        for a, b in zip(new, old):
            assert list(a.bindings().items()) == list(b.bindings().items())
            assert repr(a) == repr(b) and hash(a) == hash(b)
            for name in _POOL[::4]:
                assert (name in a) == (name in b)
                assert _lookup(a, name) == _lookup(b, name)
        n = len(new)
        pairs = [(k - 1, k) for k in range(1, n)] + [(p, k + 1) for k, (p, _, _) in
                                                     enumerate(sets)]
        pairs += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                    max_size=20))
        for i, j in pairs:
            assert (new[i] == new[j]) == (old[i] == old[j])
            # equal maps on different bases
            assert (new[i] == State(old[j].bindings())) == (old[i] == old[j])
            diff, removed = traces._step_diff(new[i], new[j])
            want_diff, want_removed = step_diff_oracle(old[i], old[j])
            assert (set(diff), set(removed)) == (set(want_diff), set(want_removed))
            name = data.draw(st.sampled_from(_POOL))
            checks = [(name, data.draw(_VALUES))]
            if j > 0:
                _, set_name, value = sets[j - 1]
                checks += [(set_name, value), (set_name, 3)]
            for name, value in checks:
                assert is_set(new[j], new[i], name, value) == \
                    is_set_oracle(old[j], old[i], name, value)
        # consecutive states made by set and by branching: both entry kinds
        assert dump_trace(Trace(new)) == \
            dump_trace_v2_oracle(Trace([State(b.bindings()) for b in old]))

    def test_set_shares_the_base_and_bounds_the_overlay(self):
        state = State({f"v{k}": k for k in range(100)})
        bases = {id(state._base)}
        for k in range(300):
            parent = state
            state = state.set(f"v{k % 7}" if k % 3 else f"w{k}", k)
            assert len(state._over) <= math.isqrt(len(state._base)) + 1
            if state._base is not parent._base:
                assert not state._over and state.bindings() == {**parent.bindings(),
                                                                  state._name: k}
            bases.add(id(state._base))
        assert 10 < len(bases) < 40


def test_states_of_a_deep_run_share_their_bindings():
    """The states of m(800)'s run hold up to 1 600 bindings each; copied
    whole by every set, their dicts held 3.2 million entries in all."""
    t = m_trace(800)
    held = {id(d): len(d) for e in t.entries if is_state(e)
            for d in (getattr(e, slot) for slot in State.__slots__) if type(d) is dict}
    assert sum(held.values()) <= 200_000


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
        assert chop(singleton(t.entries[0]), t) == t

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
        assert t.entries[0] == t.last() == sigma

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

    def test_pop_after_another_update_clause5(self):
        # res0 already holds the value, but x changes before the popEv
        sigma = s(x=0, res0=5)
        t = Trace([sigma, CallEv("m", 1, 0), sigma, PushEv(Ctx("m", 0)), sigma,
                   RetEv(5), sigma, sigma.set("x", 1), PopEv(Ctx("m", 0)),
                   sigma.set("x", 1)])
        for trace in (t, _rebuilt(t)):
            verdict = is_adequate(trace, strict=False)
            assert not verdict and verdict.clause == "5"

    def test_empty_trace_precondition(self):
        with pytest.raises(EmptyTraceError):
            is_adequate(Trace())

    def test_shapes_a_trace_file_may_hold(self):
        sigma, done = s(x=0), s(x=0, res0=5)
        starts_with_event = Trace([CallEv("m", 1, 0), sigma])
        verdict = is_adequate(starts_with_event)
        assert not verdict and verdict.clause == "shape"
        # strict: once the retEv's res update is made, only its popEv may follow
        late_pop = Trace([sigma, CallEv("m", 1, 0), sigma, PushEv(Ctx("m", 0)), sigma,
                          RetEv(5), sigma, done, done.set("x", 1)])
        verdict = is_adequate(late_pop, strict=True)
        assert not verdict and verdict.reason == "only popEv may follow a retEv's res update"
        # the res value already in place: the popEv follows the retEv directly
        in_place = Trace([done, CallEv("m", 1, 0), done, PushEv(Ctx("m", 0)), done,
                          RetEv(5), done, PopEv(Ctx("m", 0)), done])
        assert is_adequate(in_place, strict=False)
        unopened = Trace([sigma, RetEv(0), sigma, PopEv(Ctx("m", 0)), sigma])
        verdict = is_adequate(unopened, strict=False)
        assert not verdict and verdict.reason == "popEv with malformed nesting"


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
        # the array's brackets and the header take a line each
        t = run(running_program())
        text = dump_trace(t)
        lines = text.splitlines()
        assert len(lines) == len(t) + 3
        assert json.loads(lines[1].rstrip(",")) == V2_HEADER
        assert load_trace(text) == t

    def test_res_serialization(self):
        t = golden_m1()
        text = dump_trace(t)
        assert '"res0": 1' in text and '"res1": 0' in text

    def test_state_entries_hold_changes(self):
        sigma = s(x=0, y=1)
        t = Trace([sigma, CallEv("m", 1, 0), sigma, sigma.set("x", 2), State({"x": 2, "z": 3})])
        assert json.loads(dump_trace(t))[1:] == [
            {"state": {"x": 0, "y": 1}},
            {"event": {"kind": "callEv", "proc": "m", "arg": 1, "id": 0}},
            {"state": {}},
            {"state": {"x": 2}},
            {"state": {"z": 3}, "unset": ["y"]}]

    def test_m400_file_under_a_megabyte(self):
        assert len(dump_trace(m_trace(400)).encode()) < 10 ** 6


# ---------------------------------------------------------------------------
# dump_trace / load_trace against the per-entry writers and whole-text reader
# ---------------------------------------------------------------------------

def m_trace(n):
    return run(parse_program(m_source(n)))


def while_trace(k):
    return run(parse_program(
        f"main {{ x; y; x = {k}; while (x > 0) {{ y = y + x; x = x - 1 }} }}"))


_NAMES = st.text(alphabet='ab"\\, :}é\n\x7f\u2603', min_size=1, max_size=4)
_VALUES = st.integers(-2 ** 70, 2 ** 70)


@st.composite
def hand_built_traces(draw):
    """States made by set, built afresh or repeated, with events between."""
    state = State(draw(st.dictionaries(_NAMES, _VALUES, max_size=4)))
    entries = [state]
    made = [state]
    for op in draw(st.lists(st.sampled_from(["set", "set-older", "fresh", "same", "event"]),
                            max_size=12)):
        if op == "set":
            state = state.set(draw(_NAMES), draw(_VALUES))
        elif op == "set-older":
            state = draw(st.sampled_from(made)).set(draw(_NAMES), draw(_VALUES))
        elif op == "fresh":
            state = State(draw(st.dictionaries(_NAMES, _VALUES, max_size=4)))
        elif op == "event":
            entries.append(draw(st.sampled_from(
                [CallEv("m", 1, 0), RetEv(-3), PushEv(Ctx("m", 0)), PopEv(Ctx("m", 0))])))
        entries.append(state)
        made.append(state)
    return Trace(entries)


_TRACES = st.one_of(
    st.integers(0, 10 ** 6).map(lambda seed: run(random_terminating_program(random.Random(seed)))),
    st.integers(0, 30).map(m_trace),
    st.integers(0, 40).map(while_trace),
    hand_built_traces(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=_TRACES)
def test_dump_matches_per_entry_writer(t):
    assert dump_trace(t) == dump_trace_v2_oracle(t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=_TRACES)
def test_v2_roundtrip_bit_exact(t):
    text = dump_trace(t)
    again = load_trace(text)
    assert again.entries == t.entries
    assert dump_trace(again) == text


def test_dump_writes_non_integer_values_as_json():
    t = Trace([State({"b": True}), State({"b": True}).set("n", None)])
    assert dump_trace(t) == dump_trace_v2_oracle(t)
    # a state that set made from the one before it is written as its one change
    wide = State({"b": True, "w": 4, "x": 1, "y": 2, "z": 3})
    t = Trace([wide, wide.set("c", False)])
    assert dump_trace(t) == dump_trace_v2_oracle(t)
    assert dump_trace(t).endswith('{"state": {"c": false}}\n]\n')
    with pytest.raises(TraceError, match="integers"):
        load_trace(dump_trace(t))


def _relaid(data, layout):
    """The same entries as JSON text in another layout."""
    if layout == "canonical":
        return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in data) + "\n]\n"
    if layout == "spaced":
        return " \n\t" + json.dumps(data, separators=(" ,\r\n ", " :  ")) + "\n \n"
    return json.dumps(data, indent=int(layout))


def _same_outcome(text):
    """load_trace(text) after checking it against the whole-text reader."""
    try:
        want = load_trace_oracle(text)
    except TraceError:
        want = None
    try:
        got = load_trace(text)
    except TraceError:
        got = None
    assert (got is None) == (want is None), text
    if want is not None:
        assert got.entries == want.entries
        assert dump_trace(got) == dump_trace_v2_oracle(want)
    return got


_WRITERS = {"v1": dump_trace_oracle, "v2": dump_trace}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=_TRACES, version=st.sampled_from(sorted(_WRITERS)), data=st.data())
def test_load_matches_whole_text_reader(t, version, data):
    entries = json.loads(_WRITERS[version](t))
    # a repeated v2 entry is the same change again, unless it is the
    # header or removes a name; the last first, so each index still names
    # the entry it was drawn for
    dups = [k for k, e in enumerate(entries)
            if version == "v1" or (k > 0 and "unset" not in e)]
    for k in sorted(data.draw(st.lists(st.sampled_from(dups), max_size=3)), reverse=True):
        entries.insert(k, entries[k])
    layout = data.draw(st.sampled_from(["canonical", "spaced", "0", "1", "2"]))
    assert _same_outcome(_relaid(entries, layout)) is not None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(t=_TRACES, version=st.sampled_from(sorted(_WRITERS)), data=st.data())
def test_mutated_text_fails_exactly_when_oracle_does(t, version, data):
    entries = json.loads(_WRITERS[version](t))
    text = _relaid(entries, data.draw(st.sampled_from(["canonical", "canonical", "1"])))
    edit = data.draw(st.sampled_from(["truncate", "insert", "delete", "replace",
                                      "separator", "bracket"]))
    # two edits in three fall on a structural character or an entry's end
    marks = [i for i, c in enumerate(text) if c in '{}[],:"']
    ends = [i for i in marks if text[i] == "}" and text[i + 1] in ",\n"]
    k = data.draw(st.sampled_from(ends) | st.sampled_from(marks) |
                  st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from('0-9 ,:"\\{}[]x\né'))
    if edit == "separator":  # the comma between two entries becomes another character
        k = data.draw(st.sampled_from([i + 1 for i in ends if text[i + 1] == ","] or [k]))
        edit, char = "replace", data.draw(st.sampled_from("}]{[:x "))
    if edit == "truncate":
        text = text[:k]
    elif edit == "insert":
        text = text[:k] + char + text[k:]
    elif edit == "delete":
        text = text[:k] + text[k + 1:]
    elif edit == "replace":
        text = text[:k] + char + text[k + 1:]
    else:
        text = text.rstrip() + "]"
    _same_outcome(text)


_HEADER_TEXT = json.dumps(V2_HEADER)


@pytest.mark.parametrize("text", [
    "[" + " " * 300 + "]",
    "[]" + " " * 300 + '"state"',
    " [ " + '{"state": {"x": 1}} , ' * 30 + '{"state": {"x": 1}}' + " ] ",
    '[{"state": {"x": 1}}' + " " * 300 + "]]",
    '[{"state": {"x": 1}}, {"state": {"x": 2}, "event": 0}' + " " * 300 + "]",
    '\ufeff[{"state": {}}]',
    '{"state": {}}' + " " * 300,
    "[" * 100_000,
    f"[{_HEADER_TEXT}]",
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": {{}}, "unset": ["x"]}}, {{"state": {{}}}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}, "unset": ["x"]}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": {{}}, "unset": "x"}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": {{}}, "unset": ["x", "x"]}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": {{}}, "unset": null}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": []}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": {{"x": 1.5}}}}]',
    f'[{_HEADER_TEXT}, {{"state": {{"x": 1}}}}, {{"state": {{"x": true}}}}]',
    '[{"format": "tracelet-trace", "version": 3}, {"state": {}}]',
    '[{"format": "tracelet-trace", "version": 2.0}, {"state": {}}]',
    '[{"format": "other", "version": 2}, {"state": {}}]',
    f'[{{"state": {{}}}}, {_HEADER_TEXT}]',
    f'[{_HEADER_TEXT}, {_HEADER_TEXT}, {{"state": {{}}}}]',
    # the walk over the array's elements: separators and the ends
    '[{"state": {"x": 1}},]',
    f'[\n{_HEADER_TEXT},\n{{"state": {{"x": 1}}}},\n]\n',
    '[,{"state": {"x": 1}}]',
    f'[\n,{_HEADER_TEXT},\n{{"state": {{"x": 1}}}}\n]\n',
    '[{"state": {"x": 1}} {"state": {"x": 1}}]',
    f'[\n{_HEADER_TEXT},\n{{"state": {{"x": 1}}}}\n{{"state": {{}}}}\n]\n',
    '[\t{"state": {"x": 1}}\r,\t\r{"state": {"x": 1}}\r\n]\t\r',
    f'[{_HEADER_TEXT}\t,\r\n\t{{"state": {{"x": 1}}}},\r{{"state": {{"x": 2}}}}]',
    "[ ]",
    f"[\n{_HEADER_TEXT}\n]\n",
    f'[\n{_HEADER_TEXT},\n{{"state": {{"x": {"9" * 80}}}}},\n{{"state": {{"x": -{"8" * 80}}}}}\n]\n',
], ids=["long-empty", "extra-after-empty", "repeats", "doubled-bracket",
        "state-and-event", "bom", "not-an-array", "nested-too-deep",
        "v2-header-only", "v2-unset", "v2-first-state-unsets", "v2-unset-not-a-list",
        "v2-unset-twice", "v2-unset-null", "v2-state-not-an-object", "v2-float",
        "v2-bool", "v2-version-3", "v2-version-float", "v2-other-format",
        "v2-header-not-first", "v2-two-headers",
        "trailing-comma", "v2-trailing-comma", "leading-comma", "v2-leading-comma",
        "no-comma", "v2-no-comma", "tab-cr", "v2-tab-cr", "spaced-empty",
        "v2-header-alone", "v2-80-digits"])
def test_load_edge_texts_match_whole_text_reader(text):
    _same_outcome(text)


def test_syntax_fault_reported_before_an_earlier_entry_fault():
    """The walk meets the float first, but a text that is not JSON is
    reported as such, as when the whole text is read before any entry."""
    text = f'[\n{_HEADER_TEXT},\n{{"state": {{"x": 1.5}}}},\n{{"state": ]\n'
    with pytest.raises(TraceError, match="malformed trace file: Expecting value: line 4"):
        load_trace(text)
    with pytest.raises(TraceError, match="state values must be integers"):
        load_trace(text.replace("]", "{}}]"))


def test_load_peak_near_what_the_trace_keeps():
    """load_trace decodes one array element at a time, so its peak is the
    loaded trace plus about one entry.  A reader that decodes the whole
    text first peaks at about twice what the trace keeps."""
    text = dump_trace(while_trace(8000))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_trace(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) > 16_000
    assert peak - before <= 1.25 * (kept - before)


def test_load_shares_event_flanks():
    t = m_trace(5)
    loaded = load_trace(dump_trace(t)).entries
    for p, entry in enumerate(loaded):
        if not is_state(entry):
            assert loaded[p - 1] is loaded[p + 1]
    distinct = {id(e) for e in loaded if is_state(e)}
    assert len(distinct) <= len({id(e) for e in t.entries if is_state(e)})


def _assert_made_by_set(loaded):
    """Every state after the first repeats the previous state entry or is
    made from it by one set, as adequacy's O(1) step check needs."""
    states = [e for e in loaded.entries if is_state(e)]
    for prev, state in zip(states, states[1:]):
        assert state is prev or state._parent is prev


def _set_chain():
    # set at the front, in the middle and at the end of the sorted names,
    # over an existing name and to a value json reads as a long integer
    state = State({f"v{k:02d}": k for k in range(40)} | {"m": 0})
    entries = [state]
    for name, value in [("z", 1), ("a", 2), ("m", 3), ("q", -4), ("zz", 2 ** 70)]:
        state = state.set(name, value)
        entries.append(state)
    return Trace(entries)


@pytest.mark.parametrize("make", [lambda: m_trace(200), _set_chain],
                         ids=["m(200)", "set-front-middle-end"])
def test_load_makes_states_by_set(make):
    t = make()
    text = dump_trace(t)
    loaded = load_trace(text)
    assert loaded == t
    _assert_made_by_set(loaded)
    assert dump_trace(loaded) == text


def test_indented_v2_text_loads_by_set():
    """Another layout of a v2 file reads the same, by set as well."""
    t = m_trace(20)
    loaded = load_trace(json.dumps(json.loads(dump_trace(t)), indent=1))
    assert loaded == t
    _assert_made_by_set(loaded)


def test_dump_work_bounded_by_distinct_states(monkeypatch):
    """json encodes the first state; every later one is one binding or none."""
    t = m_trace(200)
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(traces.json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    text = dump_trace(t)
    monkeypatch.undo()
    assert len(calls) == 1
    assert text == dump_trace_v2_oracle(t)
    state_lines = [json.loads(line.rstrip(",")) for line in text.splitlines()
                   if line.startswith('{"state"')]
    assert all(len(obj["state"]) <= 1 and "unset" not in obj for obj in state_lines[1:])


def _rebuilt(t):
    """The same trace with every state built afresh: no shared objects and
    no record of the state it was set from."""
    return Trace([State(e.bindings()) if is_state(e) else e for e in t.entries])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=_TRACES | st.sampled_from([golden_m0(), golden_m1()]), data=st.data())
def test_adequacy_same_without_set_records(t, data):
    """The O(1) step check on states made by set decides as the full
    comparison does, on valid, mutated and byte-edited traces."""
    edit = data.draw(st.sampled_from(["none", "mutate", "bytes"]))
    if edit == "mutate":
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        for _ in range(data.draw(st.integers(1, 3))):
            t = mutate_trace(rng, t)
    elif edit == "bytes":
        text = dump_trace(t)
        k = data.draw(st.integers(0, len(text) - 1))
        text = text[:k] + data.draw(st.sampled_from("0123456789-")) + text[k + 1:]
        try:
            t = load_trace(text)
        except TraceError:
            pass
    if t.is_empty:
        return
    for strict in (True, False):
        assert is_adequate(t, strict) == is_adequate(_rebuilt(t), strict)

