"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles
(approximant unfolding, explicit stacks, brute-force enumeration) so the
implementation under test is never checked against itself.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import re
import sys
from itertools import chain, product
from math import gcd
from pathlib import Path

from tracelet import cli, fo, lang
from tracelet.calculus import Judgment, PredAssert, PredGoal, RuleError
from tracelet.interp import DEFAULT_FUEL, FuelExhausted, Machine, RunError
from tracelet.lang import (ARITH_OPS, CMP_OPS, Assign, Binary, BoolLit,
                           CallAssign, Fresh, If, IntLit, Program,
                           ProcDecl, ResVar, Return, Scope, Seq, Skip,
                           TokenStream, Unary, Var, While,
                           fold_expr, lookup, parse_program, pretty_expr,
                           record, seq, subst_vars, tokenize)
from tracelet.logic import (And, Chop, Concat, ContractSpec, FinishEvF, Gap,
                            LogicError, Mu, MuApp, NoEv, Or, RecApp, StartEvF,
                            StatePred, make_contract, map_terms, member,
                            pretty_formula, _parse_formula_or)
from tracelet.traces import (CallEv, Ctx, EmptyTraceError,
                             PopEv, PushEv, RetEv, State, Trace,
                             TraceError, UndefinedVariable, entry_from_json,
                             eval_expr, is_state,
                             nest, res_name, ret_owners, singleton)
from tracelet.updates import (CallUpd, Elem, FinishUpd, StartUpd, pretty_update,
                              update_reads, update_writes)

RUNNING_SRC = """\
// identity computed by k recursive calls
m(k) {
  r;
  if (k != 0) { r = m(k - 1); r = r + 1 };
  return r
}

main { x; x = m(1) }
"""

# variant with an explicit base-case assignment; its m(0) run shows the
# double state step after the context switch
M0_SRC = """\
m(k) {
  r;
  if (k == 0) { r = 0 };
  if (k != 0) { r = m(k - 1); r = r + 1 };
  return r
}

main { x; x = m(0) }
"""


def m_source(n: int) -> str:
    """The running example with main calling m(n)."""
    return RUNNING_SRC.replace("x = m(1)", f"x = m({n})")


M2_SRC = m_source(2)

MUTANT_SRC = RUNNING_SRC.replace("r = r + 1", "r = r + 2")


def running_program():
    return parse_program(RUNNING_SRC)


def spec_m() -> ContractSpec:
    return ContractSpec("m",
                        Binary("==", Var("n"), IntLit(0)),
                        Binary(">", Var("n"), IntLit(0)),
                        Var("n"),
                        Binary("-", Var("n"), IntLit(1)))


def contract_m() -> Mu:
    return make_contract(spec_m())


# ---------------------------------------------------------------------------
# Golden traces, constructed from the published step sequences
# ---------------------------------------------------------------------------

def golden_m1() -> Trace:
    """x = m(1) from x=0: the visualization's entry sequence."""
    s0 = State({"x": 0})
    s1 = s0.set("r#1", 0)
    s2 = s1.set("r#2", 0)
    s3 = s2.set("res1", 0)
    s4 = s3.set("r#1", 0)   # equals s3: the fresh local is already 0
    s5 = s4.set("r#1", 1)
    s6 = s5.set("res0", 1)
    s7 = s6.set("x", 1)
    return Trace([
        s0, CallEv("m", 1, 0), s0, PushEv(Ctx("m", 0)), s0,
        s1, CallEv("m", 0, 1), s1, PushEv(Ctx("m", 1)), s1,
        s2, RetEv(0), s2,
        s3, PopEv(Ctx("m", 1)), s3,
        s4, s5, RetEv(1), s5,
        s6, PopEv(Ctx("m", 0)), s6,
        s7,
    ])


def golden_m0() -> Trace:
    """x = m(0) for the explicit-base variant: two equal states mid-call."""
    s0 = State({"x": 0})
    sp = s0.set("r#1", 0)
    sr = sp.set("res0", 0)
    sx = sr.set("x", 0)  # equals sr: x was already 0
    return Trace([
        s0, CallEv("m", 0, 0), s0, PushEv(Ctx("m", 0)), s0,
        sp, sp, RetEv(0), sp,
        sr, PopEv(Ctx("m", 0)), sr,
        sx,
    ])


M2_EVENT_SKELETON = [
    ("callEv", 0), ("pushEv", 0), ("callEv", 1), ("pushEv", 1),
    ("callEv", 2), ("pushEv", 2), ("retEv", None), ("popEv", 2),
    ("retEv", None), ("popEv", 1), ("retEv", None), ("popEv", 0),
]


def event_skeleton(trace: Trace):
    out = []
    for e in trace.entries:
        if isinstance(e, CallEv):
            out.append(("callEv", e.call_id))
        elif isinstance(e, RetEv):
            out.append(("retEv", None))
        elif isinstance(e, PushEv):
            out.append(("pushEv", e.ctx.call_id))
        elif isinstance(e, PopEv):
            out.append(("popEv", e.ctx.call_id))
    return out


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

# the context of main, whose call id is the distinguished 'nul'
MAIN_CTX = Ctx("main", None)


def curr_ctx_stack(trace: Trace):
    """Current context by an explicit push/pop stack scan."""
    stack = []
    for e in trace.entries:
        if isinstance(e, PushEv):
            stack.append(e.ctx)
        elif isinstance(e, PopEv):
            if not stack:
                raise ValueError("pop without push")
            stack.pop()
    return stack[-1] if stack else MAIN_CTX


class DictState:
    """The dict-copy state that ``traces.State`` replaced: every ``set``
    copies the whole binding map.  Kept as it was, as an oracle.

    ``_src`` is ``(parent, name)`` for a state made by ``parent.set(name,
    ...)`` and None otherwise; ``dump_trace`` reads it, equality and
    hashing ignore it.
    """

    __slots__ = ("_b", "_hash", "_src")

    def __init__(self, bindings=None):
        self._b = dict(bindings) if bindings else {}
        self._hash = None
        self._src = None

    @classmethod
    def _adopt(cls, bindings: dict, src=None) -> "DictState":
        """A state that takes ownership of bindings, without a copy."""
        state = cls.__new__(cls)
        state._b = bindings
        state._hash = None
        state._src = src
        return state

    def set(self, name: str, value: int) -> "DictState":
        new = dict(self._b)
        new[name] = value
        return DictState._adopt(new, (self, name))

    def get(self, name: str) -> int:
        try:
            return self._b[name]
        except KeyError:
            raise UndefinedVariable(f"variable {name!r} is unbound") from None

    def __contains__(self, name: str) -> bool:
        return name in self._b

    def bindings(self) -> dict:
        return dict(self._b)

    def __eq__(self, other):
        return self is other or (isinstance(other, DictState) and self._b == other._b)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._b.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._b.items()))
        return f"[{inner}]"


def step_diff_oracle(a: DictState, b: DictState) -> tuple:
    """(names whose binding differs, names b lacks) from a to b.

    O(1) when b was made by ``a.set``: its record names the one binding
    that can differ, and nothing is removed.  Otherwise both maps are
    compared.
    """
    if b._src is not None and b._src[0] is a:
        name = b._src[1]
        same = name in a._b and a._b[name] == b._b[name]
        return (set() if same else {name}), ()
    return {k for k, _ in a._b.items() ^ b._b.items()}, a._b.keys() - b._b.keys()


def is_set_oracle(b: DictState, a: DictState, name: str, value) -> bool:
    """b == a.set(name, value), in O(1) when b was made by ``a.set``."""
    if b._src is None or b._src[0] is not a:
        return b == a.set(name, value)
    changed = b._src[1]
    if name not in b._b or b._b[name] != value:
        return False
    # the binding b changed must be a's own unless it is name itself
    return changed == name or (changed in a._b and a._b[changed] == b._b[changed])


def eval_expr_oracle(state: State, e):
    """Direct recursive evaluator, written independently."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):
        return state.get(e.name)
    if isinstance(e, Unary):
        v = eval_expr_oracle(state, e.operand)
        return -v if e.op == "-" else not v
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "==": lambda a, b: a == b,
           "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
           "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
           ">=": lambda a, b: a >= b, "&&": lambda a, b: bool(a) and bool(b),
           "||": lambda a, b: bool(a) or bool(b)}
    return ops[e.op](eval_expr_oracle(state, e.left), eval_expr_oracle(state, e.right))


def psi_fixed_point(*procs: str) -> Mu:
    """psi as the paper writes it: mu G. noev(procs) \\/ noev(procs) .. G."""
    atom = NoEv(frozenset(procs))
    return Mu("G", (), Or(atom, Concat(atom, RecApp("G", ()))))


def member_approx(trace: Trace, formula, env=None, k=None) -> bool:
    """Brute-force split enumeration with approximant-bounded unfolding.

    Fixed points are replaced by their k-th approximation; k defaults to
    a bound sufficient for any recursion that consumes at least one trace
    entry per unfolding, which covers the contract corpus.  A ``Gap`` is
    read as the fixed point that defines it (``psi_fixed_point``).
    """
    entries = trace.entries
    owners = ret_owners(trace)
    n = len(entries)
    if k is None:
        k = 2 * n + 8
    env = dict(env or {})
    memo = {}
    gaps = {}  # exclusion set -> its fixed point, kept alive for the memo's ids
    # a fresh(...) term evaluates to the marker `fresh`, which equals no value
    fresh, no_state = object(), State()

    def term(t, benv):
        return fresh if isinstance(t, Fresh) else eval_expr(no_state, t, benv)

    def ids_in(lo, hi):
        ids = set()
        for p in range(lo, hi):
            e = entries[p]
            if isinstance(e, CallEv):
                ids.add(e.call_id)
            elif isinstance(e, (PushEv, PopEv)) and e.ctx.call_id is not None:
                ids.add(e.ctx.call_id)
        return sorted(ids)

    def resolve(args, benv, lo, hi):
        vals = [term(a, benv) for a in args]
        slots = [i for i, v in enumerate(vals) if v is fresh]
        if not slots:
            return [tuple(vals)]
        out = []
        for combo_id in ids_in(lo, hi):
            filled = list(vals)
            for s in slots:
                filled[s] = combo_id
            out.append(tuple(filled))
        if len(slots) > 1:
            raise NotImplementedError("oracle handles one fresh slot")
        return out

    def go(f, lo, hi, benv, rho, depth):
        if hi <= lo:
            return False
        key = (id(f), tuple(sorted(benv.items())), lo, hi, depth)
        if key in memo:
            return memo[key]
        out = _go(f, lo, hi, benv, rho, depth)
        memo[key] = out
        return out

    def _go(f, lo, hi, benv, rho, depth):
        width = hi - lo
        if isinstance(f, StatePred):
            if width != 1 or not is_state(entries[lo]):
                return False
            try:
                v = eval_expr(entries[lo], f.pred, benv)
            except Exception:
                return False
            return v is True
        if isinstance(f, NoEv):
            if width != 1:
                return False
            e = entries[lo]
            if is_state(e):
                return True
            if isinstance(e, CallEv):
                return e.proc not in f.exclude
            if isinstance(e, (PushEv, PopEv)):
                return e.ctx.proc not in f.exclude
            owner = owners.get(lo)
            return owner is None or owner.proc not in f.exclude
        if isinstance(f, StartEvF):
            if width != 5:
                return False
            a, b, c, d, e = entries[lo:hi]
            ev = term(f.arg, benv)
            iv = term(f.call_id, benv)
            return (is_state(a) and a == c == e and isinstance(b, CallEv)
                    and isinstance(d, PushEv) and b.proc == f.proc
                    and b.arg == ev and b.call_id == iv
                    and d.ctx == Ctx(f.proc, iv))
        if isinstance(f, FinishEvF):
            if width != 6:
                return False
            a, b, c, d, e, g = entries[lo:hi]
            ev = term(f.arg, benv)
            iv = term(f.call_id, benv)
            return (is_state(a) and isinstance(b, RetEv) and c == a
                    and is_state(d) and isinstance(e, PopEv) and g == d
                    and b.value == ev and e.ctx == Ctx(f.proc, iv)
                    and d == a.set(res_name(iv), ev))
        if isinstance(f, And):
            return _go(f.left, lo, hi, benv, rho, depth) and \
                _go(f.right, lo, hi, benv, rho, depth)
        if isinstance(f, Or):
            return go(f.left, lo, hi, benv, rho, depth) or \
                go(f.right, lo, hi, benv, rho, depth)
        if isinstance(f, Concat):
            return any(go(f.left, lo, m, benv, rho, depth)
                       and go(f.right, m, hi, benv, rho, depth)
                       for m in range(lo + 1, hi))
        if isinstance(f, Chop):
            for m in range(lo, hi):
                if not is_state(entries[m]):
                    continue
                if go(f.left, lo, m + 1, benv, rho, depth) and \
                        go(f.right, m, hi, benv, rho, depth):
                    return True
            return False
        if isinstance(f, Gap):
            if f.exclude not in gaps:
                gaps[f.exclude] = psi_fixed_point(*f.exclude)
            f = gaps[f.exclude]
        if isinstance(f, Mu) and not f.params:
            f = MuApp(f, ())
        if isinstance(f, (MuApp, RecApp)):
            if depth <= 0:
                return False
            if isinstance(f, MuApp):
                mu = f.mu
            else:
                mu = rho[f.name]
            for argv in resolve(f.args, benv, lo, hi):
                inner = dict(benv)
                inner.update(zip(mu.params, argv))
                rho2 = dict(rho)
                rho2[mu.name] = mu
                if go(mu.body, lo, hi, inner, rho2, depth - 1):
                    return True
            return False
        raise TypeError(f"oracle cannot handle {f!r}")

    return go(formula, 0, n, env, {}, k)


# ---------------------------------------------------------------------------
# Random generators (seeded by the tests)
# ---------------------------------------------------------------------------

def random_linear_expr(rng: random.Random, names, depth=2):
    if depth == 0 or not names or rng.random() < 0.3:
        if names and rng.random() < 0.7:
            return Var(rng.choice(names))
        return IntLit(rng.randint(-3, 5))
    op = rng.choice(["+", "-", "*"])
    left = random_linear_expr(rng, names, depth - 1)
    right = random_linear_expr(rng, names, depth - 1) if op != "*" \
        else IntLit(rng.randint(-2, 3))
    return Binary(op, left, right)


def random_cond(rng: random.Random, names):
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return Binary(op, random_linear_expr(rng, names, 1),
                  random_linear_expr(rng, names, 1))


def random_terminating_program(rng: random.Random) -> Program:
    """Recursion depth is bounded by decreasing guarded self-calls."""
    n_procs = rng.randint(0, 2)
    proc_names = [f"p{k}" for k in range(n_procs)]
    procs = []
    for idx, name in enumerate(proc_names):
        local = "a"
        stmts = [Assign(Var(local), random_linear_expr(rng, [local, "v"]))]
        if rng.random() < 0.8:
            # guarded decreasing self call keeps recursion finite
            callee = name if rng.random() < 0.6 or idx == n_procs - 1 \
                else proc_names[rng.randint(idx + 1, n_procs - 1)]
            stmts.append(If(Binary(">", Var("v"), IntLit(0)),
                            Seq(CallAssign(Var(local), callee,
                                           Binary("-", Var("v"), IntLit(1))),
                                Assign(Var(local),
                                       random_linear_expr(rng, [local, "v"])))))
        if rng.random() < 0.4:
            stmts.append(If(random_cond(rng, [local, "v"]),
                            Assign(Var(local), random_linear_expr(rng, [local]))))
        body = seq(stmts + [Return(Var(local))])
        procs.append(ProcDecl(name, "v", Scope((local,), body)))

    main_stmts = []
    names = ["x", "y"]
    budget = rng.randint(2, 8)
    for _ in range(budget):
        roll = rng.random()
        if roll < 0.35 and proc_names:
            main_stmts.append(CallAssign(Var(rng.choice(names)),
                                         rng.choice(proc_names),
                                         IntLit(rng.randint(0, 4))))
        elif roll < 0.55:
            main_stmts.append(If(random_cond(rng, names),
                                 Assign(Var(rng.choice(names)),
                                        random_linear_expr(rng, names))))
        elif roll < 0.7:
            # bounded countdown loop
            counter = rng.choice(names)
            main_stmts.append(Assign(Var(counter), IntLit(rng.randint(0, 3))))
            main_stmts.append(While(Binary(">", Var(counter), IntLit(0)),
                                    Assign(Var(counter),
                                           Binary("-", Var(counter), IntLit(1)))))
        elif roll < 0.8:
            main_stmts.append(Scope(("z",),
                                    Assign(Var("z"), random_linear_expr(rng, names + ["z"]))))
        else:
            main_stmts.append(Assign(Var(rng.choice(names)),
                                     random_linear_expr(rng, names)))
    return Program(tuple(procs), ("x", "y"), seq(main_stmts) if main_stmts else Skip())


def mutate_trace(rng: random.Random, trace: Trace) -> Trace:
    """One random structural perturbation of a trace."""
    entries = list(trace.entries)
    choice = rng.randrange(6)
    idx = rng.randrange(len(entries))
    if choice == 0:
        # tweak one binding in a state
        for k in range(idx, -1, -1):
            if is_state(entries[k]):
                b = entries[k].bindings()
                if b:
                    name = rng.choice(sorted(b))
                    entries[k] = entries[k].set(name, b[name] + rng.choice([-1, 1, 7]))
                else:
                    entries[k] = entries[k].set("z", 1)
                break
    elif choice == 1:
        del entries[idx]
    elif choice == 2:
        entries.insert(idx, entries[idx])
    elif choice == 3:
        for k in range(idx, -1, -1):
            if isinstance(entries[k], CallEv):
                e = entries[k]
                entries[k] = CallEv(e.proc, e.arg + 1, e.call_id)
                break
    elif choice == 4:
        for k in range(idx, -1, -1):
            if isinstance(entries[k], RetEv):
                entries[k] = RetEv(entries[k].value + rng.choice([-1, 2]))
                break
    else:
        for k in range(idx, -1, -1):
            if isinstance(entries[k], (PushEv, PopEv)):
                e = entries[k]
                entries[k] = type(e)(Ctx(e.ctx.proc, (e.ctx.call_id or 0) + 3))
                break
    return Trace(entries)


def entry_json_oracle(e) -> dict:
    """The JSON object of one trace entry, a state with all its bindings."""
    if is_state(e):
        return {"state": e.bindings()}
    if isinstance(e, CallEv):
        return {"event": {"kind": "callEv", "proc": e.proc, "arg": e.arg, "id": e.call_id}}
    if isinstance(e, RetEv):
        return {"event": {"kind": "retEv", "val": e.value}}
    kind = "pushEv" if isinstance(e, PushEv) else "popEv"
    return {"event": {"kind": kind, "proc": e.ctx.proc, "id": e.ctx.call_id}}


def dump_trace_oracle(trace: Trace) -> str:
    """The per-entry v1 trace writer: json.dumps of every entry, keys sorted."""
    return "[\n" + ",\n".join(json.dumps(entry_json_oracle(e), sort_keys=True)
                              for e in trace.entries) + "\n]\n"


V2_HEADER = {"format": "tracelet-trace", "version": 2}


def dump_trace_v2_oracle(trace: Trace) -> str:
    """The per-entry v2 trace writer: the header, then json.dumps of every
    entry, keys sorted; a state after the first holds the bindings whose
    JSON differs from the previous state's, and "unset" the names it lacks."""
    objs = [V2_HEADER]
    prev = None
    for e in trace.entries:
        obj = entry_json_oracle(e)
        if is_state(e):
            full = obj["state"]
            if prev is not None:
                obj = {"state": {k: v for k, v in full.items()
                                 if k not in prev or json.dumps(prev[k]) != json.dumps(v)}}
                if set(prev) - set(full):
                    obj["unset"] = sorted(set(prev) - set(full))
            prev = full
        objs.append(obj)
    return "[\n" + ",\n".join(json.dumps(obj, sort_keys=True) for obj in objs) + "\n]\n"


def _v2_full_states_oracle(objs: list) -> list:
    """v2 entry objects after the header as v1 ones: each state entry's
    changes applied to the bindings of the state entry before it."""
    out = []
    full = {}
    for obj in objs:
        if "state" in obj:
            unset = obj.get("unset", [])
            if not isinstance(unset, list) or not all(isinstance(n, str) and n in full
                                                      for n in unset):
                raise TraceError("bad unset")
            if len(set(unset)) != len(unset):
                raise TraceError("a name unset twice")
            full = {**{k: v for k, v in full.items() if k not in unset}, **obj["state"]}
            obj = {"state": full}
        out.append(obj)
    return out


def load_trace_oracle(text: str) -> Trace:
    """The whole-text trace reader: json.loads, v2 changes applied to whole
    states, then one entry per object."""
    try:
        data = json.loads(text)
        if not isinstance(data, list):
            raise TraceError("a trace file holds a JSON array of entries")
        if data and isinstance(data[0], dict) and "format" in data[0]:
            version = data[0].get("version")
            if data[0].get("format") != V2_HEADER["format"] or type(version) is not int \
                    or version != V2_HEADER["version"]:
                raise TraceError("unknown format")
            data = _v2_full_states_oracle(data[1:])
        states = [obj["state"] for obj in data if "state" in obj]
        if not {int}.issuperset(map(type, chain.from_iterable(map(dict.values, states)))):
            raise TraceError("state values must be integers")
        return Trace(State(obj["state"]) if "state" in obj else entry_from_json(obj)
                     for obj in data)
    except KeyError as e:
        raise TraceError(f"trace entry lacks the key {e}") from None
    except (ValueError, TypeError, AttributeError, RecursionError) as e:
        raise TraceError(f"malformed trace file: {e}") from None


def dump_proof_oracle(node, proc: str) -> dict:
    """The document a proof file holds for node: each sequent printed whole
    by the package's printers, with no memo."""
    def assertion(a):
        return {"pred": pretty_expr(a.pred)} if isinstance(a, PredAssert) \
            else {"contract": a.proc}

    def goal(g):
        if isinstance(g, Judgment):
            return {"kind": "judgment", "update": pretty_update(g.update),
                    "stmt": None if g.stmt is None else str(g.stmt),
                    "formula": pretty_formula(g.formula)}
        if isinstance(g, PredGoal):
            return {"kind": "pred", "pred": pretty_expr(g.pred)}
        return {"kind": "contract", "proc": g.proc}

    def tree(n):
        return {"sequent": {"gamma": [assertion(a) for a in n.sequent.gamma],
                            "goal": goal(n.sequent.goal)},
                "rule": n.rule, "args": n.args, "children": [tree(c) for c in n.children]}

    return {"format": "tracelet-proof", "version": 1, "proc": proc,
            "closed": node.closed, "root": tree(node)}


# ---------------------------------------------------------------------------
# Trace algebra and the relative semantics, as the paper states them
# ---------------------------------------------------------------------------

class ChopUndefined(TraceError):
    def __init__(self, last_state, first_state):
        super().__init__(f"chop undefined: boundary states differ "
                         f"({last_state} vs {first_state})")
        self.last_state = last_state
        self.first_state = first_state


def event_trace(state: State, ev) -> Trace:
    # the evTrio shape: <s> . ev . s
    return Trace((state, ev, state))


def chop(t1: Trace, t2: Trace) -> Trace:
    """Semantic chop: fuse equal boundary states; undefined on mismatch."""
    if t1.is_empty:
        raise EmptyTraceError("chop requires non-empty left trace")
    if t2.is_empty:
        raise EmptyTraceError("chop requires non-empty right trace")
    if t1.last() != t2.entries[0]:
        raise ChopUndefined(t1.last(), t2.entries[0])
    return Trace(t1.entries[:-1] + t2.entries)


def concat(t1: Trace, t2: Trace) -> Trace:
    return Trace(t1.entries + t2.entries)


_FRESH_RE = re.compile(r"#(\d+)$")


def counters_from_trace(trace: Trace):
    """(next call id, last fresh-name suffix) a run continuing trace starts
    from: past every call id and res variable, and every name#k, in it."""
    next_id = 0
    next_fresh = 0
    for entry in trace.entries:
        if isinstance(entry, CallEv):
            next_id = max(next_id, entry.call_id + 1)
        elif isinstance(entry, (PushEv, PopEv)) and entry.ctx.call_id is not None:
            next_id = max(next_id, entry.ctx.call_id + 1)
        elif isinstance(entry, State):
            for name in entry.bindings():
                if name.startswith("res") and name[3:].isdigit():
                    next_id = max(next_id, int(name[3:]) + 1)
                m = _FRESH_RE.search(name)
                if m:
                    next_fresh = max(next_fresh, int(m.group(1)))
    return next_id, next_fresh


def run_update_prefixed(atoms, stmt, trace: Trace, table,
                        fuel: int = DEFAULT_FUEL) -> Trace:
    """[[U s]](trace): the suffix that the updates, then the statement,
    append to trace (stmt None runs the updates alone).

    The suffix shares its first state with trace's last; the full run is
    trace ** suffix.  Counters continue from the ids already in trace.
    The updates run on ``ReferenceMachine``, the one concrete semantics
    of update atoms; the statement runs on the package ``Machine`` from
    the trace, fuel and counters they leave.
    """
    ref = ReferenceMachine(trace, UpStmt(tuple(atoms)) if atoms else None, table, fuel,
                           *counters_from_trace(trace)).run()
    machine = Machine(ref.trace, stmt, table, ref.fuel)
    machine.next_id, machine.next_fresh = ref.next_id, ref.next_fresh
    machine.run()
    return Trace(machine.entries[len(trace.entries) - 1:])


def semantics(stmt, trace: Trace, table, fuel: int = DEFAULT_FUEL) -> Trace:
    """Relative semantics [[stmt]](trace): the appended suffix."""
    return run_update_prefixed((), stmt, trace, table, fuel)


def parse_formula(text: str):
    """Parse a single formula, verifying arities and closedness rules."""
    ts = TokenStream(tokenize(text))
    f = _parse_formula_or(ts, {})
    if ts.peek().kind != "eof":
        ts.error("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# Reference interpreter: evaluation, substitution and steps as isinstance
# chains that rebuild every node, against which the type-keyed tables and
# the shared substitution results are checked
# ---------------------------------------------------------------------------

def eval_expr_reference(state: State, e, env=None):
    """eval_expr as one isinstance chain, with logical variables first."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):
        if env and e.name in env:
            return env[e.name]
        if e.name in state:
            return state.get(e.name)
        raise UndefinedVariable(f"variable {e.name!r} is unbound")
    if isinstance(e, ResVar):
        idx = eval_expr_reference(state, e.index, env)
        return state.get(res_name(idx))
    if isinstance(e, Unary):
        v = eval_expr_reference(state, e.operand, env)
        return -v if e.op == "-" else (not v)
    if isinstance(e, Binary):
        l = eval_expr_reference(state, e.left, env)
        if e.op == "&&":
            return bool(l) and bool(eval_expr_reference(state, e.right, env))
        if e.op == "||":
            return bool(l) or bool(eval_expr_reference(state, e.right, env))
        r = eval_expr_reference(state, e.right, env)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "==":
            return l == r
        if e.op == "!=":
            return l != r
        if e.op == "<":
            return l < r
        if e.op == "<=":
            return l <= r
        if e.op == ">":
            return l > r
        if e.op == ">=":
            return l >= r
    raise TraceError(f"cannot evaluate {pretty_expr(e)}")


def subst_vars_oracle(e, mapping: dict):
    """Substitute mapping[v] for every Var(v), rebuilding every inner node."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, ResVar):
        return ResVar(subst_vars_oracle(e.index, mapping))
    if isinstance(e, Unary):
        return Unary(e.op, subst_vars_oracle(e.operand, mapping))
    if isinstance(e, Binary):
        return Binary(e.op, subst_vars_oracle(e.left, mapping),
                      subst_vars_oracle(e.right, mapping))
    return e


def subst_res_oracle(e, index, replacement):
    """Substitute replacement for res(index), indices compared
    structurally, rebuilding every inner node."""
    if isinstance(e, ResVar):
        if e.index == index:
            return replacement
        return ResVar(subst_res_oracle(e.index, index, replacement))
    if isinstance(e, Unary):
        return Unary(e.op, subst_res_oracle(e.operand, index, replacement))
    if isinstance(e, Binary):
        return Binary(e.op, subst_res_oracle(e.left, index, replacement),
                      subst_res_oracle(e.right, index, replacement))
    return e


# The hand-written walks that lang.names, logic.children/rebuild and
# calculus._subst_atom replaced, kept as they were: only formula_vars_oracle
# no longer caches on the fixed point, whose slot for it is gone.

def expr_vars_oracle(e) -> set:
    """All variable names read by e (res-variables excluded)."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return expr_vars_oracle(e.operand)
    if isinstance(e, Binary):
        return expr_vars_oracle(e.left) | expr_vars_oracle(e.right)
    if isinstance(e, ResVar):
        return expr_vars_oracle(e.index)
    if isinstance(e, Fresh):
        return expr_vars_oracle(e.arg)
    return set()


_BINARY = (And, Or, Concat, Chop)


def formula_children_oracle(f):
    """One level of f: (sub-formulas, terms); a state predicate is a term."""
    if isinstance(f, _BINARY):
        return (f.left, f.right), ()
    if isinstance(f, StatePred):
        return (), (f.pred,)
    if isinstance(f, (StartEvF, FinishEvF)):
        return (), (f.arg, f.call_id)
    if isinstance(f, RecApp):
        return (), f.args
    if isinstance(f, MuApp):
        return (f.mu,), f.args
    if isinstance(f, Mu):
        return (f.body,), ()
    if isinstance(f, (NoEv, Gap)):
        return (), ()
    raise LogicError(f"not a formula: {f!r}")


def formula_rebuild_oracle(f, subs: tuple, terms: tuple):
    """Inverse of children: f's node over new sub-formulas and terms."""
    if isinstance(f, _BINARY):
        return type(f)(*subs)
    if isinstance(f, StatePred):
        return StatePred(*terms)
    if isinstance(f, (StartEvF, FinishEvF)):
        return type(f)(f.proc, *terms)
    if isinstance(f, RecApp):
        return RecApp(f.name, tuple(terms))
    if isinstance(f, MuApp):
        return MuApp(subs[0], tuple(terms))
    if isinstance(f, Mu):
        return Mu(f.name, f.params, subs[0])
    return f


def formula_vars_oracle(f, binders: bool = False) -> set:
    """Logical variables of f's terms.

    Fixed-point parameters are removed (the free variables), or with
    binders added (every name in use, for picking fresh ones).
    """
    if isinstance(f, Mu):
        body = frozenset(formula_vars_oracle(f.body, binders))
        return set(f.params) | body if binders else set(body) - set(f.params)
    subs, terms = formula_children_oracle(f)
    out = set()
    for t in terms:
        out |= expr_vars_oracle(t)
    for g in subs:
        out |= formula_vars_oracle(g, binders)
    return out


def update_reads_oracle(atom) -> set:
    """Variable names an atom's right-hand side reads."""
    if isinstance(atom, Elem):
        return expr_vars_oracle(atom.expr) | expr_vars_oracle(atom.target.index) \
            if isinstance(atom.target, ResVar) else expr_vars_oracle(atom.expr)
    if isinstance(atom, CallUpd):
        return expr_vars_oracle(atom.arg)
    return expr_vars_oracle(atom.arg) | expr_vars_oracle(atom.call_id)


def stmt_names_oracle(s) -> set:
    if s is None:
        return set()
    if isinstance(s, Skip):
        return set()
    if isinstance(s, Assign):
        base = expr_vars_oracle(s.expr)
        if isinstance(s.target, Var):
            base |= {s.target.name}
        else:
            base |= expr_vars_oracle(s.target.index)
        return base
    if isinstance(s, CallAssign):
        return {s.target.name} | expr_vars_oracle(s.arg)
    if isinstance(s, (If, While)):
        return expr_vars_oracle(s.cond) | stmt_names_oracle(s.body)
    if isinstance(s, Seq):
        return stmt_names_oracle(s.first) | stmt_names_oracle(s.second)
    if isinstance(s, Scope):
        return set(s.decls) | stmt_names_oracle(s.body)
    if isinstance(s, Return):
        return expr_vars_oracle(s.expr)
    return set()


def update_names_oracle(update) -> set:
    out = set()
    for atom in update:
        out |= update_reads_oracle(atom)
        w = update_writes(atom)
        if w:
            out.add(w)
    return out


def names_in_sequent_oracle(seq) -> set:
    names = set()
    for a in seq.gamma:
        if isinstance(a, PredAssert):
            names |= expr_vars_oracle(a.pred)
        else:
            names |= expr_vars_oracle(a.pre) | expr_vars_oracle(a.result) | \
                formula_vars_oracle(a.phi, binders=True)
    g = seq.goal
    if isinstance(g, Judgment):
        names |= update_names_oracle(g.update) | stmt_names_oracle(g.stmt) | \
            formula_vars_oracle(g.formula, binders=True)
    elif isinstance(g, PredGoal):
        names |= expr_vars_oracle(g.pred)
    return names


def subst_atom_oracle(a, name: str, e):
    """Substitute e for name in an update atom, folding each expression."""
    mapping = {name: e}

    def sub(x):
        return fold_expr(subst_vars(x, mapping))

    if isinstance(a, Elem):
        tgt = a.target
        if isinstance(tgt, ResVar):
            tgt = ResVar(sub(tgt.index))
        return Elem(tgt, sub(a.expr))
    if isinstance(a, CallUpd):
        return CallUpd(a.target, a.proc, sub(a.arg))
    return type(a)(a.proc, sub(a.arg), sub(a.call_id))


def subst_judgment_res_oracle(j, index, replacement):
    # the kernel rewrites right-hand sides only: never a target or a call id
    mapping = {ResVar(index): replacement}

    def sub(x):
        return fold_expr(subst_vars(x, mapping))

    def atom(a):
        if isinstance(a, Elem):
            return Elem(a.target, sub(a.expr))
        if isinstance(a, CallUpd):
            return CallUpd(a.target, a.proc, sub(a.arg))
        return type(a)(a.proc, sub(a.arg), a.call_id)

    if j.stmt is not None:
        raise RuleError("result-variable equalities apply after execution finished")
    formula = map_terms(j.formula, lambda t: subst_vars(t, mapping))
    return Judgment(tuple(atom(a) for a in j.update), None, formula)


def parse_term_oracle(ts: TokenStream):
    """A contract term by a grammar of its own: + - * over integer
    literals, unary minus, parentheses and variables, where every
    identifier but res and fresh is a variable; fresh(...) only as the
    whole term."""
    if ts.at_ident("fresh"):
        ts.next()
        ts.expect_sym("(")
        inner = _term_add_oracle(ts)
        ts.expect_sym(")")
        return Fresh(inner)
    return _term_add_oracle(ts)


def _term_add_oracle(ts):
    t = _term_mul_oracle(ts)
    while ts.at_sym("+") or ts.at_sym("-"):
        op = ts.next().text
        t = Binary(op, t, _term_mul_oracle(ts))
    return t


def _term_mul_oracle(ts):
    t = _term_atom_oracle(ts)
    while ts.at_sym("*"):
        ts.next()
        t = Binary("*", t, _term_atom_oracle(ts))
    return t


def _term_atom_oracle(ts):
    tok = ts.peek()
    if ts.at_sym("-"):
        ts.next()
        digits = ts.peek().kind == "int"
        inner = _term_atom_oracle(ts)
        # a literal folds into the minus only when its digits follow it
        # directly: -(3) and --3 keep the minus
        return IntLit(-inner.value) if digits else Unary("-", inner)
    if tok.kind == "int":
        ts.next()
        return IntLit(int(tok.text))
    if ts.at_sym("("):
        ts.next()
        t = _term_add_oracle(ts)
        ts.expect_sym(")")
        return t
    if tok.kind == "ident":
        if tok.text == "fresh":
            ts.error("fresh(...) must be a whole argument")
        if tok.text == "res":
            ts.error("res(...) may only appear inside [...] predicates")
        ts.next()
        return Var(tok.text)
    ts.error(f"expected term, found {tok.text!r}")


def subst_stmt_oracle(s, name: str, replacement):
    """subst_stmt rebuilding every statement it passes through."""
    sub = lambda e: subst_vars_oracle(e, {name: replacement})   # noqa: E731
    if isinstance(s, Skip):
        return s
    if isinstance(s, Assign):
        tgt = s.target
        if isinstance(tgt, Var) and tgt.name == name and isinstance(replacement, Var):
            tgt = replacement
        return Assign(tgt, sub(s.expr))
    if isinstance(s, CallAssign):
        tgt = s.target
        if tgt.name == name and isinstance(replacement, Var):
            tgt = replacement
        return CallAssign(tgt, s.proc, sub(s.arg))
    if isinstance(s, If):
        return If(sub(s.cond), subst_stmt_oracle(s.body, name, replacement))
    if isinstance(s, While):
        return While(sub(s.cond), subst_stmt_oracle(s.body, name, replacement))
    if isinstance(s, Seq):
        return Seq(subst_stmt_oracle(s.first, name, replacement),
                   subst_stmt_oracle(s.second, name, replacement))
    if isinstance(s, Scope):
        if name in s.decls:
            return s
        return Scope(s.decls, subst_stmt_oracle(s.body, name, replacement))
    if isinstance(s, Return):
        return Return(sub(s.expr))
    raise TypeError(f"not a statement: {s!r}")


# The well-formedness checks that lang.parse_program makes as it reads, as
# a separate pass over a program's tree: one branch per literal kind and
# operator, and an assignment's target checked in two places

@record(frozen=True)
class Fault:
    """A fault that well_formed_oracle reports: its kind, message and the
    procedure (or main) it is in."""

    code: str
    message: str
    where: str


def _stmt_seq(s: Stmt):
    """The statements of a sequence, in order."""
    if isinstance(s, Seq):
        yield from _stmt_seq(s.first)
        yield from _stmt_seq(s.second)
    else:
        yield s


def _check_expr_oracle(e: Expr, scope: set, want: str, diags, where: str):
    # want is 'int' or 'bool'
    if isinstance(e, IntLit):
        if want != "int":
            diags.append(Fault("type", f"integer where condition expected: {e}", where))
    elif isinstance(e, BoolLit):
        if want != "bool":
            diags.append(Fault("type", f"boolean literal in integer position: {e}", where))
    elif isinstance(e, Var):
        if e.name not in scope:
            diags.append(Fault("undeclared", f"variable {e.name!r} not in scope", where))
        if want != "int":
            diags.append(Fault("type", f"integer variable where condition expected: {e}", where))
    elif isinstance(e, Unary):
        if e.op == "-":
            if want != "int":
                diags.append(Fault("type", f"arithmetic where condition expected: {e}", where))
            _check_expr_oracle(e.operand, scope, "int", diags, where)
        else:  # '!'
            if want != "bool":
                diags.append(Fault("type", f"boolean where integer expected: {e}", where))
            _check_expr_oracle(e.operand, scope, "bool", diags, where)
    elif isinstance(e, Binary):
        if e.op in ARITH_OPS:
            if want != "int":
                diags.append(Fault("type", f"arithmetic where condition expected: {e}", where))
            _check_expr_oracle(e.left, scope, "int", diags, where)
            _check_expr_oracle(e.right, scope, "int", diags, where)
        elif e.op in CMP_OPS:
            if want != "bool":
                diags.append(Fault("type", f"comparison in integer position: {e}", where))
            _check_expr_oracle(e.left, scope, "int", diags, where)
            _check_expr_oracle(e.right, scope, "int", diags, where)
        else:
            if want != "bool":
                diags.append(Fault("type", f"boolean operator in integer position: {e}", where))
            _check_expr_oracle(e.left, scope, "bool", diags, where)
            _check_expr_oracle(e.right, scope, "bool", diags, where)


def _check_stmt_oracle(s: Stmt, scope: set, locals_only: Optional[set], table: dict,
                diags, where: str):
    # locals_only, when set, is the set of names a procedure may write to
    for item in _stmt_seq(s):
        if isinstance(item, Skip):
            continue
        if isinstance(item, Return):
            _check_expr_oracle(item.expr, scope, "int", diags, where)
            continue
        if isinstance(item, Assign):
            name = item.target.name
            if name not in scope:
                diags.append(Fault("undeclared", f"assignment to undeclared {name!r}", where))
            elif locals_only is not None and name not in locals_only:
                diags.append(Fault("side-effect",
                                   f"procedure writes non-local variable {name!r}", where))
            _check_expr_oracle(item.expr, scope, "int", diags, where)
            continue
        if isinstance(item, CallAssign):
            if item.proc not in table:
                diags.append(Fault("unknown-procedure", f"call to unknown {item.proc!r}", where))
            _check_expr_oracle(item.arg, scope, "int", diags, where)
            name = item.target.name
            if name not in scope:
                diags.append(Fault("undeclared", f"assignment to undeclared {name!r}", where))
            elif locals_only is not None and name not in locals_only:
                diags.append(Fault("side-effect",
                                   f"procedure writes non-local variable {name!r}", where))
            continue
        if isinstance(item, If) or isinstance(item, While):
            _check_expr_oracle(item.cond, scope, "bool", diags, where)
            _check_stmt_oracle(item.body, scope, locals_only, table, diags, where)
            continue
        if isinstance(item, Scope):
            inner_scope = scope | set(item.decls)
            inner_locals = None if locals_only is None else locals_only | set(item.decls)
            _check_stmt_oracle(item.body, inner_scope, inner_locals, table, diags, where)
            continue
        diags.append(Fault("internal", f"unexpected statement {item!r}", where))


def well_formed_oracle(p: Program) -> list:
    """Empty list iff all program invariants that the parser leaves
    unchecked hold."""
    diags: list = []
    table = {proc.name: proc for proc in p.procs}
    for proc in p.procs:
        scope = {proc.param} | set(proc.body.decls)
        locals_only = set(proc.body.decls)
        _check_stmt_oracle(proc.body.body, scope, locals_only, table, diags, proc.name)
    _check_stmt_oracle(p.main_body, set(p.main_decls), None, table, diags, "main")
    return diags


def _then(first, second):
    if first is None:
        return second
    if second is None:
        return first
    if isinstance(first, UpStmt):
        return UpStmt(first.atoms, _then(first.stmt, second))
    return Seq(first, second)


def _cont_leaves(item, out: list):
    kind = type(item)
    if kind is Seq:
        _cont_leaves(item.first, out)
        _cont_leaves(item.second, out)
    elif kind is Scope and not item.decls:
        _cont_leaves(item.body, out)
    elif item is not None:
        out.append(item)


def cont_shape(stack):
    """A continuation stack of statements, innermost last, as one
    statement: the statements in the order they run, as a right-nested
    ``Seq``.  Sequences are opened and blocks without declarations
    dropped, so ``cont_shape([c])`` is the same shape for any
    continuation c that runs the same way."""
    leaves = []
    for item in reversed(stack):
        _cont_leaves(item, leaves)
    cont = None
    for leaf in reversed(leaves):
        cont = leaf if cont is None else Seq(leaf, cont)
    return cont


@record(frozen=True)
class UpStmt:
    """A statement with leading updates, the reference machine's form of
    an update-prefixed continuation; stmt None means updates only."""

    atoms: Tuple[UpdateAtom, ...]
    stmt: Optional[Stmt] = None


class ReferenceMachine:
    """The machine with its continuation as one ``Seq``/``UpStmt`` term
    rebuilt on every step, each step classified by three end tests, local
    evaluation as an isinstance chain, a loop unfolded into
    ``if (cond) { body; loop }`` on every turn, a block's locals declared
    one per step, and the oracle's evaluation and substitution."""

    def __init__(self, trace: Trace, cont, table, fuel: int = DEFAULT_FUEL,
                 next_id: int = 0, next_fresh: int = 0):
        if trace.is_empty:
            raise RunError("initial trace must be non-empty")
        self.entries = list(trace.entries)
        self.ctxs = nest([], trace.entries)
        self.cont = cont
        self.table = table
        self.fuel = fuel
        self.next_id = next_id
        self.next_fresh = next_fresh

    @property
    def trace(self) -> Trace:
        return Trace(self.entries)

    def alloc_call_id(self, state: State) -> int:
        cid = self.next_id
        while res_name(cid) in state:
            cid += 1
        self.next_id = cid + 1
        return cid

    def fresh_var(self, base: str, state: State) -> str:
        k = self.next_fresh + 1
        while f"{base}#{k}" in state:
            k += 1
        self.next_fresh = k
        return f"{base}#{k}"

    def extend(self, tr: Trace):
        last, first = self.entries[-1], tr.entries[0]
        if last != first:
            raise ChopUndefined(last, first)
        nest(self.ctxs, tr.entries)
        self.entries += tr.entries[1:]

    def ends_in(self, kind) -> bool:
        e = self.entries
        return len(e) >= 2 and isinstance(e[-2], kind)

    @property
    def done(self) -> bool:
        return self.cont is None and not self.ends_in(CallEv) and not self.ends_in(RetEv)

    def run(self) -> "ReferenceMachine":
        while not self.done:
            self.step()
        return self

    def step(self):
        if self.done:
            raise RunError("no rule applies to a final configuration")
        if self.fuel <= 0:
            raise FuelExhausted(self.trace)
        self.fuel -= 1
        entries = self.entries
        if self.ends_in(CallEv):
            ev = entries[-2]
            proc = lookup(ev.proc, self.table)
            inlined = subst_stmt_oracle(proc.body, proc.param, IntLit(ev.arg))
            self.extend(event_trace(entries[-1], PushEv(Ctx(ev.proc, ev.call_id))))
            self.cont = _then(inlined, self.cont)
            return
        if self.ends_in(RetEv):
            ev = entries[-2]
            if not self.ctxs:
                raise RunError("return event outside any call context")
            ctx = self.ctxs[-1]
            after = entries[-1].set(res_name(ctx.call_id), ev.value)
            entries.append(after)
            self.extend(event_trace(after, PopEv(ctx)))
            return
        tr, cont = self.local_eval(entries[-1], self.cont)
        self.extend(tr)
        self.cont = cont

    def local_eval(self, state: State, item):
        if isinstance(item, UpStmt):
            return self.eval_update_head(state, item)
        return self.eval_stmt(state, item)

    def eval_stmt(self, state: State, s):
        ev = eval_expr_reference
        if isinstance(s, Skip):
            return singleton(state), None
        if isinstance(s, Assign):
            if isinstance(s.target, ResVar):
                return singleton(state), None
            return Trace((state, state.set(s.target.name, ev(state, s.expr)))), None
        if isinstance(s, CallAssign):
            cid = self.alloc_call_id(state)
            tr = event_trace(state, CallEv(s.proc, ev(state, s.arg), cid))
            return tr, Assign(s.target, ResVar(IntLit(cid)))
        if isinstance(s, If):
            return singleton(state), s.body if ev(state, s.cond) else None
        if isinstance(s, While):
            return self.eval_stmt(state, If(s.cond, Seq(s.body, s)))
        if isinstance(s, Seq):
            tr, cont = self.local_eval(state, s.first)
            return tr, _then(cont, s.second)
        if isinstance(s, Scope):
            if s.decls:
                name = s.decls[0]
                fresh = self.fresh_var(name, state)
                rest = Scope(s.decls[1:], subst_stmt_oracle(s.body, name, Var(fresh)))
                return Trace((state, state.set(fresh, 0))), rest
            return self.local_eval(state, s.body)
        if isinstance(s, Return):
            return event_trace(state, RetEv(ev(state, s.expr))), None
        raise RunError(f"cannot evaluate {s!r}")

    def eval_update_head(self, state: State, us: UpStmt):
        ev = eval_expr_reference
        atom = us.atoms[0]
        rest = UpStmt(us.atoms[1:], us.stmt) if us.atoms[1:] else us.stmt
        if isinstance(atom, Elem):
            if isinstance(atom.target, ResVar):
                return singleton(state), rest
            return Trace((state, state.set(atom.target.name, ev(state, atom.expr)))), rest
        if isinstance(atom, CallUpd):
            sub = ReferenceMachine(singleton(state), CallAssign(atom.target, atom.proc, atom.arg),
                                   self.table, self.fuel, self.next_id, self.next_fresh).run()
            self.fuel, self.next_id, self.next_fresh = sub.fuel, sub.next_id, sub.next_fresh
            return sub.trace, rest
        if isinstance(atom, StartUpd):
            arg, cid = ev(state, atom.arg), ev(state, atom.call_id)
            self.next_id = max(self.next_id, cid + 1)
            return Trace((state, CallEv(atom.proc, arg, cid), state,
                          PushEv(Ctx(atom.proc, cid)), state)), rest
        if isinstance(atom, FinishUpd):
            v, cid = ev(state, atom.arg), ev(state, atom.call_id)
            after = state.set(res_name(cid), v)
            return Trace((state, RetEv(v), state, after, PopEv(Ctx(atom.proc, cid)), after)), rest
        raise RunError(f"cannot evaluate update atom {atom!r}")


# ---------------------------------------------------------------------------
# The sampled-state judge: a sequent's truth on one concrete state, against
# which the kernel's rules are checked
# ---------------------------------------------------------------------------

def sample_states(seq, rng: random.Random, tries: int = 600) -> list:
    """Up to eight states that satisfy the sequent's predicate assumptions.

    Every name the assumptions, the update and the statement read gets a
    value in 0..6, except result variables; an assumed equality with a
    ``res(...)`` node on its left binds that node to its right side."""
    preds = [a.pred for a in seq.gamma if isinstance(a, PredAssert)]
    j = seq.goal
    read = set()
    for p in preds:
        read |= lang.names(p)
    if isinstance(j, Judgment):
        for a in j.update:
            read |= update_reads(a)
        read |= lang.names(j.stmt, j.formula)
    read = sorted(n for n in read if not n.startswith("res"))
    out = []
    for _ in range(tries):
        state = State({n: rng.randint(0, 6) for n in read})
        try:
            for p in preds:
                if isinstance(p, Binary) and p.op == "==" and isinstance(p.left, ResVar):
                    state = state.set(res_name(eval_expr(state, p.left.index)),
                                      eval_expr(state, p.right))
            if all(eval_expr(state, p) for p in preds):
                out.append(state)
        except UndefinedVariable:
            continue
        if len(out) >= 8:
            break
    return out


def assume_equalities(gamma, state: State) -> State:
    """state with the rigid side of each assumed equality bound to the
    other side's value, so that it satisfies the assumptions."""
    for a in gamma:
        lhs, rhs = a.pred.left, a.pred.right
        if not isinstance(lhs, (Var, ResVar)):
            lhs, rhs = rhs, lhs
        name = lhs.name if isinstance(lhs, Var) else res_name(eval_expr(state, lhs.index))
        state = state.set(name, eval_expr(state, rhs))
    return state


def judgment_true(seq, state: State, table, witnesses=(), fuel: int = 200_000) -> bool:
    """Whether the sequent's judgment ``U s : Phi`` holds from state: the
    trace that ``run_update_prefixed`` gives U and s from <state> (update
    atoms on the reference machine, the statement on the interpreter) is
    a member of Phi.  A run that exhausts fuel is undefined, so the
    judgment holds vacuously.  Witness rigids are fresh-id symbols, read
    existentially over the call identifiers of the trace.  A variable the
    update or the statement never writes is rigid: it keeps its first
    value, so it is bound as a logical variable; logical bindings shadow
    program variables, so a written one is not."""
    j = seq.goal
    written = {update_writes(a) for a in j.update} | {
        s.target.name for s in lang.nodes(j.stmt)
        if isinstance(s, (Assign, CallAssign)) and isinstance(s.target, Var)}
    env = {k: v for k, v in state.bindings().items() if k not in written}
    try:
        trace = run_update_prefixed(j.update, j.stmt, singleton(state), table, fuel=fuel)
    except FuelExhausted:
        return True
    free_witnesses = [w for w in witnesses if w in lang.names(j.formula)]
    if not free_witnesses:
        return member(trace, j.formula, env)
    ids = sorted({e.call_id for e in trace.entries if hasattr(e, "call_id")})
    for combo in product(ids or [0], repeat=len(free_witnesses)):
        trial = dict(env)
        trial.update(zip(free_witnesses, combo))
        if member(trace, j.formula, trial):
            return True
    return False


def sequent_true(seq, state: State, table) -> bool:
    """Whether the sequent holds on state: vacuously when an assumption
    is false or reads a name state lacks; otherwise its judgment goal by
    ``judgment_true``, with the fresh-id symbol k' as a witness, or its
    predicate goal, false when it reads a name state lacks."""
    for a in seq.gamma:
        if isinstance(a, PredAssert):
            try:
                if not eval_expr(state, a.pred):
                    return True
            except UndefinedVariable:
                return True
    if isinstance(seq.goal, Judgment):
        return judgment_true(seq, state, table, ("k'",))
    if isinstance(seq.goal, PredGoal):
        try:
            return bool(eval_expr(state, seq.goal.pred))
        except UndefinedVariable:
            return False
    return True


def while_source(turns: int, c: int) -> str:
    """A two-variable counting loop of the benchmark's shape."""
    return (f"main {{ i; s; i = 0; s = 0; "
            f"while (i < {turns}) {{ s = s + i * {c}; i = i + 1 }} }}\n")


def multi_proc_source(rng: random.Random, nprocs: int, main_arg: int) -> str:
    """Procedures p0..p<nprocs-1> of the benchmark's shape: p<i> recurses on
    k - 1 under k > 0, calls p<i-1>(1) and runs a two-turn loop."""
    procs = []
    for i in range(nprocs):
        a, b, c = rng.randint(1, 5), rng.randint(0, 9), rng.randint(1, 3)
        lines = [rng.choice([f"r = k * {a} + {b}", f"r = {b} - k", f"r = k + {a} * {b}"]),
                 "if (k > 0) { t = p%d(k - 1); %s }" % (
                     i, rng.choice(["r = r + t", "r = t - r", f"r = r + t * {c}"]))]
        if i > 0:
            lines += [f"t = p{i - 1}(1)", rng.choice([f"r = r - t * {c}", f"r = t + r"])]
        lines.append("j = 0; while (j < 2) { r = r + j; j = j + 1 }")
        procs.append(f"p{i}(k) {{\n  r; t; j;\n  " + ";\n  ".join(lines)
                     + ";\n  return r\n}\n")
    return "\n".join(procs) + f"\nmain {{ x; y; x = p{nprocs - 1}({main_arg}); y = x + 1 }}\n"


class OracleError(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    """An argument error raises OracleError("<prog>: <message>"), the text
    tracelet prints after "error: "."""

    def error(self, message):
        raise OracleError(f"{self.prog}: {message}")


def argparse_oracle() -> argparse.ArgumentParser:
    """The tracelet command line as argparse parsers, one per command."""
    ap = _OracleParser(prog="tracelet", description="Trace-based contract toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a program and emit its trace")
    p.add_argument("program")
    p.add_argument("--state", action="append", metavar="x=0",
                   help="initial binding for a main-declared variable")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli.cmd_run)

    p = sub.add_parser("adequacy", help="check trace adequacy")
    p.add_argument("trace")
    p.add_argument("--lenient", action="store_true",
                   help="check only the literal adequacy clauses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_adequacy)

    p = sub.add_parser("check", help="check trace membership in a formula")
    p.add_argument("trace")
    p.add_argument("formula")
    p.add_argument("--contract", default=None)
    p.add_argument("--bind", action="append", metavar="n=1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_check)

    p = sub.add_parser("gen-contract", help="emit the recursive-contract template")
    p.add_argument("proc")
    p.add_argument("--pre-base", required=True)
    p.add_argument("--pre-step", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--step-inv", required=True)
    p.add_argument("--no-big-step", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli.cmd_gen_contract)

    p = sub.add_parser("prove", help="prove a procedure contract")
    p.add_argument("program")
    p.add_argument("contracts")
    p.add_argument("--proc", default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--script", default=None)
    mode.add_argument("--repl", action="store_true")
    p.add_argument("--max-nodes", type=int, default=50_000)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli.cmd_prove)

    p = sub.add_parser("check-proof", help="replay and verify a proof file")
    p.add_argument("proof")
    p.add_argument("--program", required=True)
    p.add_argument("--contracts", required=True)
    p.set_defaults(func=cli.cmd_check_proof)

    p = sub.add_parser("validate", help="differential check of a proved contract")
    p.add_argument("program")
    p.add_argument("contracts")
    p.add_argument("--proc", default=None)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", default="0..25")
    proof = p.add_mutually_exclusive_group()
    proof.add_argument("--proof", default=None)
    proof.add_argument("--no-proof", action="store_true")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--trace-dir", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_validate)

    return ap


def bench_corpus(monkeypatch):
    """bench/corpus.py, imported from its file; it imports no tracelet."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# The lexer as one character loop: the reference for ``lang.tokenize``
# ---------------------------------------------------------------------------

def tokenize_reference(src: str) -> list:
    """Tokens of src, or the ParseError, as a loop over its characters."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_#"):
                j += 1
            while j < n and src[j] == "'":
                j += 1
            toks.append(lang.Token("ident", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(lang.Token("int", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = src[i:i + 2]
        if two in lang._TWO_CHAR:
            toks.append(lang.Token("sym", two, line, start_col))
            i += 2
            col += 2
            continue
        if c in lang._ONE_CHAR:
            toks.append(lang.Token("sym", c, line, start_col))
            i += 1
            col += 1
            continue
        raise lang.ParseError(f"unexpected character {c!r}", line, col)
    toks.append(lang.Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Validity by expanding every disjunct and searching the whole box: the
# reference for ``fo.fo_valid``.  It builds gamma && !goal as one formula,
# linearizes every atom of every disjunct, keeps variable-free constraints
# in their systems and tries all 21^k points of the box.
# ---------------------------------------------------------------------------

def _linearize_ref(e):
    if isinstance(e, IntLit):
        return {}, e.value
    if isinstance(e, (Var, ResVar)):
        return {e.name if isinstance(e, Var) else f"res({pretty_expr(e.index)})": 1}, 0
    if isinstance(e, Unary) and e.op == "-":
        coeffs, const = _linearize_ref(e.operand)
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(e, Binary) and e.op in ("+", "-"):
        lc, lk = _linearize_ref(e.left)
        rc, rk = _linearize_ref(e.right)
        sign = 1 if e.op == "+" else -1
        out = dict(lc)
        for k, v in rc.items():
            out[k] = out.get(k, 0) + sign * v
            if out[k] == 0:
                del out[k]
        return out, lk + sign * rk
    if isinstance(e, Binary) and e.op == "*":
        lc, lk = _linearize_ref(e.left)
        rc, rk = _linearize_ref(e.right)
        if lc and rc:
            raise fo.NonlinearError("nonlinear product")
        if lc:
            return {k: v * rk for k, v in lc.items() if v * rk != 0}, lk * rk
        return {k: v * lk for k, v in rc.items() if v * lk != 0}, lk * rk
    raise fo.NonlinearError("not a linear term")


def _mk_ref(coeffs, const, op):
    items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
    if op in ("==", "!=") and items and items[0][1] < 0:
        items = tuple((k, -v) for k, v in items)
        const = -const
    g = 0
    for _, v in items:
        g = gcd(g, abs(v))
    if g > 1 and (op == ">=" or const % g == 0):
        items = tuple((k, v // g) for k, v in items)
        const //= g
    return (items, const, op)


def _atom_ref(e1, op, e2):
    lc, lk = _linearize_ref(Binary("-", e1, e2))
    neg = {k: -v for k, v in lc.items()}
    return {">": (lc, lk - 1, ">="), ">=": (lc, lk, ">="), "<": (neg, -lk - 1, ">="),
            "<=": (neg, -lk, ">="), "==": (lc, lk, "=="), "!=": (lc, lk, "!=")}[op]


def _dnf_ref(e):
    if isinstance(e, Binary) and e.op == "||":
        return _dnf_ref(e.left) + _dnf_ref(e.right)
    if isinstance(e, Binary) and e.op == "&&":
        out = []
        for left in _dnf_ref(e.left):
            for right in _dnf_ref(e.right):
                out.append(left + right)
                if len(out) > fo._MAX_DISJUNCTS:
                    raise fo.NonlinearError("DNF blowup")
        return out
    return [[e]]


def _systems_ref(atoms):
    """The constraint systems of one conjunction, '!=' split in two; None
    when a false literal is among its atoms."""
    systems = [[]]
    for a in atoms:
        if isinstance(a, BoolLit):
            if not a.value:
                return None
            continue
        if not (isinstance(a, Binary) and a.op in CMP_OPS):
            raise fo.NonlinearError("not an atom")
        c = _mk_ref(*_atom_ref(a.left, a.op, a.right))
        if c[2] == "!=":
            coeffs = dict(c[0])
            lt = _mk_ref({k: -v for k, v in coeffs.items()}, -c[1] - 1, ">=")
            gt = _mk_ref(coeffs, c[1] - 1, ">=")
            systems = [s + [lt] for s in systems] + [s + [gt] for s in systems]
        else:
            systems = [s + [c] for s in systems]
        if len(systems) > fo._MAX_DISJUNCTS:
            raise fo.NonlinearError("disequality blowup")
    return systems


def _fm_unsat_ref(constraints):
    work = [c for c in constraints if c[2] != "=="]
    eqs = [c for c in constraints if c[2] == "=="]
    changed = True
    while changed:
        changed = False
        for idx, (items, const, _) in enumerate(eqs):
            if not items:
                if const != 0:
                    return True
                eqs.pop(idx)
                changed = True
                break
            unit = next((k for k, v in items if abs(v) == 1), None)
            if unit is None:
                continue
            coeff = dict(items)[unit]
            eqs.pop(idx)
            rest = {k: v for k, v in items if k != unit}

            def subst(c2, unit=unit, coeff=coeff, rest=rest, const=const):
                d2 = dict(c2[0])
                if unit not in d2:
                    return c2
                factor = d2.pop(unit)
                for k, v in rest.items():
                    d2[k] = d2.get(k, 0) - factor * coeff * v
                return _mk_ref(d2, c2[1] - factor * coeff * const, c2[2])

            work = [subst(c2) for c2 in work]
            eqs = [subst(c2) for c2 in eqs]
            changed = True
            break
    for items, const, _ in eqs:
        g = 0
        for _, v in items:
            g = gcd(g, abs(v))
        if const % g != 0:
            return True
        work.append(_mk_ref(dict(items), const, ">="))
        work.append(_mk_ref({k: -v for k, v in items}, -const, ">="))
    while True:
        if any(not items and const < 0 for items, const, _ in work):
            return True
        variables = sorted({k for items, _, _ in work for k, _ in items})
        if not variables:
            return False
        x = min(variables, key=lambda v: sum(1 for it, _, _ in work if v in dict(it)))
        lowers = [c for c in work if dict(c[0]).get(x, 0) > 0]
        uppers = [c for c in work if dict(c[0]).get(x, 0) < 0]
        new = [c for c in work if x not in dict(c[0])]
        for (li, lk, _), (ui, uk, _) in product(lowers, uppers):
            ld, ud = dict(li), dict(ui)
            a, b = ld[x], -ud[x]
            combo = {}
            for k, v in ld.items():
                if k != x:
                    combo[k] = combo.get(k, 0) + b * v
            for k, v in ud.items():
                if k != x:
                    combo[k] = combo.get(k, 0) + a * v
            new.append(_mk_ref(combo, b * lk + a * uk, ">="))
            if len(new) > fo._MAX_CONSTRAINTS:
                raise fo.NonlinearError("Fourier-Motzkin blowup")
        work = new


def fo_valid_reference(gamma, goal) -> fo.FoResult:
    """fo_valid as the whole formula, each disjunct's atoms linearized on
    their own, and the whole box searched point by point."""
    formula = fo.negate_pred(goal)
    for g in gamma:
        formula = Binary("&&", g, formula)
    try:
        systems = []
        for d in _dnf_ref(fo._nnf(formula, True)):
            systems += _systems_ref(d) or []
        if all(_fm_unsat_ref(s) for s in systems):
            return fo.FoResult("valid")
    except fo.NonlinearError:
        return fo.FoResult("unknown")
    names = sorted({k for s in systems for c in s for k, _ in c[0]})
    if len(names) > 3:
        return fo.FoResult("unknown")
    for point in product(range(-fo._BOX, fo._BOX + 1), repeat=len(names)):
        at = dict(zip(names, point))
        if any(all((c[1] + sum(v * at[k] for k, v in c[0])) >= 0 if c[2] == ">="
                   else c[1] + sum(v * at[k] for k, v in c[0]) == 0 for c in s)
               for s in systems):
            return fo.FoResult("invalid", at)
    return fo.FoResult("unknown")
