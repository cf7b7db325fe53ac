"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles
(approximant unfolding, explicit stacks, brute-force enumeration) so the
implementation under test is never checked against itself.
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import chain

from tracelet import cli
from tracelet.calculus import node_to_json
from tracelet.interp import DEFAULT_FUEL, UpStmt, semantics
from tracelet.lang import (Assign, Binary, BoolLit, CallAssign, If, IntLit,
                           Program, ProcDecl, Return, Scope, Seq, Skip, Unary,
                           Var, While, parse_program, seq)
from tracelet.logic import (And, Chop, Concat, ContractSpec, FinishEvF, Mu,
                            MuApp, NoEv, Or, RecApp, StartEvF, StatePred,
                            eval_term, make_contract, _FreshValue)
from tracelet.traces import (CallEv, Ctx, MAIN_CTX, PopEv, PushEv, RetEv,
                             State, Trace, TraceError, entry_from_json,
                             entry_to_json, eval_expr, is_state, res_name,
                             ret_owners)

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


def member_approx(trace: Trace, formula, env=None, k=None) -> bool:
    """Brute-force split enumeration with approximant-bounded unfolding.

    Fixed points are replaced by their k-th approximation; k defaults to
    a bound sufficient for any recursion that consumes at least one trace
    entry per unfolding, which covers the contract corpus.
    """
    entries = trace.entries
    owners = ret_owners(trace)
    n = len(entries)
    if k is None:
        k = 2 * n + 8
    env = dict(env or {})
    memo = {}

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
        vals = [eval_term(a, benv) for a in args]
        slots = [i for i, v in enumerate(vals) if isinstance(v, _FreshValue)]
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
            ev = eval_term(f.arg, benv)
            iv = eval_term(f.call_id, benv)
            return (is_state(a) and a == c == e and isinstance(b, CallEv)
                    and isinstance(d, PushEv) and b.proc == f.proc
                    and b.arg == ev and b.call_id == iv
                    and d.ctx == Ctx(f.proc, iv))
        if isinstance(f, FinishEvF):
            if width != 6:
                return False
            a, b, c, d, e, g = entries[lo:hi]
            ev = eval_term(f.arg, benv)
            iv = eval_term(f.call_id, benv)
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


def dump_trace_oracle(trace: Trace) -> str:
    """The per-entry trace writer: json.dumps of every entry, keys sorted."""
    return "[\n" + ",\n".join(json.dumps(entry_to_json(e), sort_keys=True)
                              for e in trace.entries) + "\n]\n"


def load_trace_oracle(text: str) -> Trace:
    """The whole-text trace reader: json.loads, then one entry per object."""
    try:
        data = json.loads(text)
        if not isinstance(data, list):
            raise TraceError("a trace file holds a JSON array of entries")
        states = [obj["state"] for obj in data if "state" in obj]
        if not {int}.issuperset(map(type, chain.from_iterable(map(dict.values, states)))):
            raise TraceError("state values must be integers")
        return Trace(State(obj["state"]) if "state" in obj else entry_from_json(obj)
                     for obj in data)
    except KeyError as e:
        raise TraceError(f"trace entry lacks the key {e}") from None
    except (ValueError, TypeError, AttributeError, RecursionError) as e:
        raise TraceError(f"malformed trace file: {e}") from None


def dump_proof_oracle(node, proc: str) -> str:
    """The proof writer as json lays it out: sorted keys, one-space indent."""
    doc = {"format": "tracelet-proof", "version": 1, "proc": proc,
           "closed": node.closed, "root": node_to_json(node)}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def run_update_prefixed(atoms, stmt, trace: Trace, table,
                        fuel: int = DEFAULT_FUEL) -> Trace:
    """[[U s]](trace): the suffix that the updates, then the statement,
    append to trace (stmt None runs the updates alone)."""
    item = UpStmt(tuple(atoms), stmt) if atoms else stmt
    return semantics(item, trace, table, fuel)


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
    p.add_argument("--proof", default=None)
    p.add_argument("--no-proof", action="store_true")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--trace-dir", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_validate)

    return ap
