"""Small-step interpreter: the three composition rules over a stack.

A configuration is a trace together with a continuation, the code still
to run.  Exactly one of the Progress/Call/Return rules applies to every
non-final configuration, selected by whether the trace ends in a call
event, a return event, or neither.  The machine grows its trace in place
and keeps two stacks beside it: the open call contexts (``traces.nest``),
so Return reads the current context off the top, and the continuation,
the statements still to run.  Progress opens sequences on the stack down
to their first statement, runs it, appends its entries and pushes what
follows it.  No rule builds a trace or a continuation record.
Expressions are evaluated by ``traces.eval_expr``, as in membership.
"""

from __future__ import annotations

from typing import Optional

from .lang import (Assign, CallAssign, If, IntLit, LookupTable, Program,
                   Return, ResVar, Scope, Seq, Stmt, Var, While,
                   build_lookup, lookup, subst_stmt)
from .traces import (CallEv, Ctx, PopEv, PushEv, RetEv, State, Trace,
                     eval_expr, nest, res_name, singleton)

DEFAULT_FUEL = 10 ** 6


class RunError(Exception):
    pass


class FuelExhausted(Exception):
    def __init__(self, partial: Trace):
        super().__init__("step budget exhausted")
        self.partial = partial


class Machine:
    """One run's configuration; owns its counters and fuel exclusively.

    ``entries`` is the trace so far, ``ctxs`` its open call contexts and
    ``stack`` the continuation, the statements still to run; both stacks
    hold their innermost item last.
    """

    def __init__(self, trace: Trace, cont: Optional[Stmt], table: LookupTable,
                 fuel: int = DEFAULT_FUEL):
        self.entries = list(trace.entries)
        self.ctxs = nest([], trace.entries)
        self.stack = [] if cont is None else [cont]
        self.table = table
        self.fuel = fuel
        self.next_id = self.next_fresh = 0

    @property
    def trace(self) -> Trace:
        return Trace(self.entries)

    # -- allocation ---------------------------------------------------------

    def alloc_call_id(self, state: State) -> int:
        cid = self.next_id
        while res_name(cid) in state:
            cid += 1
        self.next_id = cid + 1
        return cid

    def fresh_var(self, base: str) -> str:
        # no program variable holds '#', and each name drawn here is new
        self.next_fresh += 1
        return f"{base}#{self.next_fresh}"

    # -- the three composition rules ------------------------------------------

    def run(self) -> "Machine":
        """Apply rules until the configuration is final: Call after a
        callEv, Return after a retEv, Progress otherwise.  Each costs one
        unit of fuel; Progress pops the continuation down to its next
        statement and runs that.  When the fuel runs out before a rule,
        the machine stays at the configuration reached, so more fuel
        resumes it."""
        entries, ctxs, stack = self.entries, self.ctxs, self.stack
        push, pop = stack.append, stack.pop
        fuel = self.fuel
        try:
            while True:
                kind = type(entries[-2]) if len(entries) > 1 else State
                if not stack and kind is not CallEv and kind is not RetEv:
                    return self
                if fuel <= 0:
                    raise FuelExhausted(Trace(entries))
                fuel -= 1
                state = entries[-1]
                if kind is CallEv:
                    ev = entries[-2]
                    proc = lookup(ev.proc, self.table)
                    ctx = Ctx(ev.proc, ev.call_id)
                    ctxs.append(ctx)
                    entries += (PushEv(ctx), state)
                    push(subst_stmt(proc.body, {proc.param: IntLit(ev.arg)}))
                    continue
                if kind is RetEv:  # well-formedness keeps return out of main
                    ctx = ctxs.pop()
                    after = state.set(res_name(ctx.call_id), entries[-2].value)
                    entries += (after, PopEv(ctx), after)
                    continue
                s = pop()
                while True:
                    kind = type(s)
                    if kind is Seq:
                        push(s.second)
                        s = s.first
                        continue
                    if kind is Assign:
                        # a res target is written by finishEv; this is a no-op
                        if type(s.target) is not ResVar:
                            entries.append(state.set(s.target.name, eval_expr(state, s.expr)))
                    elif kind is While:
                        if eval_expr(state, s.cond):
                            push(s)
                            push(s.body)
                    elif kind is If:
                        if eval_expr(state, s.cond):
                            push(s.body)
                    elif kind is CallAssign:
                        cid = self.alloc_call_id(state)
                        entries += (CallEv(s.proc, eval_expr(state, s.arg), cid), state)
                        push(Assign(s.target, ResVar(IntLit(cid))))
                    elif kind is Return:
                        entries += (RetEv(eval_expr(state, s.expr)), state)
                    elif kind is Scope:
                        if not s.decls:
                            s = s.body
                            continue
                        self._declare(state, s)
                    break  # a Skip takes no step
        finally:
            self.fuel = fuel

    def _declare(self, state: State, s: Scope):
        # Every local gets a fresh name now, in declaration order, and the
        # body is renamed in one walk; the first is bound to 0 in this step
        # and the others by zero assignments, one step each.  Later names
        # have larger suffixes, so none collides with one allocated before.
        fresh = [Var(self.fresh_var(name)) for name in s.decls]
        # reversed, so that a name declared twice maps to its first fresh name
        mapping = dict(zip(reversed(s.decls), reversed(fresh)))
        self.entries.append(state.set(fresh[0].name, 0))
        self.stack.append(subst_stmt(s.body, mapping))
        self.stack += [Assign(var, IntLit(0)) for var in reversed(fresh[1:])]


def initial_state(program: Program, overrides: Optional[dict] = None) -> State:
    """Main's declared variables, default 0, overridden per request."""
    overrides = dict(overrides or {})
    bindings = {name: 0 for name in program.main_decls}
    for name, value in overrides.items():
        if name not in bindings:
            raise RunError(f"--state binds {name!r}, not declared by main")
        bindings[name] = value
    return State(bindings)


def run(program: Program, state: Optional[State] = None,
        fuel: int = DEFAULT_FUEL) -> Trace:
    """The unique maximal trace of the program's main body."""
    table = build_lookup(program)
    sigma0 = state if state is not None else initial_state(program)
    return Machine(singleton(sigma0), program.main_body, table, fuel).run().trace

