"""Small-step interpreter: local evaluation plus the three composition rules.

A configuration is a trace together with a continuation (the statement or
update-prefixed statement still to be evaluated).  Exactly one of the
Progress/Call/Return rules applies to every non-final configuration,
selected by whether the trace ends in a call event, a return event, or
neither.  Local evaluation looks up one method per statement type in a
table, as ``step`` picks its rule by the type of the second-last entry.
The machine grows its trace in place and keeps the stack of open
call contexts as it goes (``traces.nest``), so Return reads the current
context off the stack and a step costs O(1) amortised entries.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .lang import (Assign, CallAssign, If, IntLit, LookupTable, Program,
                   Return, ResVar, Scope, Seq, Skip, Stmt, Var, While,
                   build_lookup, lookup, record, subst_stmt)
from .traces import (CallEv, ChopUndefined, Ctx, PopEv, PushEv, RetEv, State,
                     Trace, event_trace, eval_expr, nest, res_name, singleton)
from .updates import (CallUpd, Elem, FinishUpd, StartUpd, UpdateAtom,
                      pretty_update)

DEFAULT_FUEL = 10 ** 6


class RunError(Exception):
    pass


class FuelExhausted(Exception):
    def __init__(self, partial: Trace):
        super().__init__("step budget exhausted")
        self.partial = partial


@record(frozen=True)
class UpStmt:
    """A statement with leading updates; stmt None means updates only."""

    atoms: Tuple[UpdateAtom, ...]
    stmt: Optional[Stmt] = None

    def __repr__(self):
        body = "" if self.stmt is None else f" {self.stmt}"
        return f"{pretty_update(self.atoms)}{body}"


Cont = Union[None, Stmt, UpStmt]


def _norm_upstmt(atoms, stmt) -> Cont:
    if atoms:
        return UpStmt(tuple(atoms), stmt)
    return stmt


def _seq(first: Cont, second: Cont) -> Cont:
    # empty leading continuations are discarded
    if first is None:
        return second
    if second is None:
        return first
    if isinstance(first, UpStmt):
        return UpStmt(first.atoms, _seq(first.stmt, second))
    return Seq(first, second)


class Machine:
    """One run's configuration; owns its counters and fuel exclusively.

    ``entries`` is the trace so far and ``ctxs`` its open call contexts,
    innermost last.
    """

    def __init__(self, trace: Trace, cont: Cont, table: LookupTable,
                 fuel: int = DEFAULT_FUEL, next_id: int = 0, next_fresh: int = 0):
        if trace.is_empty:
            raise RunError("initial trace must be non-empty")
        self.entries = list(trace.entries)
        self.ctxs = nest([], trace.entries)
        self.cont = cont
        self.table = table
        self.fuel = fuel
        self.next_id = next_id
        self.next_fresh = next_fresh
        self._loops = {}   # id(While) -> (the While, Seq(its body, it))

    @property
    def trace(self) -> Trace:
        return Trace(self.entries)

    def extend(self, tr: Trace):
        """Chop tr onto the trace: its first state fuses with the last one."""
        new = tr.entries
        last, first = self.entries[-1], new[0]
        if last is not first and last != first:
            raise ChopUndefined(last, first)
        if len(new) > 1:
            nest(self.ctxs, new)
            self.entries += new[1:]

    # -- allocation ---------------------------------------------------------

    def alloc_call_id(self, state: State) -> int:
        cid = self.next_id
        while res_name(cid) in state:
            cid += 1
        self.next_id = cid + 1
        return cid

    def note_call_id(self, cid: int):
        self.next_id = max(self.next_id, cid + 1)

    def fresh_var(self, base: str, state: State) -> str:
        k = self.next_fresh + 1
        name = f"{base}#{k}"
        while name in state:
            k += 1
            name = f"{base}#{k}"
        self.next_fresh = k
        return name

    # -- local evaluation, one method per statement kind ----------------------

    def _skip(self, state: State, s: Skip) -> Tuple[Trace, Cont]:
        return singleton(state), None

    def _assign(self, state: State, s: Assign) -> Tuple[Trace, Cont]:
        if type(s.target) is ResVar:
            # result variables are written by finishEv; this is a no-op
            return singleton(state), None
        return Trace((state, state.set(s.target.name, eval_expr(state, s.expr)))), None

    def _call_assign(self, state: State, s: CallAssign) -> Tuple[Trace, Cont]:
        cid = self.alloc_call_id(state)
        arg = eval_expr(state, s.arg)
        return event_trace(state, CallEv(s.proc, arg, cid)), Assign(s.target, ResVar(IntLit(cid)))

    def _if(self, state: State, s: If) -> Tuple[Trace, Cont]:
        return singleton(state), s.body if eval_expr(state, s.cond) else None

    def _while(self, state: State, s: While) -> Tuple[Trace, Cont]:
        # if (cond) { body; loop }, with that continuation built once per loop
        if not eval_expr(state, s.cond):
            return singleton(state), None
        got = self._loops.get(id(s))
        if got is None:
            got = self._loops[id(s)] = (s, Seq(s.body, s))
        return singleton(state), got[1]

    def _seq(self, state: State, s: Seq) -> Tuple[Trace, Cont]:
        tr, cont = self.local_eval(state, s.first)
        return tr, _seq(cont, s.second)

    def _scope(self, state: State, s: Scope) -> Tuple[Trace, Cont]:
        # Every local gets a fresh name now, in declaration order, and the
        # body is renamed in one walk; the first is bound to 0 in this step
        # and the others by zero updates, one step each.  A later name has
        # a larger suffix, so none collides with one allocated here before.
        if not s.decls:
            return self.local_eval(state, s.body)
        fresh = [Var(self.fresh_var(name, state)) for name in s.decls]
        # reversed, so that a name declared twice maps to its first fresh name
        mapping = dict(zip(reversed(s.decls), reversed(fresh)))
        zeros = [Elem(var, IntLit(0)) for var in fresh[1:]]
        rest = Scope((), subst_stmt(s.body, mapping))
        return Trace((state, state.set(fresh[0].name, 0))), _norm_upstmt(zeros, rest)

    def _return(self, state: State, s: Return) -> Tuple[Trace, Cont]:
        return event_trace(state, RetEv(eval_expr(state, s.expr))), None

    def _update_head(self, state: State, us: UpStmt) -> Tuple[Trace, Cont]:
        atom = us.atoms[0]
        rest = _norm_upstmt(us.atoms[1:], us.stmt)
        if isinstance(atom, Elem):
            # as the assignment of its expression to its target
            return self._assign(state, atom)[0], rest
        if isinstance(atom, CallUpd):
            # invokes the full program semantics from the last state
            sub = run_cont(singleton(state), CallAssign(atom.target, atom.proc, atom.arg),
                           self.table, fuel=self.fuel,
                           next_id=self.next_id, next_fresh=self.next_fresh)
            self.fuel = sub.fuel
            self.next_id = sub.next_id
            self.next_fresh = sub.next_fresh
            return sub.trace, rest
        if isinstance(atom, StartUpd):
            arg = eval_expr(state, atom.arg)
            cid = eval_expr(state, atom.call_id)
            self.note_call_id(cid)
            tr = Trace((state, CallEv(atom.proc, arg, cid), state,
                        PushEv(Ctx(atom.proc, cid)), state))
            return tr, rest
        if isinstance(atom, FinishUpd):
            v = eval_expr(state, atom.arg)
            cid = eval_expr(state, atom.call_id)
            after = state.set(res_name(cid), v)
            tr = Trace((state, RetEv(v), state, after, PopEv(Ctx(atom.proc, cid)), after))
            return tr, rest
        raise RunError(f"cannot evaluate update atom {atom!r}")

    _LOCAL = {Skip: _skip, Assign: _assign, CallAssign: _call_assign,
              If: _if, While: _while, Seq: _seq, Scope: _scope, Return: _return,
              UpStmt: _update_head}

    def local_eval(self, state: State, item: Union[Stmt, UpStmt]) -> Tuple[Trace, Cont]:
        rule = self._LOCAL.get(type(item))
        if rule is None:
            raise RunError(f"cannot evaluate {item!r}")
        return rule(self, state, item)

    # -- composition --------------------------------------------------------

    @property
    def done(self) -> bool:
        e = self.entries
        kind = type(e[-2]) if len(e) > 1 else State
        return self.cont is None and kind is not CallEv and kind is not RetEv

    def step(self):
        """Apply exactly one composition rule: Call after a callEv, Return
        after a retEv, Progress otherwise."""
        entries = self.entries
        kind = type(entries[-2]) if len(entries) > 1 else State
        if self.cont is None and kind is not CallEv and kind is not RetEv:
            raise RunError("no rule applies to a final configuration")
        if self.fuel <= 0:
            raise FuelExhausted(self.trace)
        self.fuel -= 1
        state = entries[-1]
        if kind is CallEv:
            ev: CallEv = entries[-2]
            proc = lookup(ev.proc, self.table)
            inlined = subst_stmt(proc.body, {proc.param: IntLit(ev.arg)})
            ctx = Ctx(ev.proc, ev.call_id)
            self.ctxs.append(ctx)
            entries += (PushEv(ctx), state)
            self.cont = _seq(inlined, self.cont)
        elif kind is RetEv:
            if not self.ctxs:
                raise RunError("return event outside any call context")
            ctx = self.ctxs.pop()
            after = state.set(res_name(ctx.call_id), entries[-2].value)
            entries += (after, PopEv(ctx), after)
        else:  # Progress
            tr, cont = self.local_eval(state, self.cont)
            self.extend(tr)
            self.cont = cont

    def run(self) -> "Machine":
        while not self.done:
            self.step()
        return self


def run_cont(trace: Trace, cont: Cont, table: LookupTable, fuel: int = DEFAULT_FUEL,
             next_id: int = 0, next_fresh: int = 0) -> Machine:
    """Run cont from the end of trace; call ids and fresh-name suffixes
    continue from next_id and next_fresh."""
    return Machine(trace, cont, table, fuel, next_id, next_fresh).run()


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
    machine = run_cont(singleton(sigma0), program.main_body, table,
                       fuel=fuel, next_id=0, next_fresh=0)
    return machine.trace

