"""Small-step interpreter: local evaluation plus the three composition rules.

A configuration is a trace together with a continuation (the statement or
update-prefixed statement still to be evaluated).  Exactly one of the
Progress/Call/Return rules applies to every non-final configuration,
selected by whether the trace ends in a call event, a return event, or
neither.  The machine grows its trace in place and keeps the stack of open
call contexts as it goes (``traces.nest``), so Return reads the current
context off the stack and a step costs O(1) amortised entries.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple, Union

from .lang import (Assign, Call, CallAssign, If, IntLit, LookupTable,
                   Program, Return, ResVar, Scope, Seq, Skip, Stmt, Var,
                   While, build_lookup, lookup, record, subst_stmt)
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


_FRESH_RE = re.compile(r"#(\d+)$")


def _counters_from_trace(trace: Trace) -> Tuple[int, int]:
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

    @property
    def trace(self) -> Trace:
        return Trace(self.entries)

    def extend(self, tr: Trace):
        """Chop tr onto the trace: its first state fuses with the last one."""
        last, first = self.entries[-1], tr.first()
        if last != first:
            raise ChopUndefined(last, first)
        nest(self.ctxs, tr.entries)
        self.entries += tr.entries[1:]

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

    # -- local evaluation ---------------------------------------------------

    def local_eval(self, state: State, item: Union[Stmt, UpStmt]) -> Tuple[Trace, Cont]:
        if isinstance(item, UpStmt):
            return self._eval_update_head(state, item)
        return self._eval_stmt(state, item)

    def _eval_stmt(self, state: State, s: Stmt) -> Tuple[Trace, Cont]:
        if isinstance(s, Skip):
            return singleton(state), None
        if isinstance(s, Assign):
            if isinstance(s.target, ResVar):
                # result variables are written by finishEv; this is a no-op
                return singleton(state), None
            v = eval_expr(state, s.expr)
            return Trace((state, state.set(s.target.name, v))), None
        if isinstance(s, CallAssign):
            cid = self.alloc_call_id(state)
            arg = eval_expr(state, s.arg)
            tr = event_trace(state, CallEv(s.proc, arg, cid))
            return tr, Assign(s.target, ResVar(IntLit(cid)))
        if isinstance(s, Call):
            cid = self.alloc_call_id(state)
            arg = eval_expr(state, s.arg)
            return event_trace(state, CallEv(s.proc, arg, cid)), None
        if isinstance(s, If):
            if eval_expr(state, s.cond):
                return singleton(state), s.body
            return singleton(state), None
        if isinstance(s, While):
            return self._eval_stmt(state, If(s.cond, Seq(s.body, s)))
        if isinstance(s, Seq):
            tr, cont = self.local_eval(state, s.first)
            return tr, _seq(cont, s.second)
        if isinstance(s, Scope):
            if s.decls:
                name = s.decls[0]
                fresh = self.fresh_var(name, state)
                rest = Scope(s.decls[1:], subst_stmt(s.body, name, Var(fresh)))
                return Trace((state, state.set(fresh, 0))), rest
            return self.local_eval(state, s.body)
        if isinstance(s, Return):
            v = eval_expr(state, s.expr)
            return event_trace(state, RetEv(v)), None
        raise RunError(f"cannot evaluate {s!r}")

    def _eval_update_head(self, state: State, us: UpStmt) -> Tuple[Trace, Cont]:
        atom = us.atoms[0]
        rest = _norm_upstmt(us.atoms[1:], us.stmt)
        if isinstance(atom, Elem):
            if isinstance(atom.target, ResVar):
                # redundant: its evaluation always follows finishEv
                return singleton(state), rest
            v = eval_expr(state, atom.expr)
            return Trace((state, state.set(atom.target.name, v))), rest
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

    # -- composition --------------------------------------------------------

    def ends_in(self, kind) -> bool:
        e = self.entries
        return len(e) >= 2 and isinstance(e[-2], kind)

    @property
    def done(self) -> bool:
        return self.cont is None and not self.ends_in(CallEv) and not self.ends_in(RetEv)

    def step(self):
        """Apply exactly one composition rule."""
        if self.done:
            raise RunError("no rule applies to a final configuration")
        if self.fuel <= 0:
            raise FuelExhausted(self.trace)
        self.fuel -= 1
        entries = self.entries
        if self.ends_in(CallEv):
            ev: CallEv = entries[-2]
            proc = lookup(ev.proc, self.table)
            inlined = subst_stmt(proc.body, proc.param, IntLit(ev.arg))
            self.extend(event_trace(entries[-1], PushEv(Ctx(ev.proc, ev.call_id))))
            self.cont = _seq(inlined, self.cont)
            return
        if self.ends_in(RetEv):
            ev: RetEv = entries[-2]
            if not self.ctxs:
                raise RunError("return event outside any call context")
            ctx = self.ctxs[-1]
            after = entries[-1].set(res_name(ctx.call_id), ev.value)
            entries.append(after)
            self.extend(event_trace(after, PopEv(ctx)))
            return
        # Progress
        tr, cont = self.local_eval(entries[-1], self.cont)
        self.extend(tr)
        self.cont = cont

    def run(self) -> "Machine":
        while not self.done:
            self.step()
        return self


def run_cont(trace: Trace, cont: Cont, table: LookupTable, fuel: int = DEFAULT_FUEL,
             next_id: Optional[int] = None, next_fresh: Optional[int] = None) -> Machine:
    if next_id is None or next_fresh is None:
        tid, tfresh = _counters_from_trace(trace)
        next_id = tid if next_id is None else next_id
        next_fresh = tfresh if next_fresh is None else next_fresh
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


def semantics(item: Cont, trace: Trace, table: LookupTable,
              fuel: int = DEFAULT_FUEL) -> Trace:
    """Relative semantics [[item]](trace): the appended suffix.

    The suffix shares its first state with trace's last; the full run is
    trace ** suffix.  Counters continue from the ids already in trace.
    """
    machine = run_cont(trace, item, table, fuel=fuel)
    return Trace(machine.entries[len(trace.entries) - 1:])

