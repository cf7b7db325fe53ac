"""Trace data model: states, event markers, chop, call nesting, adequacy.

A trace is a finite alternating sequence of states and event markers.
Every event marker sits between two copies of the same state (events do
not change the state), so non-empty traces begin and end with a state.
Call nesting has one forward rule, ``nest``: a pushEv opens its context
and a popEv closes the innermost open one.  The interpreter, adequacy and
``ret_owners`` each apply it while walking a trace once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Union

from .lang import (Binary, BoolLit, Expr, IntLit, ResVar, Unary, Var)


class TraceError(Exception):
    pass


class ChopUndefined(TraceError):
    def __init__(self, last_state, first_state):
        super().__init__(f"chop undefined: boundary states differ "
                         f"({last_state} vs {first_state})")
        self.last_state = last_state
        self.first_state = first_state


class MalformedNesting(TraceError):
    pass


class UndefinedVariable(TraceError):
    pass


class EmptyTraceError(TraceError):
    pass


def res_name(call_id: int) -> str:
    return f"res{call_id}"


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

class State:
    """Immutable partial map from variable names to integers."""

    __slots__ = ("_b", "_hash")

    def __init__(self, bindings=None):
        self._b = dict(bindings) if bindings else {}
        self._hash = None

    def set(self, name: str, value: int) -> "State":
        new = dict(self._b)
        new[name] = value
        return State(new)

    def get(self, name: str) -> int:
        try:
            return self._b[name]
        except KeyError:
            raise UndefinedVariable(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._b

    def bindings(self) -> dict:
        return dict(self._b)

    def __eq__(self, other):
        return isinstance(other, State) and self._b == other._b

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._b.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._b.items()))
        return f"[{inner}]"


def eval_expr(state: State, e: Expr, env=None):
    """Standard evaluation; env carries logical variables.

    Logical bindings take precedence: a fixed point's bound parameters
    must not be shadowed by program variables of the same name.
    """
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Var):
        if env and e.name in env:
            return env[e.name]
        if e.name in state:
            return state.get(e.name)
        raise UndefinedVariable(e.name)
    if isinstance(e, ResVar):
        idx = eval_expr(state, e.index, env)
        return state.get(res_name(idx))
    if isinstance(e, Unary):
        v = eval_expr(state, e.operand, env)
        return -v if e.op == "-" else (not v)
    if isinstance(e, Binary):
        l = eval_expr(state, e.left, env)
        if e.op == "&&":
            return bool(l) and bool(eval_expr(state, e.right, env))
        if e.op == "||":
            return bool(l) or bool(eval_expr(state, e.right, env))
        r = eval_expr(state, e.right, env)
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
    raise TraceError(f"cannot evaluate {e!r}")


# ---------------------------------------------------------------------------
# Event markers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ctx:
    proc: str
    call_id: Optional[int]  # None encodes the distinguished 'nul' id

    def __repr__(self):
        cid = "nul" if self.call_id is None else self.call_id
        return f"({self.proc},{cid})"


MAIN_CTX = Ctx("main", None)


@dataclass(frozen=True)
class CallEv:
    proc: str
    arg: int
    call_id: int

    def __repr__(self):
        return f"callEv({self.proc},{self.arg},{self.call_id})"


@dataclass(frozen=True)
class RetEv:
    value: int

    def __repr__(self):
        return f"retEv({self.value})"


@dataclass(frozen=True)
class PushEv:
    ctx: Ctx

    def __repr__(self):
        return f"pushEv{self.ctx!r}"


@dataclass(frozen=True)
class PopEv:
    ctx: Ctx

    def __repr__(self):
        return f"popEv{self.ctx!r}"


EventMarker = Union[CallEv, RetEv, PushEv, PopEv]


def is_state(entry) -> bool:
    return isinstance(entry, State)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class Trace:
    """Immutable sequence of State and EventMarker entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable = ()):
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Trace) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Trace(" + " . ".join(repr(e) for e in self.entries) + ")"

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def first(self) -> State:
        if self.is_empty:
            raise EmptyTraceError("first of empty trace")
        return self.entries[0]

    def last(self) -> State:
        if self.is_empty:
            raise EmptyTraceError("last of empty trace")
        return self.entries[-1]


def singleton(state: State) -> Trace:
    return Trace((state,))


def event_trace(state: State, ev: EventMarker) -> Trace:
    # the evTrio shape: <s> . ev . s
    return Trace((state, ev, state))


def chop(t1: Trace, t2: Trace) -> Trace:
    """Semantic chop: fuse equal boundary states; undefined on mismatch."""
    if t1.is_empty:
        raise EmptyTraceError("chop requires non-empty left trace")
    if t2.is_empty:
        raise EmptyTraceError("chop requires non-empty right trace")
    if t1.last() != t2.first():
        raise ChopUndefined(t1.last(), t2.first())
    return Trace(t1.entries[:-1] + t2.entries)


def concat(t1: Trace, t2: Trace) -> Trace:
    return Trace(t1.entries + t2.entries)


def nest(ctxs: list, entries) -> list:
    """Apply the entries' pushEv/popEv to ctxs, the open contexts innermost last.

    A pushEv opens its context; a popEv closes the innermost open one, and
    closes nothing when none is open.  The current context of a trace is
    ``nest([], entries)[-1]``, or (main, nul) when the stack is empty.
    """
    for entry in entries:
        if isinstance(entry, PushEv):
            ctxs.append(entry.ctx)
        elif isinstance(entry, PopEv) and ctxs:
            ctxs.pop()
    return ctxs


def ret_owners(t: Trace) -> dict:
    """Map retEv positions to the context they return from (or None).

    The owner of a retEv is the innermost open pushEv context at that
    point; it names the procedure the retEv belongs to.
    """
    owners = {}
    stack = []
    for pos, entry in enumerate(t.entries):
        if isinstance(entry, RetEv):
            owners[pos] = stack[-1] if stack else None
        else:
            nest(stack, (entry,))
    return owners


def event_involves(entry, procs, owner: Optional[Ctx]) -> bool:
    """Whether an event entry involves one of the procedures in procs.

    A retEv involves the procedure of its owner (see ret_owners); a state
    involves none.
    """
    if isinstance(entry, CallEv):
        return entry.proc in procs
    if isinstance(entry, (PushEv, PopEv)):
        return entry.ctx.proc in procs
    if isinstance(entry, RetEv):
        return owner is not None and owner.proc in procs
    return False


# ---------------------------------------------------------------------------
# Adequacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdequacyVerdict:
    adequate: bool
    clause: Optional[str] = None  # '1'..'5', 'strict', or 'shape'
    position: Optional[int] = None
    reason: str = ""

    def __bool__(self):
        return self.adequate


_OK = AdequacyVerdict(True)


def _viol(clause, pos, reason):
    return AdequacyVerdict(False, clause, pos, reason)


def is_adequate(t: Trace, strict: bool = True) -> AdequacyVerdict:
    """Check the step-by-step well-formedness of a trace.

    Clauses: (1) single-variable state update, (2) callEv with fresh id
    after a non-call/ret event, (3) retEv likewise, (4) pushEv directly
    chopped onto its callEv, (5) popEv directly after the retEv's
    res-update in the matching context.  Strict mode additionally forces
    the pushEv/popEv to follow their callEv/retEv immediately.  One
    forward pass keeps the last event seen and the open contexts (``nest``).
    """
    if t.is_empty:
        raise EmptyTraceError("adequacy of empty trace")
    ent = t.entries
    if not is_state(ent[0]):
        return _viol("shape", 0, "trace must start with a state")

    used_ids = set()
    lastev = None
    ctxs = []
    pos = 1
    n = len(ent)
    # pending: None | ('push', call_pos) | ('ret-state', ret_pos) | ('pop', ret_pos)
    pending = None
    while pos < n:
        prev_state = ent[pos - 1]
        entry = ent[pos]
        if is_state(entry):
            if pending is not None and strict:
                kind = pending[0]
                if kind == "push":
                    return _viol("strict", pos, "only pushEv may follow callEv")
                if kind == "ret-state":
                    diff = _state_diff(prev_state, entry)
                    ev = ent[pending[1]]
                    if len(diff) == 1 and list(diff)[0].startswith("res") and \
                            entry == prev_state.set(list(diff)[0], ev.value):
                        pending = ("pop", pending[1])
                        pos += 1
                        continue
                    return _viol("strict", pos, "retEv must be followed by its res update")
                if kind == "pop":
                    return _viol("strict", pos, "only popEv may follow a retEv's res update")
            if not is_state(prev_state):
                return _viol("shape", pos, "adjacent event entries")
            diff = _state_diff(prev_state, entry)
            if len(diff) > 1:
                return _viol("1", pos, f"more than one variable changes: {sorted(diff)}")
            removed = prev_state._b.keys() - entry._b.keys()
            if removed:
                return _viol("1", pos, f"bindings disappear: {sorted(removed)}")
            if not strict:
                pending = None
            pos += 1
            continue

        # event step: entry is an event, needs equal flanking states
        if pos + 1 >= n or not is_state(ent[pos + 1]) or ent[pos + 1] != prev_state:
            return _viol("shape", pos, "event not flanked by equal states")
        if isinstance(entry, CallEv):
            if pending is not None and strict:
                return _viol("strict", pos, "event out of place after callEv/retEv")
            if isinstance(lastev, (CallEv, RetEv)):
                return _viol("2" if isinstance(lastev, CallEv) else "3", pos,
                             "callEv may not directly follow callEv/retEv")
            if entry.call_id in used_ids:
                return _viol("2", pos, f"call identifier {entry.call_id} reused")
            used_ids.add(entry.call_id)
            pending = ("push", pos)
        elif isinstance(entry, RetEv):
            if pending is not None and strict:
                return _viol("strict", pos, "event out of place after callEv/retEv")
            if isinstance(lastev, (CallEv, RetEv)):
                return _viol("3", pos, "retEv may not directly follow callEv/retEv")
            pending = ("ret-state", pos)
        elif isinstance(entry, PushEv):
            # clause 4: the prefix must end with the matching callEv trio
            prev_ev = ent[pos - 2] if pos >= 2 else None
            if not (isinstance(prev_ev, CallEv) and
                    prev_ev.proc == entry.ctx.proc and
                    prev_ev.call_id == entry.ctx.call_id):
                return _viol("4", pos, "pushEv without directly preceding callEv")
            used_ids.add(entry.ctx.call_id)
            pending = None
        elif isinstance(entry, PopEv):
            ok = False
            if pos >= 4 and isinstance(ent[pos - 3], RetEv) and is_state(ent[pos - 2]):
                ret_ev = ent[pos - 3]
                before = ent[pos - 2]
                rn = res_name(entry.ctx.call_id)
                ok = prev_state == before.set(rn, ret_ev.value)
            if not ok and pos >= 2 and isinstance(ent[pos - 2], RetEv):
                # res value was already in place, no separate update step
                ok = True
            if not ok:
                return _viol("5", pos, "popEv without preceding retEv/res update")
            if not ctxs:
                return _viol("5", pos, "popEv with malformed nesting")
            if ctxs[-1] != entry.ctx:
                return _viol("5", pos, f"popEv context {entry.ctx!r} but current is {ctxs[-1]!r}")
            used_ids.add(entry.ctx.call_id)
            pending = None
        lastev = entry
        nest(ctxs, (entry,))
        pos += 2  # skip the closing flank state
    return _OK


def _state_diff(a: State, b: State) -> set:
    return {k for k, _ in a._b.items() ^ b._b.items()}


# ---------------------------------------------------------------------------
# JSON serialization (.trace.json)
# ---------------------------------------------------------------------------

def entry_to_json(entry):
    if is_state(entry):
        return {"state": entry.bindings()}
    if isinstance(entry, CallEv):
        return {"event": {"kind": "callEv", "proc": entry.proc,
                          "arg": entry.arg, "id": entry.call_id}}
    if isinstance(entry, RetEv):
        return {"event": {"kind": "retEv", "val": entry.value}}
    if isinstance(entry, PushEv):
        return {"event": {"kind": "pushEv", "proc": entry.ctx.proc, "id": entry.ctx.call_id}}
    if isinstance(entry, PopEv):
        return {"event": {"kind": "popEv", "proc": entry.ctx.proc, "id": entry.ctx.call_id}}
    raise TraceError(f"not a trace entry: {entry!r}")


def _field(ev: dict, key: str, kind: type):
    value = ev[key]
    if type(value) is not kind:
        raise TraceError(f"event field {key!r} must be of type {kind.__name__}: {value!r}")
    return value


def entry_from_json(obj):
    if "state" in obj:
        return State(obj["state"])
    ev = obj["event"]
    kind = ev["kind"]
    if kind == "callEv":
        return CallEv(_field(ev, "proc", str), _field(ev, "arg", int), _field(ev, "id", int))
    if kind == "retEv":
        return RetEv(_field(ev, "val", int))
    if kind in ("pushEv", "popEv"):
        ctx = Ctx(_field(ev, "proc", str), _field(ev, "id", int))
        return PushEv(ctx) if kind == "pushEv" else PopEv(ctx)
    raise TraceError(f"unknown event kind {kind!r}")


def trace_from_json(data) -> Trace:
    return Trace(entry_from_json(obj) for obj in data)


def dump_trace(t: Trace) -> str:
    """One entry per line; json's C encoder only runs without indent."""
    return "[\n" + ",\n".join(json.dumps(entry_to_json(e), sort_keys=True)
                              for e in t.entries) + "\n]\n"


def load_trace(text: str) -> Trace:
    """Parse a .trace.json text; any malformed input raises TraceError."""
    try:
        data = json.loads(text)
        if not isinstance(data, list):
            raise TraceError("a trace file holds a JSON array of entries")
        states = [obj["state"] for obj in data if "state" in obj]
        if not {int}.issuperset(map(type, chain.from_iterable(map(dict.values, states)))):
            raise TraceError("state values must be integers")
        return trace_from_json(data)
    except KeyError as e:
        raise TraceError(f"trace entry lacks the key {e}") from None
    except (ValueError, TypeError, AttributeError, RecursionError) as e:
        raise TraceError(f"malformed trace file: {e}") from None
