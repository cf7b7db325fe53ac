"""Trace data model: states, event markers, chop, call nesting, adequacy.

A trace is a finite alternating sequence of states and event markers.
Every event marker sits between two copies of the same state (events do
not change the state), so non-empty traces begin and end with a state.
Call nesting has one forward rule, ``nest``: a pushEv opens its context
and a popEv closes the innermost open one.  The interpreter, adequacy and
``ret_owners`` each apply it while walking a trace once.

A ``.trace.json`` file (format v2) is a JSON array with one entry per
line.  The first is the header ``{"format": "tracelet-trace", "version":
2}``.  The first state entry holds all its bindings; each later one holds
only the bindings that differ from the previous state entry, plus
``"unset": [names]`` for bindings that disappear, so an event's flank is
``{"state": {}}``.  Event entries are ``{"event": {...}}`` with sorted
keys.  ``load_trace`` walks the array with json's C scanner and turns each
element into its entry before it decodes the next, so it holds the loaded
trace plus one element, never the whole decoded document.  It turns a
one-binding change into ``set`` on the previous state, whose record keeps
adequacy's step check O(1).  A file without the header is v1, where every
state entry holds all its bindings; it is still read.
"""

from __future__ import annotations

import json
import operator
import re
from itertools import chain
from json.decoder import JSONDecoder
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from typing import Iterable, Optional, Union

from .lang import (Binary, BoolLit, Expr, IntLit, ResVar, Unary, Var, record)


class TraceError(Exception):
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

_EMPTY = {}  # the overlay of a state that has none; never changed
_UNBOUND = object()  # what State._get gives for a name it lacks


class State:
    """Immutable partial map from variable names to integers.

    A state is a base dict, shared with the states ``set`` makes from it,
    plus an overlay of the bindings set since, which win over the base's.
    ``set`` copies only the overlay, and merges it into a new base once
    it holds about sqrt(len(base)) bindings, so a chain of sets costs
    O(sqrt(n)) time and memory per state, not O(n).  Neither dict changes
    once a state holds it.

    A state made by ``parent.set(name, ...)`` records ``_parent`` and
    ``_name``; both are None otherwise.  Adequacy and ``dump_trace`` read
    them, equality and hashing ignore them.
    """

    __slots__ = ("_base", "_over", "_hash", "_parent", "_name")

    def __init__(self, bindings=None):
        self._base = dict(bindings) if bindings else {}
        self._over = _EMPTY
        self._hash = None
        self._parent = self._name = None

    @classmethod
    def _adopt(cls, base: dict, over: dict = _EMPTY, parent=None, name=None) -> "State":
        """A state that takes ownership of its dicts, without a copy."""
        state = cls.__new__(cls)
        state._base = base
        state._over = over
        state._hash = None
        state._parent, state._name = parent, name
        return state

    def set(self, name: str, value: int) -> "State":
        base, over = self._base, self._over
        if len(over) ** 2 < len(base):
            over = over.copy()
            over[name] = value
            return State._adopt(base, over, self, name)
        base = {**base, **over}
        base[name] = value
        return State._adopt(base, _EMPTY, self, name)

    def _get(self, name: str):
        over = self._over
        return over[name] if name in over else self._base.get(name, _UNBOUND)

    def get(self, name: str) -> int:
        over = self._over
        if name in over:
            return over[name]
        try:
            return self._base[name]
        except KeyError:
            raise UndefinedVariable(f"variable {name!r} is unbound") from None

    def __contains__(self, name: str) -> bool:
        return name in self._over or name in self._base

    def _full(self) -> dict:
        """All bindings; the base itself when the overlay is empty."""
        return {**self._base, **self._over} if self._over else self._base

    def bindings(self) -> dict:
        return {**self._base, **self._over}

    def __eq__(self, other):
        return self is other or (isinstance(other, State) and self._full() == other._full())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._full().items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._full().items()))
        return f"[{inner}]"


_STRICT = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_expr(state: State, e: Expr, env=None):
    """Standard evaluation; env carries logical variables.

    Logical bindings take precedence: a fixed point's bound parameters
    must not be shadowed by program variables of the same name.
    """
    kind = type(e)
    if kind is Binary:
        op = e.op
        left = eval_expr(state, e.left, env)
        if op == "&&":
            return bool(left) and bool(eval_expr(state, e.right, env))
        if op == "||":
            return bool(left) or bool(eval_expr(state, e.right, env))
        fn = _STRICT.get(op)
        if fn is not None:
            return fn(left, eval_expr(state, e.right, env))
    elif kind is Var:
        name = e.name
        if env and name in env:
            return env[name]
        return state.get(name)
    elif kind is IntLit or kind is BoolLit:
        return e.value
    elif kind is ResVar:
        return state.get(res_name(eval_expr(state, e.index, env)))
    elif kind is Unary:
        v = eval_expr(state, e.operand, env)
        return -v if e.op == "-" else (not v)
    raise TraceError(f"cannot evaluate {e!r}")


# ---------------------------------------------------------------------------
# Event markers
# ---------------------------------------------------------------------------

@record(frozen=True)
class Ctx:
    proc: str
    call_id: Optional[int]  # None encodes the distinguished 'nul' id

    def __repr__(self):
        cid = "nul" if self.call_id is None else self.call_id
        return f"({self.proc},{cid})"


@record(frozen=True)
class CallEv:
    proc: str
    arg: int
    call_id: int

    def __repr__(self):
        return f"callEv({self.proc},{self.arg},{self.call_id})"


@record(frozen=True)
class RetEv:
    value: int

    def __repr__(self):
        return f"retEv({self.value})"


@record(frozen=True)
class PushEv:
    ctx: Ctx

    def __repr__(self):
        return f"pushEv{self.ctx!r}"


@record(frozen=True)
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

    def last(self) -> State:
        if self.is_empty:
            raise EmptyTraceError("last of empty trace")
        return self.entries[-1]


def singleton(state: State) -> Trace:
    return Trace((state,))


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

@record(frozen=True)
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
                    diff, _ = _step_diff(prev_state, entry)
                    ev = ent[pending[1]]
                    if len(diff) == 1:
                        [name] = diff
                        if name.startswith("res") and \
                                is_set(entry, prev_state, name, ev.value):
                            pending = ("pop", pending[1])
                            pos += 1
                            continue
                    return _viol("strict", pos, "retEv must be followed by its res update")
                if kind == "pop":
                    return _viol("strict", pos, "only popEv may follow a retEv's res update")
            # an event step skips its closing state, so prev_state is a state
            diff, removed = _step_diff(prev_state, entry)
            if len(diff) > 1:
                return _viol("1", pos, f"more than one variable changes: {sorted(diff)}")
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
                ok = is_set(prev_state, before, rn, ret_ev.value)
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


def _step_diff(a: State, b: State) -> tuple:
    """(names whose binding differs, names b lacks) from a to b.

    O(1) when b was made by ``a.set``: its record names the one binding
    that can differ, and nothing is removed.  Otherwise both maps are
    compared.
    """
    if b._parent is a:
        name = b._name
        return (set() if a._get(name) == b._get(name) else {name}), ()
    a, b = a._full(), b._full()
    return {k for k, _ in a.items() ^ b.items()}, a.keys() - b.keys()


def is_set(b: State, a: State, name: str, value) -> bool:
    """b == a.set(name, value), in O(1) when b was made by ``a.set``."""
    if b._parent is not a:
        return b == a.set(name, value)
    changed = b._name
    # the binding b changed must be a's own unless it is name itself
    return b._get(name) == value and (changed == name or a._get(changed) == b._get(changed))


# ---------------------------------------------------------------------------
# JSON serialization (.trace.json)
# ---------------------------------------------------------------------------

_HEADER = {"format": "tracelet-trace", "version": 2}
_HEADER_LINE = json.dumps(_HEADER)
_SAME = '{"state": {}}'


def _json(value) -> str:
    """value as json.dumps writes it."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


def _state_entry(prev: Optional[State], state: State) -> str:
    """The entry of state after the state entry prev: all its bindings
    when prev is None, else those that differ from prev's, and "unset"
    for the names it lacks."""
    if prev is None:
        return '{"state": %s}' % json.dumps(state._full(), sort_keys=True)
    if state is prev:
        return _SAME
    if state._parent is prev:
        name = state._name
        value = state._get(name)
        if _same(prev._get(name), value):
            return _SAME
        return '{"state": {%s: %s}}' % (encode_basestring_ascii(name), _json(value))
    a, b = prev._full(), state._full()
    changed = {k: v for k, v in b.items() if k not in a or not _same(a[k], v)}
    removed = a.keys() - b.keys()
    unset = ', "unset": %s' % json.dumps(sorted(removed)) if removed else ""
    return '{"state": %s%s}' % (json.dumps(changed, sort_keys=True), unset)


def _event_entry(e) -> str:
    """The entry of an event: its fields, keys sorted as json.dumps sorts them."""
    kind = type(e)
    if kind is CallEv:
        return '{"event": {"arg": %s, "id": %s, "kind": "callEv", "proc": %s}}' % (
            _json(e.arg), _json(e.call_id), _json(e.proc))
    if kind is RetEv:
        return '{"event": {"kind": "retEv", "val": %s}}' % _json(e.value)
    # a PushEv or a PopEv
    return '{"event": {"id": %s, "kind": "%s", "proc": %s}}' % (
        _json(e.ctx.call_id), "pushEv" if kind is PushEv else "popEv", _json(e.ctx.proc))


def dump_trace(t: Trace) -> str:
    """The v2 text of a trace: the header, then one entry per line."""
    lines = ["[\n" + _HEADER_LINE]
    prev = None
    try:
        for e in t.entries:
            if is_state(e):
                lines.append(_state_entry(prev, e))
                prev = e
            else:
                lines.append(_event_entry(e))
    except ValueError as err:  # an integer past Python's digit limit
        raise TraceError(f"cannot write the trace: {err}") from None
    lines[-1] += "\n]\n"  # the brackets ride on the first and last line: one join
    return ",\n".join(lines)


def _checked(bindings: dict) -> dict:
    if not {int}.issuperset(map(type, bindings.values())):
        raise TraceError("state values must be integers")
    return bindings


def _field(ev: dict, key: str, kind: type):
    value = ev[key]
    if type(value) is not kind:
        raise TraceError(f"event field {key!r} must be of type {kind.__name__}: {value!r}")
    return value


def entry_from_json(obj):
    if "state" in obj:
        return State._adopt(_checked(obj["state"]))
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


def _shared(objs) -> list:
    """The entries of v1 objects, consecutive equal states as one State."""
    entries = []
    state = None
    for obj in objs:
        entry = entry_from_json(obj)
        if isinstance(entry, State):
            if state is not None and entry == state:
                entry = state
            state = entry
        entries.append(entry)
    return entries


def _applied(state: Optional[State], changed: dict, obj: dict) -> State:
    """state with the names of the entry's "unset" removed and changed bound."""
    bindings = state.bindings() if state is not None else {}
    if "unset" in obj:
        unset = obj["unset"]
        if type(unset) is not list or not {str}.issuperset(map(type, unset)):
            raise TraceError('"unset" must be a list of variable names')
        for name in unset:
            if name not in bindings:
                raise TraceError(f"unset of the unbound variable {name!r}")
            del bindings[name]
    bindings.update(_checked(changed))
    return State._adopt(bindings)


def _v2_entries(head: dict, objs) -> list:
    """The entries of the v2 objects after the header head.  A one-binding
    change is ``set`` on the previous state, and an empty one repeats it."""
    if head.get("format") != _HEADER["format"]:
        raise TraceError(f"unknown trace format {head.get('format')!r}")
    version = head.get("version")
    if type(version) is not int or version != _HEADER["version"]:
        raise TraceError(f"unknown trace format version {version!r}")
    entries = []
    state = None
    names = {}  # one str per variable name, as one json.loads would share it
    for obj in objs:
        if "state" not in obj:
            entries.append(entry_from_json(obj))
            continue
        changed = obj["state"]
        if type(changed) is not dict:
            raise TraceError("a state entry holds an object of bindings")
        if state is None or len(obj) > 1 or len(changed) > 1:
            state = _applied(state, changed, obj)
        elif changed:
            [(name, value)] = changed.items()
            if type(value) is not int:
                raise TraceError("state values must be integers")
            state = state.set(names.setdefault(name, name), value)
        entries.append(state)
    return entries


_scan = make_scanner(JSONDecoder())
_SPACE = re.compile(r"[ \t\n\r]*")  # what json.loads skips between values


def _elements(text: str):
    """The elements of the JSON array text, each decoded when it is
    reached, so that one element's objects are freed before the next is
    read.  Raises ValueError where the text is not a JSON array."""
    pos = _SPACE.match(text).end()
    if not text.startswith("[", pos):
        raise ValueError("not a JSON array")
    pos = _SPACE.match(text, pos + 1).end()
    if not text.startswith("]", pos):
        while True:
            try:
                obj, pos = _scan(text, pos)
            except StopIteration:
                raise ValueError("expecting a value") from None
            yield obj
            if text.startswith(",\n{", pos):  # the separator dump_trace writes
                pos += 2
                continue
            pos = _SPACE.match(text, pos).end()
            if text.startswith("]", pos):
                break
            if not text.startswith(",", pos):
                raise ValueError("expecting ',' or ']'")
            pos = _SPACE.match(text, pos + 1).end()
    if _SPACE.match(text, pos + 1).end() != len(text):
        raise ValueError("extra data")


def _entries(text: str) -> list:
    """The entries of a trace text: v2 when its first element is a header."""
    objs = _elements(text)
    for head in objs:
        if isinstance(head, dict) and "format" in head:
            return _v2_entries(head, objs)
        return _shared(chain((head,), objs))
    return []


def load_trace(text: str) -> Trace:
    """Parse a .trace.json text, v2 or v1; any malformed input raises TraceError.

    The text is read one array element at a time.  The walk stops at the
    first fault; json.loads of the whole text then reports a syntax fault
    anywhere in it first, as reading the whole text before any entry does.
    """
    try:
        return Trace(_entries(text))
    except TraceError as e:
        fault = e
    except KeyError as e:
        fault = TraceError(f"trace entry lacks the key {e}")
    except (ValueError, TypeError, AttributeError, RecursionError) as e:
        fault = TraceError(f"malformed trace file: {e}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise TraceError(f"malformed trace file: {e}") from None
    if not isinstance(data, list):
        raise TraceError("a trace file holds a JSON array of entries")
    raise fault
