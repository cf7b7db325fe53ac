"""Trace data model: states, event markers, chop, call nesting, adequacy.

A trace is a finite alternating sequence of states and event markers.
Every event marker sits between two copies of the same state (events do
not change the state), so non-empty traces begin and end with a state.
Call nesting has one forward rule, ``nest``: a pushEv opens its context
and a popEv closes the innermost open one.  The interpreter, adequacy and
``ret_owners`` each apply it while walking a trace once.

A ``.trace.json`` file holds one entry per line, each the bytes of
``json.dumps(entry_to_json(e), sort_keys=True)``.  The two flanks of an
event are one object and a state step changes one variable, so a file
costs about its distinct states, not its bytes: ``dump_trace`` writes a
state made by ``set`` from the previous one by splicing one
``"name": value`` fragment into the previous line, and ``load_trace``
reuses the previous State when an entry repeats its text and splices a
long line that differs from the previous one in one fragment.
"""

from __future__ import annotations

import json
import operator
import re
from bisect import bisect_left
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Union

from .lang import (Binary, BoolLit, Expr, IntLit, ResVar, Unary, Var, record)


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
    """Immutable partial map from variable names to integers.

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
    def _adopt(cls, bindings: dict, src=None) -> "State":
        """A state that takes ownership of bindings, without a copy."""
        state = cls.__new__(cls)
        state._b = bindings
        state._hash = None
        state._src = src
        return state

    def set(self, name: str, value: int) -> "State":
        new = dict(self._b)
        new[name] = value
        return State._adopt(new, (self, name))

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
        return self is other or (isinstance(other, State) and self._b == other._b)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._b.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._b.items()))
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
        try:
            return state._b[name]
        except KeyError:
            raise UndefinedVariable(name) from None
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


MAIN_CTX = Ctx("main", None)


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


def event_trace(state: State, ev: EventMarker) -> Trace:
    # the evTrio shape: <s> . ev . s
    return Trace((state, ev, state))


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
                                _is_set(entry, prev_state, name, ev.value):
                            pending = ("pop", pending[1])
                            pos += 1
                            continue
                    return _viol("strict", pos, "retEv must be followed by its res update")
                if kind == "pop":
                    return _viol("strict", pos, "only popEv may follow a retEv's res update")
            if not is_state(prev_state):
                return _viol("shape", pos, "adjacent event entries")
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
                ok = _is_set(prev_state, before, rn, ret_ev.value)
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
    if b._src is not None and b._src[0] is a:
        name = b._src[1]
        same = name in a._b and a._b[name] == b._b[name]
        return (set() if same else {name}), ()
    return {k for k, _ in a._b.items() ^ b._b.items()}, a._b.keys() - b._b.keys()


def _is_set(b: State, a: State, name: str, value) -> bool:
    """b == a.set(name, value), in O(1) when b was made by ``a.set``."""
    if b._src is None or b._src[0] is not a:
        return b == a.set(name, value)
    changed = b._src[1]
    if name not in b._b or b._b[name] != value:
        return False
    # the binding b changed must be a's own unless it is name itself
    return changed == name or (changed in a._b and a._b[changed] == b._b[changed])


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
        bindings = obj["state"]
        if not {int}.issuperset(map(type, bindings.values())):
            raise TraceError("state values must be integers")
        return State._adopt(bindings)
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


def _fragment(name: str, value) -> str:
    """One ``"name": value`` pair of a state line, as json.dumps writes it."""
    return encode_basestring_ascii(name) + ": " + (
        repr(value) if type(value) is int else json.dumps(value))


_HEAD = '{"state": {'


def _state_line(frags: list) -> str:
    return _HEAD + ", ".join(frags) + "}}"


def _fragments(bindings: dict) -> tuple:
    """The sorted names of bindings and their fragments."""
    names = sorted(bindings)
    return names, [_fragment(name, bindings[name]) for name in names]


def _slot(names: list, name: str) -> tuple:
    """Where name goes in the sorted names: (index, 1 if it is there else 0)."""
    k = bisect_left(names, name)
    return k, int(k < len(names) and names[k] == name)


def dump_trace(t: Trace) -> str:
    """One entry per line, each ``json.dumps(entry_to_json(e), sort_keys=True)``.

    State lines come from one sorted fragment list: a state made by ``set``
    from the previous state entry replaces or inserts one fragment, the
    same object repeats the previous line, and any other state rebuilds
    the list.
    """
    parts = ["[\n"]
    prev = line = None
    names: list = []
    frags: list = []
    for e in t.entries:
        if not is_state(e):
            parts += (json.dumps(entry_to_json(e), sort_keys=True), ",\n")
            continue
        if e is not prev:
            if e._src is not None and e._src[0] is prev:
                name = e._src[1]
                k, rep = _slot(names, name)
                names[k:k + rep] = [name]
                frags[k:k + rep] = [_fragment(name, e._b[name])]
            else:
                names, frags = _fragments(e._b)
            line = _state_line(frags)
            prev = e
        parts += (line, ",\n")
    # one join: the last separator closes the array, an empty one keeps its blank line
    if t.entries:
        parts[-1] = "\n]\n"
    else:
        parts.append("\n]\n")
    return "".join(parts)


_WS = re.compile(r"[ \t\n\r]*")
_NEXT = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*")
_PAIR = re.compile(r'"([^"\\]*)": (-?[0-9]+)')
# A state line shorter than this decodes about as fast as it splices.
_SPLICE_MIN = 256


def _common_prefix(a: str, text: str, pos: int) -> int:
    """Length of the longest common prefix of a and text[pos:]."""
    lo, hi = 0, len(a)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if text.startswith(a[lo:mid], pos + lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _spliced(text: str, pos: int, span: str, state: State, names: list, frags: list):
    """The entry at pos as ``(state.set(name, value), its line)``, or None.

    names and frags are the sorted names and fragments of state, and span
    its source text.  The fragment where the text first departs from span
    is read as the change.  It counts only when the text starts with the
    whole rebuilt line, which decodes to exactly the new bindings; then
    names and frags are updated to the new state.
    """
    n = _common_prefix(span, text, pos)
    m = _PAIR.match(text, pos + max(span.rfind(', "', 0, n + 1) + 2, len(_HEAD)))
    if m is not None and m.end() <= pos + n:  # unchanged: the new fragment follows it
        m = _PAIR.match(text, m.end() + 2)
    if m is None:
        return None
    name = m.group(1)
    try:
        value = int(m.group(2))
    except ValueError:  # more digits than int() converts
        return None
    k, rep = _slot(names, name)
    frag = _fragment(name, value)
    line = _state_line(frags[:k] + [frag] + frags[k + rep:])
    if not text.startswith(line, pos):
        return None
    names[k:k + rep] = [name]
    frags[k:k + rep] = [frag]
    return state.set(name, value), line


def _shared(objs: list) -> list:
    """The entries of decoded objects, consecutive equal states as one State."""
    entries = []
    state = None
    for obj in objs:
        entry = entry_from_json(obj)
        if isinstance(entry, State):
            if state is not None and entry._b == state._b:
                entry = state
            state = entry
        entries.append(entry)
    return entries


def _load_entries(text: str) -> list:
    """The entries of a trace text, at about the cost of its distinct states.

    Bindings only grow along a trace, so its last state is its widest.  A
    text whose last state entry is short decodes fastest in one
    ``json.loads``.  Otherwise the top-level array is walked entry by
    entry: a state entry costs a memcmp when its text repeats the previous
    state entry's source span (the span is a complete JSON object, so it
    decodes to the same bindings and that State is reused), a splice when
    it is a long span with one fragment changed (``_spliced``), and one
    decode otherwise.  Syntax errors carry json's own messages and
    positions.
    """
    ws = _WS.match
    pos = ws(text).end()
    last = text.rfind('"state"')
    if not text.startswith("[", pos) or last < 0 or len(text) - last < _SPLICE_MIN:
        data = json.loads(text)
        if not isinstance(data, list):
            raise TraceError("a trace file holds a JSON array of entries")
        return _shared(data)
    # the text holds a "state" key, so a well-formed one has an entry
    scan = json.JSONDecoder().scan_once
    entries = []
    span = state = frame = None  # frame: state's (names, frags), made on its first splice
    pos = ws(text, pos + 1).end()
    while True:
        if span is not None and text.startswith(span, pos):
            entry, end = state, pos + len(span)
        else:
            hit = None
            # only a long line in dump_trace's layout is worth splicing
            if span is not None and len(span) >= _SPLICE_MIN and text.startswith(_HEAD, pos):
                frame = frame or _fragments(state._b)
                hit = _spliced(text, pos, span, state, *frame)
            if hit:
                entry = state = hit[0]
                span = hit[1]
                end = pos + len(span)
            else:
                try:
                    obj, end = scan(text, pos)
                except StopIteration as e:
                    raise json.JSONDecodeError("Expecting value", text, e.value) from None
                entry = entry_from_json(obj)
                if is_state(entry):
                    span, state, frame = text[pos:end], entry, None
        entries.append(entry)
        m = _NEXT.match(text, end)
        if m is None:
            raise json.JSONDecodeError("Expecting ',' delimiter", text, ws(text, end).end())
        pos = m.end()
        if m.group(1) == "]":
            break
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return entries


def load_trace(text: str) -> Trace:
    """Parse a .trace.json text; any malformed input raises TraceError."""
    try:
        return Trace(_load_entries(text))
    except KeyError as e:
        raise TraceError(f"trace entry lacks the key {e}") from None
    except (ValueError, TypeError, AttributeError, RecursionError) as e:
        raise TraceError(f"malformed trace file: {e}") from None
