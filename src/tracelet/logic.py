"""Fixed-point trace logic: formulas, membership checking, contracts.

Formulas are negation-free and use least fixed points only.  Membership
of a finite trace is decided by memoized descent, a chart parse whose
items are (node, token, lo, hi): the token names the fixed-point entry
(closure and arguments) the node is evaluated under, and a fixed-point
item is its body's item under its own token.  A fixed-point query that
revisits an item already on the descent stack is answered false, which is
exactly the least-fixed-point reading.  A false result that relied on
an item still open is not memoized, since the item may yet turn out
true; true results hold under that assumption too and are always kept.
Each call tracks the lowest open depth its own false relied on, as
Tarjan's lowlink does: an item that relied only on itself or on deeper
items is final when it closes.
One query expands at most ``MEMBER_BUDGET`` fixed-point items.  A false
query's reason (``why_not``) is read from the chart it left, so it
decides no further item.

The cost is in the splits each Concat or Chop tries.  Both share one split
loop, bounded by a static record per node (``_shape``):
- width bounds, and anchors: the event every match has at lo+1 or hi-2,
  so an anchored half fixes the split next to one of its events, found
  by bisection in the sorted positions of that event;
- reach: a psi gap matches only up to the next entry involving an
  excluded procedure.  Two tables per exclusion set answer this, ``nxt``
  (first involving position at or after p) and ``prv`` (last one before
  p).  A node's ``head``/``tail`` is such a gap at its start or end, shifted
  across a fixed-width neighbour; since both tables are monotone, the
  left half's tail clamps the largest split and the right half's head the
  smallest;
- the call id: when every body match of a fixed point starts with a
  ``startEv`` whose id is a parameter, a ``fresh(...)`` argument for that
  parameter is the id of the call at lo+1, not every id in the segment.

Terms are expressions: arithmetic over logical variables, read by
``lang.parse_expr`` and evaluated by ``traces.eval_expr``, or ``fresh(...)``
of one as a whole recursion argument (``lang.Fresh``).  The ``.tcf``
parser is the only check on a formula: it knows the recursion variables
in scope and reports each fault at its token.

``children``/``rebuild`` is the one generic traversal of the formula AST.
It reads a node's fields through ``lang``'s field walk, by annotation: a
``Formula`` or ``Mu`` field holds a sub-formula, an ``Expr`` field a term,
a ``Tuple[Expr, ...]`` field a run of terms, and any other field data.
Free variables, term maps, substitution and the static per-node record
(``_shape``) are written on top of it, and the names a formula uses are
``lang.names``, as for every other node.  Only per-node
analyses keep their own dispatch: membership (``_Member._sat``), the
record's rules per kind and ``pretty_formula``.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import product
from typing import NamedTuple, Optional, Tuple, Union

from .lang import (ARITH_OPS, Binary, Expr, Fresh, IntLit, Names, ParseError,
                   ResVar, TokenStream, Unary, Var, fields, getter, names,
                   nodes, parse_expr, pretty_expr, record, subst_vars,
                   tokenize)
from .traces import (CallEv, PopEv, PushEv, RetEv, State, Trace,
                     UndefinedVariable, eval_expr, event_involves, is_set,
                     is_state, res_name, ret_owners)


class LogicError(Exception):
    pass


class MemberBudgetExceeded(LogicError):
    pass


# fixed-point items one membership query may expand
MEMBER_BUDGET = 500_000


# Terms are arithmetic expressions over logical variables, evaluated in no
# state; a fresh(...) term stands only as a whole recursion argument.
_NO_STATE = State()


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

@record(frozen=True)
class StatePred:
    pred: Expr


@record(frozen=True)
class NoEv:
    """One-entry matcher: a state, or an event not involving the procs."""

    exclude: frozenset  # procedure names; empty set excludes nothing


@record(frozen=True)
class Gap:
    """psi: a trace none of whose events involves an excluded procedure.
    The paper's fixed point mu X. noev \\/ noev .. X as one node, printed
    ``psi(...)``; a fixed point written out so is an ordinary one."""

    exclude: frozenset


@record(frozen=True)
class StartEvF:
    proc: str
    arg: Expr
    call_id: Expr


@record(frozen=True)
class FinishEvF:
    proc: str
    arg: Expr
    call_id: Expr


@record(frozen=True)
class And:
    left: Formula
    right: Formula


@record(frozen=True)
class Or:
    left: Formula
    right: Formula


@record(frozen=True)
class Concat:
    left: Formula
    right: Formula


@record(frozen=True)
class Chop:
    left: Formula
    right: Formula


@record(frozen=True)
class RecApp:
    name: str
    args: Tuple[Expr, ...]


class Mu:
    """mu X(params). body — compared structurally; hashed, printed and its
    names and free variables collected once."""

    name: str
    params: Names
    body: Formula

    __slots__ = ("name", "params", "body", "_hash", "_text", "_names", "_free")

    def __init__(self, name: str, params: tuple, body):
        self.name = name
        self.params = tuple(params)
        self.body = body
        self._hash = self._text = self._names = self._free = None

    def __eq__(self, other):
        return self is other or (isinstance(other, Mu) and fields(self) == fields(other))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(fields(self))
        return self._hash


@record(frozen=True)
class MuApp:
    mu: Mu
    args: Tuple[Expr, ...]


Formula = Union[StatePred, NoEv, Gap, StartEvF, FinishEvF, And, Or, Concat, Chop,
                RecApp, Mu, MuApp]


# a field's part in children, by its annotation; any other field is data
_ROLES = {"Formula": 1, "Mu": 1, "Expr": 2, "Tuple[Expr, ...]": 3}
_PARTS = {}


def _parts(kind) -> tuple:
    """(data, subs, terms, run) of a formula class: getters of its data
    fields, its sub-formulas and its terms (the fields themselves, or the
    one field that holds a run of them), and whether it holds a run."""
    roles = {f: _ROLES.get(n, 0) for f, n in kind.__annotations__.items()}
    role = {r: [f for f, q in roles.items() if q == r] for r in range(4)}
    got = _PARTS[kind] = (getter(role[0]), getter(role[1]),
                          operator.attrgetter(*role[3]) if role[3] else getter(role[2]),
                          bool(role[3]))
    return got


def children(f: Formula) -> Tuple[tuple, tuple]:
    """One level of f: (sub-formulas, terms); a state predicate is a term."""
    _, subs, terms, _ = _PARTS.get(type(f)) or _parts(type(f))
    return subs(f), terms(f)


def rebuild(f: Formula, subs: tuple, terms: tuple) -> Formula:
    """Inverse of children: f's node over new sub-formulas and terms."""
    data, _, _, run = _PARTS.get(type(f)) or _parts(type(f))
    return type(f)(*data(f), *subs, tuple(terms)) if run else type(f)(*data(f), *subs, *terms)


def formula_vars(f: Formula) -> set:
    """The free logical variables of f's terms: fixed-point parameters
    removed."""
    if isinstance(f, Mu):
        if f._free is None:
            f._free = frozenset(formula_vars(f.body)) - set(f.params)
        return set(f._free)
    subs, terms = children(f)
    return names(*terms).union(*map(formula_vars, subs))


def map_terms(f: Formula, fn) -> Formula:
    """f with fn applied to each term outside fixed-point bodies."""
    if isinstance(f, Mu):
        return f
    subs, terms = children(f)
    return rebuild(f, tuple(map_terms(g, fn) for g in subs),
                   tuple(fn(t) for t in terms))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def psi(*procs: str) -> Gap:
    """Traces not containing any event involving the given procedures."""
    return Gap(frozenset(procs))


def chop_chain(parts) -> Formula:
    return join_chain([parts[0]] + [("**", p) for p in parts[1:]])


def no_event_chop(left: Formula, proc: Optional[str], right: Formula) -> Formula:
    return Chop(Chop(left, psi(proc) if proc else psi()), right)


def flatten_chain(f: Formula):
    """[first, (op, operand), ...] for the left spine of chop/concat."""
    if isinstance(f, (Chop, Concat)):
        head = flatten_chain(f.left)
        head.append(("**" if isinstance(f, Chop) else "..", f.right))
        return head
    return [f]


def join_chain(parts) -> Formula:
    """Inverse of flatten_chain on a non-empty part list."""
    out = parts[0]
    for op, p in parts[1:]:
        out = Chop(out, p) if op == "**" else Concat(out, p)
    return out


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

@record(frozen=True)
class ContractSpec:
    """The recursive-contract template's parameters for one procedure.

    pre_base/pre_step guard the non-recursive and recursive cases, f_m
    maps the parameter value to the result, step_inv gives the argument
    of the recursive call.  All terms are in the parameter symbol n.
    """

    proc: str
    pre_base: Expr
    pre_step: Expr
    f_m: Expr
    step_inv: Expr

    PARAM = "n"
    ID = "i"


def make_contract(spec: ContractSpec) -> Mu:
    n, i = Var(ContractSpec.PARAM), Var(ContractSpec.ID)
    rec = f"X_{spec.proc}"
    gap = psi(spec.proc)
    res_eq = StatePred(Binary("==", ResVar(i), spec.f_m))
    base = chop_chain([
        StatePred(spec.pre_base),
        StartEvF(spec.proc, n, i),
        gap,
        FinishEvF(spec.proc, spec.f_m, i),
        res_eq,
    ])
    step = chop_chain([
        StatePred(spec.pre_step),
        StartEvF(spec.proc, n, i),
        gap,
        RecApp(rec, (spec.step_inv, Fresh(i))),
        gap,
        FinishEvF(spec.proc, spec.f_m, i),
        res_eq,
    ])
    return Mu(rec, (ContractSpec.PARAM, ContractSpec.ID), Or(base, step))


def big_step_of(spec: ContractSpec) -> Formula:
    i = Var(ContractSpec.ID)
    return chop_chain([
        StatePred(Binary("||", spec.pre_base, spec.pre_step)),
        psi(),
        StatePred(Binary("==", ResVar(i), spec.f_m)),
    ])


# ---------------------------------------------------------------------------
# Substitution and unfolding
# ---------------------------------------------------------------------------

def _subst_formula(f: Formula, mapping: dict, rec_name: str, mu: Optional[Mu]) -> Formula:
    """Substitute terms for logical variables and mu for X occurrences."""
    if isinstance(f, Mu):
        inner_map = {k: v for k, v in mapping.items() if k not in f.params}
        if f.params and names(*inner_map.values()) & set(f.params):
            raise LogicError(f"substitution would capture a parameter of {f.name}")
        if f.name == rec_name:  # the binder shadows X
            rec_name, mu = "", None
        return Mu(f.name, f.params, _subst_formula(f.body, inner_map, rec_name, mu))
    subs, terms = children(f)
    if isinstance(f, StatePred) and any(isinstance(t, Fresh) for t in mapping.values()) \
            and any(isinstance(mapping.get(v), Fresh) for v in names(f.pred)):
        raise LogicError("fresh(...) cannot appear inside state predicates")
    subs = tuple(_subst_formula(g, mapping, rec_name, mu) for g in subs)
    terms = tuple(subst_vars(t, mapping) for t in terms)
    if isinstance(f, RecApp) and f.name == rec_name and mu is not None:
        return MuApp(mu, terms)
    return rebuild(f, subs, terms)


def substitute(phi: Formula, rec_name: str, mu: Mu, args: tuple) -> Formula:
    """phi[(mu X(ys). body)/X, args/ys]: one unfolding step's body.  The
    parser has matched the arities."""
    mapping = dict(zip(mu.params, args))
    return _subst_formula(phi, mapping, rec_name, mu)


def unfold(app: MuApp) -> Formula:
    return substitute(app.mu.body, app.mu.name, app.mu, app.args)


# ---------------------------------------------------------------------------
# Predicate evaluation
# ---------------------------------------------------------------------------

def eval_pred(state: State, env: Optional[dict], pred: Expr) -> bool:
    """First-order satisfaction; logical bindings shadow program variables
    of the same name (see ``eval_expr``)."""
    value = eval_expr(state, pred, env or {})
    if not isinstance(value, bool):
        raise LogicError(f"predicate is not boolean: {pretty_expr(pred)}")
    return value


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

class _Closure:
    __slots__ = ("mu", "benv", "renv", "key")

    def __init__(self, mu: Mu, benv: dict, renv: dict):
        self.mu = mu
        self.benv = benv
        self.renv = renv
        free_l = sorted(formula_vars(mu))
        self.key = (id(mu),
                    tuple((v, benv.get(v)) for v in free_l),
                    tuple(sorted((x, c.key) for x, c in renv.items())))


def _event_key(e):
    """The anchor an entry can meet: its event kind and procedure, or None."""
    if isinstance(e, CallEv):
        return ("call", e.proc)
    if isinstance(e, RetEv):
        return ("ret", None)
    if isinstance(e, PushEv):
        return ("push", e.ctx.proc)
    if isinstance(e, PopEv):
        return ("pop", e.ctx.proc)
    return None


class _Rec(NamedTuple):
    """A formula node's static record, computed once by ``_shape``.

    Every match [lo, hi) of the node spans at least ``lo_w`` and at most
    ``hi_w`` entries (None: unbounded).  ``excl`` is the exclusion set
    when the node is a psi gap.  ``first``/``last`` is the event key every
    match has at lo+1/hi-2, and ``cid`` the variable naming the call id of
    the call at lo+1 (None for a fixed-point application).  ``head``/``tail`` is (E, off) when no entry of
    [lo, hi-off)/[lo+off, hi) involves a procedure of E.
    """

    lo_w: int
    hi_w: Optional[int] = None
    excl: Optional[frozenset] = None
    first: Optional[tuple] = None
    last: Optional[tuple] = None
    cid: Optional[str] = None
    head: Optional[tuple] = None
    tail: Optional[tuple] = None


def _shape(f: Formula, shapes: dict) -> _Rec:
    """f's record, built bottom-up and stored in shapes under id(f)."""
    got = shapes.get(id(f))
    if got is not None:
        return got
    subs = [_shape(g, shapes) for g in children(f)[0]]
    if isinstance(f, (StatePred, NoEv)):
        out = _Rec(1, 1)
    elif isinstance(f, Gap):
        out = _Rec(1, None, f.exclude, head=(f.exclude, 0), tail=(f.exclude, 0))
    elif isinstance(f, StartEvF):
        out = _Rec(5, 5, None, ("call", f.proc), ("push", f.proc),
                   f.call_id.name if isinstance(f.call_id, Var) else None)
    elif isinstance(f, FinishEvF):
        out = _Rec(6, 6, None, ("ret", None), ("pop", f.proc))
    elif isinstance(f, (Mu, MuApp)):
        # an application's cid would name a variable of mu's scope
        body = subs[0]
        out = _Rec(1, None, None, body.first, body.last,
                   body.cid if isinstance(f, Mu) else None)
    elif isinstance(f, RecApp):
        out = _Rec(1, None)
    else:
        l, r = subs
        bounded = l.hi_w is not None and r.hi_w is not None
        if isinstance(f, And):
            hi = r.hi_w if l.hi_w is None else l.hi_w if r.hi_w is None \
                else min(l.hi_w, r.hi_w)
            out = _Rec(max(l.lo_w, r.lo_w), hi, None, l.first or r.first,
                       l.last or r.last, l.cid or r.cid, l.head or r.head,
                       l.tail or r.tail)
        elif isinstance(f, Or):
            out = _Rec(min(l.lo_w, r.lo_w), max(l.hi_w, r.hi_w) if bounded else None,
                       None, l.first if l.first == r.first else None,
                       l.last if l.last == r.last else None,
                       l.cid if l.cid == r.cid else None)
        else:
            # Concat, or Chop (s = 1), whose halves share one entry; a gap
            # half's reach carries across a bounded other half
            s = 1 if isinstance(f, Chop) else 0
            head = tail = None
            if l.head is not None and r.hi_w is not None:
                head = (l.head[0], l.head[1] + r.hi_w - s)
            if r.tail is not None and l.hi_w is not None:
                tail = (r.tail[0], r.tail[1] + l.hi_w - s)
            one = s and l.lo_w == l.hi_w == 1
            out = _Rec(max(l.lo_w + r.lo_w - s, 1),
                       l.hi_w + r.hi_w - s if bounded else None, None,
                       l.first or (r.first if one else None),
                       r.last or (l.last if s and r.lo_w == r.hi_w == 1 else None),
                       l.cid or (r.cid if one else None), head, tail)
    shapes[id(f)] = out
    return out


class _Member:
    def __init__(self, trace: Trace):
        self.trace = trace
        self.entries = trace.entries
        self.budget = MEMBER_BUDGET
        self.memo = {}
        self.onstack = {}   # open fixed-point item -> its depth on the stack
        self.low = None     # lowest open item the current call's false relied on
        self.shapes = {}
        self._reach = {}
        self._ids = {}
        self._tokens = {}

    def ids_in(self, lo: int, hi: int) -> tuple:
        key = (lo, hi)
        got = self._ids.get(key)
        if got is not None:
            return got
        ids = set()
        for pos in range(lo, hi):
            e = self.entries[pos]
            if isinstance(e, CallEv):
                ids.add(e.call_id)
            elif isinstance(e, (PushEv, PopEv)) and e.ctx.call_id is not None:
                ids.add(e.ctx.call_id)
        got = tuple(sorted(ids))
        self._ids[key] = got
        return got

    def resolve_args(self, mu: Mu, args: tuple, benv: dict, lo: int, hi: int):
        """All concrete argument tuples.

        A fresh(...) argument ranges over the segment's call ids, or is
        the id of the call at lo+1 when every body match starts with that
        call and names the argument's parameter as its id.
        """
        cid = self.shapes[id(mu)].cid
        bound = {p: k for k, p in enumerate(mu.params)}.get(cid)
        choices = []
        for k, a in enumerate(args):
            if type(a) is not Fresh:
                choices.append((eval_expr(_NO_STATE, a, benv),))
            elif k == bound:
                call = self.entries[lo + 1] if hi - lo > 1 else None
                choices.append((call.call_id,) if isinstance(call, CallEv) else ())
            else:
                choices.append(self.ids_in(lo, hi))
        return product(*choices)

    @cached_property
    def owners(self) -> dict:
        """The owner of each retEv (see ret_owners); only reach reads it."""
        return ret_owners(self.trace)

    @cached_property
    def _evpos(self) -> dict:
        """The positions of each event key, ascending; only splits read it."""
        out = {}
        for pos, e in enumerate(self.entries):
            key = _event_key(e)
            if key is not None:
                out.setdefault(key, []).append(pos)
        return out

    @cached_property
    def _state_flags(self) -> tuple:
        """Whether each entry is a state; only Chop splits read it."""
        return tuple(is_state(e) for e in self.entries)

    def reach(self, exclude) -> tuple:
        """(nxt, prv) for the entries involving an excluded procedure.

        nxt[p] is the first such position at or after p, or len; prv[p]
        the last one before p, or -1.  Both are monotone in p.
        """
        got = self._reach.get(exclude)
        if got is None:
            n = len(self.entries)
            hits = [event_involves(e, exclude, self.owners.get(pos))
                    for pos, e in enumerate(self.entries)]
            nxt, prv = [n] * (n + 1), [-1] * (n + 1)
            for p in range(n - 1, -1, -1):
                nxt[p] = p if hits[p] else nxt[p + 1]
            for p in range(n):
                prv[p + 1] = p if hits[p] else prv[p]
            got = self._reach[exclude] = (nxt, prv)
        return got

    def _gap_ok(self, exclude, lo: int, hi: int) -> bool:
        """No entry in [lo, hi) is an event involving an excluded procedure."""
        return self.reach(exclude)[0][lo] >= hi

    def sat(self, f: Formula, lo: int, hi: int, benv: dict, renv: dict,
            token: int = 0) -> bool:
        # the token identifies the enclosing fixed-point entry, which
        # fully determines the logical/recursion environments
        key = (id(f), token, lo, hi)
        got = self.memo.get(key)
        if got is None:
            outer, self.low = self.low, None
            got = self._sat(f, lo, hi, benv, renv, token)
            self._settle(key, got, outer, self.low)
        return got

    def _settle(self, key, got: bool, outer, low) -> None:
        """Memoize a result unless it is a false that relied on an open
        item (low: the lowest such depth), and pass low on to the caller.

        A true result is final: it was found with open items counted as
        false and can only stay true once they are decided.
        """
        if got or low is None:
            self.memo[key] = got
        if not got and low is not None and (outer is None or low < outer):
            outer = low
        self.low = outer

    def _sat(self, f, lo, hi, benv, renv, token) -> bool:
        ent, shapes = self.entries, self.shapes
        n = hi - lo
        rec = shapes.get(id(f)) or _shape(f, shapes)
        if n < rec.lo_w or (rec.hi_w is not None and n > rec.hi_w):
            return False
        if rec.excl is not None:
            return self._gap_ok(rec.excl, lo, hi)
        # from here on a leaf's segment has exactly its width
        if isinstance(f, StatePred):
            if not is_state(ent[lo]):
                return False
            try:
                return eval_pred(ent[lo], benv, f.pred)
            except UndefinedVariable:
                return False
        if isinstance(f, NoEv):
            return self._gap_ok(f.exclude, lo, hi)
        if isinstance(f, StartEvF):
            s0, e1, s2, e3, s4 = ent[lo:hi]
            if not (is_state(s0) and s0 == s2 == s4
                    and isinstance(e1, CallEv) and isinstance(e3, PushEv)):
                return False
            try:
                arg = eval_expr(_NO_STATE, f.arg, benv)
                cid = eval_expr(_NO_STATE, f.call_id, benv)
            except UndefinedVariable:
                return False
            return (e1.proc == f.proc and e1.arg == arg and e1.call_id == cid
                    and e3.ctx.proc == f.proc and e3.ctx.call_id == cid)
        if isinstance(f, FinishEvF):
            s0, e1, s2, s3, e4, s5 = ent[lo:hi]
            if not (is_state(s0) and isinstance(e1, RetEv) and s2 == s0
                    and is_state(s3) and isinstance(e4, PopEv) and s5 == s3):
                return False
            try:
                val = eval_expr(_NO_STATE, f.arg, benv)
                cid = eval_expr(_NO_STATE, f.call_id, benv)
            except UndefinedVariable:
                return False
            return (e1.value == val and e4.ctx.proc == f.proc
                    and e4.ctx.call_id == cid
                    and is_set(s3, s0, res_name(cid), val))
        if isinstance(f, And):
            return self.sat(f.left, lo, hi, benv, renv, token) and \
                self.sat(f.right, lo, hi, benv, renv, token)
        if isinstance(f, Or):
            return self.sat(f.left, lo, hi, benv, renv, token) or \
                self.sat(f.right, lo, hi, benv, renv, token)
        if isinstance(f, (Concat, Chop)):
            # one split loop: left half [lo, j+s), right half [j, hi); the
            # halves of a Chop share the state at j, those of a Concat do not
            s = 1 if isinstance(f, Chop) else 0
            lw, rw = shapes[id(f.left)], shapes[id(f.right)]
            j_min = lo + lw.lo_w - s
            j_max = hi - rw.lo_w
            if lw.hi_w is not None:
                j_max = min(j_max, lo + lw.hi_w - s)
            if rw.hi_w is not None:
                j_min = max(j_min, hi - rw.hi_w)
            # a gap half ends before the next event it excludes
            if lw.tail is not None:
                excl, off = lw.tail
                j_max = min(j_max, self.reach(excl)[0][min(lo + off, len(ent))] - s)
            if rw.head is not None:
                excl, off = rw.head
                j_min = max(j_min, self.reach(excl)[1][max(hi - off, 0)] + 1)
            if j_min > j_max:
                return False
            # an anchored half fixes the split next to its forced event:
            # the right half's first anchor at p gives j = p-1, the left
            # half's last anchor gives j = p+2-s
            if rw.first is not None:
                key, d = rw.first, -1
            elif lw.last is not None:
                key, d = lw.last, 2 - s
            else:
                key, d = None, 0
            if key is None:
                ps = range(j_min, j_max + 1)
            elif j_min == j_max:
                # one split: read its anchor rather than build the table
                p = j_min - d
                ps = (p,) if 0 <= p < len(ent) and _event_key(ent[p]) == key else ()
            else:
                ps = self._evpos.get(key, ())
                ps = ps[bisect_left(ps, j_min - d):bisect_right(ps, j_max - d)]
            if not ps:
                return False
            flags, memo = self._state_flags if s else None, self.memo
            kl, kr = id(f.left), id(f.right)
            for p in ps:
                j = p + d
                if s and not flags[j]:
                    continue
                # read memo hits inline: in deep recursion a call per split
                # can cross an interpreter stack chunk (mmap/munmap) each time
                ok = memo.get((kl, token, lo, j + s))
                if ok is None:
                    ok = self.sat(f.left, lo, j + s, benv, renv, token)
                if ok:
                    ok = memo.get((kr, token, j, hi))
                    if ok is None:
                        ok = self.sat(f.right, j, hi, benv, renv, token)
                    if ok:
                        return True
            return False
        if isinstance(f, Mu):
            if f.params:
                raise LogicError(f"unapplied fixed point {f.name} in formula position")
            mu, args = f, ()
        elif isinstance(f, MuApp):
            mu, args = f.mu, f.args
        else:  # a RecApp, which the parser has bound
            mu, args = renv[f.name].mu, f.args
        # every unfolding of mu has its anchors' events at lo+1 and hi-2
        mrec = shapes.get(id(mu)) or _shape(mu, shapes)
        if mrec.first is not None and (n < 3 or _event_key(ent[lo + 1]) != mrec.first):
            return False
        if mrec.last is not None and (n < 3 or _event_key(ent[hi - 2]) != mrec.last):
            return False
        closure = renv[f.name] if isinstance(f, RecApp) else _Closure(mu, benv, renv)
        for argv in self.resolve_args(mu, args, benv, lo, hi):
            if self._mu_member(closure, argv, lo, hi):
                return True
        return False

    def _mu_member(self, closure: _Closure, argv: tuple, lo: int, hi: int) -> bool:
        # a fixed-point item is its body's item under the entry's token
        tok_key = (closure.key, argv)
        token = self._tokens.get(tok_key)
        if token is None:
            token = len(self._tokens) + 1
            self._tokens[tok_key] = token
        mu = closure.mu
        key = (id(mu.body), token, lo, hi)
        got = self.memo.get(key)
        if got is not None:
            return got
        depth = self.onstack.get(key)
        if depth is not None:
            # least fixed point: no progress, contributes nothing; a false
            # result that relies on this is not final while the item is open
            if self.low is None or depth < self.low:
                self.low = depth
            return False
        self.budget -= 1
        if self.budget < 0:
            raise MemberBudgetExceeded("fixed-point descent budget exhausted")
        benv = dict(closure.benv)
        benv.update(zip(mu.params, argv))
        renv = dict(closure.renv)
        renv[mu.name] = closure
        depth = len(self.onstack)
        self.onstack[key] = depth
        outer, self.low = self.low, None
        try:
            out = self._sat(mu.body, lo, hi, benv, renv, token)
        finally:
            del self.onstack[key]
        low = self.low
        if low is not None and low >= depth:
            low = None  # it relied only on itself or on items closed now
        self._settle(key, out, outer, low)
        return out

    def why_not(self, f: Formula) -> str:
        """Why the query of f over the whole trace came out false, read
        from the chart that query left: no further item is decided.

        A chain p1 op ... op pK is blamed on the element after its
        longest prefix that has a true item from entry 0.
        """
        n = len(self.entries)
        rec = self.shapes[id(f)]
        if n < rec.lo_w or (rec.hi_w is not None and n > rec.hi_w):
            width = (f"at least {rec.lo_w}" if rec.hi_w is None
                     else f"exactly {rec.lo_w}" if rec.lo_w == rec.hi_w
                     else f"{rec.lo_w} to {rec.hi_w}")
            return f"the trace has {n} entries; the formula matches traces of {width} entries"
        parts = flatten_chain(f)
        if len(parts) < 2:
            return f"trace is not in the denotation of {pretty_formula(f)}"
        prefix, memo = f, self.memo
        for k in range(len(parts) - 1, 0, -1):
            prefix = prefix.left  # the node of p1 op ... op pk
            h = next((h for h in range(n, 0, -1) if memo.get((id(prefix), 0, 0, h))), 0)
            if h:
                return (f"no match for chain element #{k + 1}: {pretty_formula(parts[k][1])}"
                        f" (#1..#{k} match entries 0..{h - 1})")
        return f"no match for chain element #1: {pretty_formula(parts[0])}"


def member(trace: Trace, formula: Formula, env: Optional[dict] = None,
           why: Optional[list] = None) -> bool:
    """True iff the trace belongs to the formula's denotation.  When it is
    not and why is a list, the reason (``_Member.why_not``) is appended."""
    if trace.is_empty:
        raise LogicError("membership of the empty trace is undefined")
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        checker = _Member(trace)
        ok = checker.sat(formula, 0, len(trace.entries), dict(env or {}), {})
    finally:
        sys.setrecursionlimit(old_limit)
    if not ok and why is not None:
        why.append(checker.why_not(formula))
    return ok


# ---------------------------------------------------------------------------
# Concrete syntax (.tcf)
# ---------------------------------------------------------------------------

# lang's messages for the two reserved words that mean something in a term
_TERM_ERRORS = {"res(...) is reserved for the semantics":
                "res(...) may only appear inside [...] predicates",
                "reserved word 'fresh' in expression":
                "fresh(...) must be a whole argument of a recursion"}


def _is_arith(e: Expr) -> bool:
    return all(type(x) in (IntLit, Var) or type(x) in (Unary, Binary) and x.op in ARITH_OPS
               for x in nodes(e))


def parse_arith(ts: TokenStream) -> Expr:
    """A program expression that is arithmetic: integer literals,
    variables, unary minus and + - *."""
    start = ts.peek()
    try:
        e = parse_expr(ts)
    except ParseError as err:
        if err.msg in _TERM_ERRORS:
            raise ParseError(_TERM_ERRORS[err.msg], err.line, err.col) from None
        raise
    if not _is_arith(e):
        raise ParseError(f"expected an arithmetic term, found {pretty_expr(e)!r}",
                         start.line, start.col)
    return e


def _parse_term(ts: TokenStream) -> Expr:
    """A recursion argument: a term, or fresh(...) of one."""
    if ts.at_ident("fresh"):
        ts.next()
        ts.expect_sym("(")
        inner = parse_arith(ts)
        ts.expect_sym(")")
        return Fresh(inner)
    return parse_arith(ts)


def _parse_list(ts, item) -> tuple:
    """A parenthesised, comma-separated, possibly empty list of items."""
    ts.expect_sym("(")
    out = []
    if not ts.at_sym(")"):
        out.append(item(ts))
        while ts.at_sym(","):
            ts.next()
            out.append(item(ts))
    ts.expect_sym(")")
    return tuple(out)


def _parse_name(ts) -> str:
    return ts.expect_ident().text


def _parse_args(ts, name: str, arity: int, tok) -> tuple:
    """The argument list of recursion variable or fixed point name, none
    when no "(" follows; a count other than arity is reported at tok."""
    args = _parse_list(ts, _parse_term) if ts.at_sym("(") else ()
    if len(args) != arity:
        raise ParseError(f"arity mismatch for {name}: {len(args)} args, expected {arity}",
                         tok.line, tok.col)
    return args


# The formula grammar, one function per precedence level.  scope maps each
# recursion variable bound around the formula to its arity.

def _parse_formula_or(ts, scope: dict) -> Formula:
    f = _parse_formula_and(ts, scope)
    while ts.at_sym("\\/"):
        ts.next()
        f = Or(f, _parse_formula_and(ts, scope))
    return f


def _parse_formula_and(ts, scope) -> Formula:
    f = _parse_formula_chain(ts, scope)
    while ts.at_sym("/\\"):
        ts.next()
        f = And(f, _parse_formula_chain(ts, scope))
    return f


def _parse_formula_chain(ts, scope) -> Formula:
    f = _parse_formula_app(ts, scope)
    while True:
        if ts.at_sym("**"):
            ts.next()
            f = Chop(f, _parse_formula_app(ts, scope))
        elif ts.at_sym(".."):
            ts.next()
            f = Concat(f, _parse_formula_app(ts, scope))
        elif ts.at_sym("~~"):
            ts.next()
            f = no_event_chop(f, None, _parse_formula_app(ts, scope))
        elif ts.at_sym("~"):
            ts.next()
            name = ts.expect_ident().text
            ts.expect_sym("~")
            f = no_event_chop(f, name, _parse_formula_app(ts, scope))
        else:
            return f


def _parse_formula_app(ts, scope) -> Formula:
    f = _parse_formula_atom(ts, scope)
    if isinstance(f, Mu) and ts.at_sym("("):
        f = MuApp(f, _parse_args(ts, f.name, len(f.params), ts.peek()))
    if ts.at_sym("("):
        ts.error("only fixed points and recursion variables take arguments, one list each")
    return f


def _parse_formula_atom(ts, scope) -> Formula:
    tok = ts.peek()
    if ts.at_sym("["):
        ts.next()
        pred = parse_expr(ts, logical=True)
        ts.expect_sym("]")
        return StatePred(pred)
    if ts.at_sym("("):
        ts.next()
        f = _parse_formula_or(ts, scope)
        ts.expect_sym(")")
        return f
    if tok.kind != "ident":
        ts.error(f"expected formula, found {tok.text!r}")
    if tok.text in ("startEv", "finishEv"):
        ts.next()
        ts.expect_sym("(")
        proc = ts.expect_ident().text
        ts.expect_sym(",")
        arg = parse_arith(ts)
        ts.expect_sym(",")
        cid = parse_arith(ts)
        ts.expect_sym(")")
        return StartEvF(proc, arg, cid) if tok.text == "startEv" else \
            FinishEvF(proc, arg, cid)
    if tok.text == "psi":
        ts.next()
        return psi(*_parse_list(ts, _parse_name))
    if tok.text == "noev":
        ts.next()
        return NoEv(frozenset(_parse_list(ts, _parse_name)))
    if tok.text == "mu":
        ts.next()
        name = ts.expect_ident().text
        params = _parse_list(ts, _parse_name)
        ts.expect_sym(".")
        return Mu(name, params, _parse_formula_or(ts, {**scope, name: len(params)}))
    ts.next()
    if tok.text not in scope:
        raise ParseError(f"unbound recursion variable {tok.text}", tok.line, tok.col)
    return RecApp(tok.text, _parse_args(ts, tok.text, scope[tok.text], tok))


def pretty_formula(f: Formula, prec: int = 0) -> str:
    """Render with the ~m~ shorthand for chop-embedded no-event gaps.  It is
    the ``__repr__`` of every formula class."""
    if isinstance(f, StatePred):
        return f"[{pretty_expr(f.pred)}]"
    if isinstance(f, (NoEv, Gap)):
        kind = "psi" if isinstance(f, Gap) else "noev"
        return f"{kind}({', '.join(sorted(f.exclude))})"
    if isinstance(f, (StartEvF, FinishEvF)):
        kind = "startEv" if isinstance(f, StartEvF) else "finishEv"
        return f"{kind}({f.proc}, {pretty_expr(f.arg)}, {pretty_expr(f.call_id)})"
    if isinstance(f, Or):
        text = f"{pretty_formula(f.left, 1)} \\/ {pretty_formula(f.right, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(f, And):
        text = f"{pretty_formula(f.left, 2)} /\\ {pretty_formula(f.right, 3)}"
        return f"({text})" if prec > 2 else text
    if isinstance(f, (Chop, Concat)):
        parts = flatten_chain(f)
        pieces = [pretty_formula(parts[0], 4)]
        j = 1
        while j < len(parts):
            op, part = parts[j]
            if isinstance(part, Gap) and op == "**" and j + 1 < len(parts) \
                    and parts[j + 1][0] == "**" and len(part.exclude) <= 1:
                tie = "~~" if not part.exclude else f"~{next(iter(part.exclude))}~"
                pieces.append(f" {tie} {pretty_formula(parts[j + 1][1], 4)}")
                j += 2
            else:
                pieces.append(f" {op} {pretty_formula(part, 4)}")
                j += 1
        text = "".join(pieces)
        return f"({text})" if prec > 3 else text
    if isinstance(f, RecApp):
        return f"{f.name}({', '.join(pretty_expr(a) for a in f.args)})"
    if isinstance(f, Mu):
        if f._text is None:
            f._text = f"mu {f.name}({', '.join(f.params)}). ({pretty_formula(f.body, 0)})"
        return f"({f._text})" if prec > 0 else f._text
    mu_text = pretty_formula(f.mu, 4)  # a MuApp
    return f"{mu_text}({', '.join(pretty_expr(a) for a in f.args)})"


for _kind in Formula.__args__:
    _kind.__repr__ = pretty_formula


# ---------------------------------------------------------------------------
# Contract files: named bindings plus template spec blocks
# ---------------------------------------------------------------------------

@record
class ContractFile:
    contracts: dict  # name -> (params, Formula), both names of each spec included
    specs: dict      # proc -> ContractSpec


def _parse_contract_body(ts, params: tuple) -> Formula:
    """A contract's formula; when it is a whole fixed point, that takes
    the contract's parameters."""
    tok = ts.peek()
    f = _parse_formula_or(ts, {})
    if isinstance(f, Mu) and len(f.params) != len(params):
        raise ParseError(f"fixed point {f.name} takes {len(f.params)} parameters, "
                         f"the contract {len(params)}", tok.line, tok.col)
    return f


def parse_spec_field(ts: TokenStream, key: str) -> Expr:
    """A spec field: a predicate for base and step, an arithmetic term for
    inv and result.  Its terms are in the parameter n alone, so any other
    name is refused at its token."""
    start = ts.pos
    e = parse_expr(ts, logical=True) if key in ("base", "step") else parse_arith(ts)
    for t in ts.tokens[start:ts.pos]:
        if t.kind == "ident" and t.text not in (ContractSpec.PARAM, "res", "true", "false"):
            raise ParseError(f"spec field {key} may name only {ContractSpec.PARAM}, "
                             f"found {t.text!r}", t.line, t.col)
    return e


def parse_contract_file(text: str) -> ContractFile:
    """One bare formula (the contract ``_``), or ``contract`` bindings and
    ``spec`` blocks.  ``spec m`` defines two contracts of (n, i): ``m``
    (``make_contract``) and ``m_big_step`` (``big_step_of``).  A name is
    defined once; a second definition is refused at its name."""
    ts = TokenStream(tokenize(text))
    if not (ts.at_ident("contract") or ts.at_ident("spec")):
        f = _parse_contract_body(ts, ())
        if ts.peek().kind != "eof":
            ts.error("trailing input after formula")
        return ContractFile({"_": ((), f)}, {})
    contracts, specs, by = {}, {}, {}   # by: name -> (kind, name) of its definition
    while ts.peek().kind != "eof":
        if not (ts.at_ident("contract") or ts.at_ident("spec")):
            ts.error("expected 'contract' or 'spec'")
        kind, tok = ts.next().text, ts.expect_ident()
        names = (tok.text, f"{tok.text}_big_step") if kind == "spec" else (tok.text,)
        for name in names:
            if name in by:
                hint = "" if by[name][0] == kind else \
                    "; delete the written contract or regenerate the file with gen-contract"
                raise ParseError(f"duplicate contract name {name!r}: also defined by "
                                 f"{' '.join(by[name])}{hint}", tok.line, tok.col)
            by[name] = (kind, tok.text)
        if kind == "contract":
            params = _parse_list(ts, _parse_name)
            ts.expect_sym(":=")
            contracts[tok.text] = (params, _parse_contract_body(ts, params))
            continue
        ts.expect_sym("{")
        fields = {}
        while not ts.at_sym("}"):
            key = ts.expect_ident().text
            ts.expect_sym(":")
            if key in ("base", "step"):
                ts.expect_sym("[")
                fields[key] = parse_spec_field(ts, key)
                ts.expect_sym("]")
            elif key in ("inv", "result"):
                fields[key] = parse_spec_field(ts, key)
            else:
                ts.error(f"unknown spec field {key!r}")
            if ts.at_sym(";"):
                ts.next()
        ts.expect_sym("}")
        missing = {"base", "step", "inv", "result"} - set(fields)
        if missing:
            ts.error(f"spec {tok.text} missing fields: {sorted(missing)}")
        spec = specs[tok.text] = ContractSpec(tok.text, fields["base"], fields["step"],
                                              fields["result"], fields["inv"])
        params = (ContractSpec.PARAM, ContractSpec.ID)
        contracts[names[0]] = (params, make_contract(spec))
        contracts[names[1]] = (params, big_step_of(spec))
    return ContractFile(contracts, specs)


def contract_file_text(spec: ContractSpec) -> str:
    """The spec line that ``gen-contract`` writes."""
    return (f"spec {spec.proc} {{ base: [{pretty_expr(spec.pre_base)}]; "
            f"step: [{pretty_expr(spec.pre_step)}]; "
            f"inv: {pretty_expr(spec.step_inv)}; result: {pretty_expr(spec.f_m)} }}\n")


def applied(formula: Formula, params: tuple) -> Formula:
    """Apply an unapplied parametric fixed point to its declared parameters."""
    if isinstance(formula, Mu) and formula.params:
        return MuApp(formula, tuple(Var(p) for p in params))
    return formula
