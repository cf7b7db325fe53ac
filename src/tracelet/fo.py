"""Quantifier-free linear integer validity checking.

Validity of gamma |- goal is decided by refuting gamma && !goal:
normalize to DNF over linear atoms, then run Fourier-Motzkin
elimination over the rationals with integer bound tightening.  Atoms
with nonlinear terms make the answer 'unknown'.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Dict, List, Optional, Tuple

from .lang import (Binary, BoolLit, CMP_OPS, Expr, IntLit, ResVar, TokenStream,
                   Unary, Var, parse_expr, pretty_expr, record, tokenize)


class NonlinearError(Exception):
    pass


_MAX_DISJUNCTS = 2048
_MAX_CONSTRAINTS = 20000
_BOX = 10


def linearize(e: Expr) -> Tuple[Dict[str, int], int]:
    """Coefficient map and constant of a linear integer term."""
    coeffs: Dict[str, int] = {}
    const = _linear(e, 1, coeffs)
    return {k: v for k, v in coeffs.items() if v}, const


def _linear(e: Expr, scale: int, coeffs: Dict[str, int]) -> int:
    """Add scale times e's coefficients into coeffs; return scale times
    its constant."""
    kind = type(e)
    if kind is Var or kind is ResVar:
        key = e.name if kind is Var else f"res({pretty_expr(e.index)})"
        coeffs[key] = coeffs.get(key, 0) + scale
        return 0
    if kind is IntLit:
        return scale * e.value
    if kind is Binary and e.op in ("+", "-"):
        return _linear(e.left, scale, coeffs) + \
            _linear(e.right, scale if e.op == "+" else -scale, coeffs)
    if kind is Binary and e.op == "*":
        (lc, lk), (rc, rk) = linearize(e.left), linearize(e.right)
        if lc and rc:
            raise NonlinearError(f"nonlinear product: {pretty_expr(e)}")
        factor = scale * (rk if lc else lk)
        for k, v in (lc or rc).items():
            coeffs[k] = coeffs.get(k, 0) + factor * v
        return scale * lk * rk
    if kind is Unary and e.op == "-":
        return _linear(e.operand, -scale, coeffs)
    raise NonlinearError(f"not a linear term: {e!r}")


# A constraint is coeffs.x + const OP 0 with OP '>=' or '=='.
Constraint = Tuple[Tuple[Tuple[str, int], ...], int, str]


def _mk(coeffs: Dict[str, int], const: int, op: str) -> Constraint:
    """The constraint in normal form: names sorted, no zero coefficient; an
    '==' leads with a positive coefficient and is divided by its
    coefficients' gcd when that divides const; a '>=' is divided and its
    constant rounded down."""
    if 0 in coeffs.values():
        coeffs = {k: v for k, v in coeffs.items() if v}
    if not coeffs:
        return (), const, op
    g = gcd(*coeffs.values())
    if op != ">=":
        g = g if const % g == 0 else 1
        g = -g if coeffs[min(coeffs)] < 0 else g
    if g == 1:
        return tuple(sorted(coeffs.items())), const, op
    return tuple(sorted((k, v // g) for k, v in coeffs.items())), const // g, op


def _atom_constraints(e1: Expr, op: str, e2: Expr) -> Tuple[Constraint, ...]:
    """The constraint of e1 op e2, an '==' or a '>='; for '!=' its two
    strict sides, first the one that leads with a negative coefficient."""
    sign = -1 if op in ("<", "<=") else 1
    coeffs: Dict[str, int] = {}
    const = _linear(e1, sign, coeffs) + _linear(e2, -sign, coeffs)
    if op == "==":
        return (_mk(coeffs, const, op),)
    if op != "!=":
        return (_mk(coeffs, const - (op in ("<", ">")), ">="),)
    below = _mk({k: -v for k, v in coeffs.items()}, -const - 1, ">=")
    above = _mk(coeffs, const - 1, ">=")
    return (below, above) if not below[0] or below[0][0][1] < 0 else (above, below)


_FLIP = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def _nnf(e: Expr, positive: bool) -> Expr:
    if isinstance(e, Unary) and e.op == "!":
        return _nnf(e.operand, not positive)
    if isinstance(e, Binary) and e.op in ("&&", "||"):
        op = e.op if positive else ("||" if e.op == "&&" else "&&")
        return Binary(op, _nnf(e.left, positive), _nnf(e.right, positive))
    if isinstance(e, Binary) and e.op in CMP_OPS:
        return e if positive else Binary(_FLIP[e.op], e.left, e.right)
    if isinstance(e, BoolLit):
        return e if positive else BoolLit(not e.value)
    if positive:
        return e
    return Unary("!", e)


def negate_pred(e: Expr) -> Expr:
    """!e with the negation pushed to atoms where possible."""
    return _nnf(e, False)


def _dnf(e: Expr, positive: bool, leaves: list) -> List[tuple]:
    """Disjunctive normal form of e, or of !e when not positive, as tuples
    of indices into leaves, where each leaf of e is appended once: a
    comparison as (op, left, right) with the negation pushed into op, a
    truth value as a bool, and anything else as is (no atom)."""
    kind = type(e)
    if kind is Unary and e.op == "!":
        return _dnf(e.operand, not positive, leaves)
    if kind is Binary and e.op in ("&&", "||"):
        left, right = _dnf(e.left, positive, leaves), _dnf(e.right, positive, leaves)
        return left + right if (e.op == "||") == positive else _product(left, right)
    if kind is Binary and e.op in CMP_OPS:
        leaves.append((e.op if positive else _FLIP[e.op], e.left, e.right))
    elif kind is BoolLit:
        leaves.append(bool(e.value) == positive)
    else:
        leaves.append(e)
    return [(len(leaves) - 1,)]


def _product(left: List[tuple], right: List[tuple]) -> List[tuple]:
    """The disjuncts of left && right."""
    if len(left) * len(right) > _MAX_DISJUNCTS:
        raise NonlinearError("DNF blowup")
    return [l + r for l in left for r in right]


def _expand(leaf) -> Tuple[tuple, tuple]:
    """(alternatives, coefficients) of a comparison leaf, where an
    alternative that is a false variable-free constraint is False."""
    if type(leaf) is not tuple:
        raise NonlinearError(f"not an atom: {leaf!r}")
    alts = _atom_constraints(leaf[1], leaf[0], leaf[2])
    return tuple(False if not items and (const < 0 if op == ">=" else const != 0)
                 else (items, const, op) for items, const, op in alts), alts[0][0]


def _fm_unsat(constraints: List[Constraint]) -> bool:
    """True when the system has no rational solution (after tightening)."""
    work = [c for c in constraints if c[2] == ">="]
    eqs = [c for c in constraints if c[2] == "=="]
    # substitute, each time, the first equality with a unit coefficient;
    # a variable-free one holds (and goes) or refutes the system
    while eqs:
        idx = next((i for i, (items, _, _) in enumerate(eqs)
                    if not items or any(abs(v) == 1 for _, v in items)), None)
        if idx is None:
            break
        items, const, _ = eqs.pop(idx)
        if not items:
            if const != 0:
                return True
            continue
        unit, coeff = next((k, v) for k, v in items if abs(v) == 1)

        def subst(c2: Constraint) -> Constraint:
            # unit = -coeff*(rest + const), as |coeff| = 1
            d2 = dict(c2[0])
            factor = d2.pop(unit, 0)
            if not factor:
                return c2
            for k, v in items:
                if k != unit:
                    d2[k] = d2.get(k, 0) - factor * coeff * v
            return _mk(d2, c2[1] - factor * coeff * const, c2[2])

        work = [subst(c2) for c2 in work]
        eqs = [subst(c2) for c2 in eqs]
    # the loop above leaves equalities with variables, none of unit coefficient
    for items, const, _ in eqs:
        if const % gcd(*[v for _, v in items]) != 0:
            return True
        # remaining equality as two inequalities
        work.append(_mk(dict(items), const, ">="))
        work.append(_mk({k: -v for k, v in items}, -const, ">="))

    # Fourier-Motzkin elimination, of the name in the fewest constraints
    while True:
        counts: Dict[str, int] = {}
        for items, const, _ in work:
            if not items and const < 0:
                return True
            for k, _ in items:
                counts[k] = counts.get(k, 0) + 1
        if not counts:
            return False
        x = min(sorted(counts), key=counts.__getitem__)
        lowers, uppers, new = [], [], []
        for c in work:
            d = dict(c[0])
            a = d.pop(x, 0)
            if a == 0:
                new.append(c)
            else:
                (lowers if a > 0 else uppers).append((abs(a), d, c[1]))
        for (a, ld, lk), (b, ud, uk) in itertools.product(lowers, uppers):
            combo = {k: b * v for k, v in ld.items()}
            for k, v in ud.items():
                combo[k] = combo.get(k, 0) + a * v
            new.append(_mk(combo, b * lk + a * uk, ">="))
            if len(new) > _MAX_CONSTRAINTS:
                raise NonlinearError("Fourier-Motzkin blowup")
        work = new


@record(frozen=True)
class FoResult:
    status: str  # 'valid' | 'invalid' | 'unknown'
    counterexample: Optional[dict] = None

    def __bool__(self):
        return self.status == "valid"


def fo_valid(gamma, goal: Expr) -> FoResult:
    """gamma |- goal over the integers; gamma is an iterable of predicates.

    gamma && !goal goes to DNF, each disjunct splits on its '!=' into
    systems, and Fourier-Motzkin refutes each live system.  A leaf is
    linearized once, when the first disjunct reaches it."""
    leaves: list = []
    memo: dict = {}
    whole: List[tuple] = []  # the disjuncts that no False cut short
    systems: List[List[Constraint]] = []
    try:
        disjuncts = _dnf(goal, False, leaves)
        for g in gamma:
            disjuncts = _product(_dnf(g, True, leaves), disjuncts)
        for d in disjuncts:
            choices, count = [], 1
            for i in d:
                if leaves[i] is True:
                    continue
                if leaves[i] is False:
                    break
                if i not in memo:
                    memo[i] = _expand(leaves[i])
                choices.append(memo[i][0])
                count *= len(choices[-1])
                if count > _MAX_DISJUNCTS:
                    raise NonlinearError("disequality blowup")
            else:
                whole.append(d)
                # a system per choice of alternatives, the first '!=' varying
                # fastest; a false variable-free constraint kills it
                for chosen in itertools.product(*reversed(choices)):
                    if False not in chosen:
                        systems.append(list(reversed(chosen)))
        if all(_fm_unsat(s) for s in systems):
            return FoResult("valid")
    except NonlinearError:
        return FoResult("unknown")
    # the counterexample only goes into a refusal's message: the first
    # point in lexicographic order of the box [-_BOX, _BOX]^names, for at
    # most three names of whole disjuncts, with the last name's least
    # value solved for
    names = sorted({k for d in whole for i in d if i in memo for k, _ in memo[i][1]})
    if len(names) > 3:
        return FoResult("unknown")
    if not names:  # a live system without names holds only true constraints
        return FoResult("invalid", {})
    *outer, last = names
    for point in itertools.product(range(-_BOX, _BOX + 1), repeat=len(outer)):
        at = dict(zip(outer, point))
        found = [x for x in (_least(s, last, at) for s in systems) if x is not None]
        if found:
            at[last] = min(found)
            return FoResult("invalid", at)
    return FoResult("unknown")


def _least(system: List[Constraint], last: str, at: Dict[str, int]) -> Optional[int]:
    """The least value of last in [-_BOX, _BOX] that meets every constraint
    of system, with the other names at at; None if there is none."""
    lo, hi = -_BOX, _BOX
    for items, const, op in system:
        coeffs = dict(items)
        a = coeffs.pop(last, 0)
        b = const + sum(v * at[k] for k, v in coeffs.items())  # a*last + b >= 0, or == 0
        if a == 0:
            if b < 0 or op == "==" and b:
                return None
        elif op == "==":
            if b % a:
                return None
            lo, hi = max(lo, -b // a), min(hi, -b // a)
        elif a > 0:
            lo = max(lo, -(b // a))
        else:
            hi = min(hi, b // -a)
    return lo if lo <= hi else None


# ---------------------------------------------------------------------------
# Light simplification
# ---------------------------------------------------------------------------

def lin_to_expr(coeffs: Dict[str, int], const: int, op: str) -> Expr:
    """Readable expression for coeffs.x + const OP 0 (positives left)."""
    def side(items):
        expr = None
        for name, c in items:
            var: Expr = Var(name) if not name.startswith("res(") else _parse_res(name)
            mono = var if c == 1 else Binary("*", IntLit(c), var)
            expr = mono if expr is None else Binary("+", expr, mono)
        return expr

    # pos OP neg + (-const)
    lhs = side(sorted((k, v) for k, v in coeffs.items() if v > 0))
    rhs = side(sorted((k, -v) for k, v in coeffs.items() if v < 0))
    if rhs is None:
        rhs = IntLit(-const)
    elif const != 0:
        rhs = Binary("+", rhs, IntLit(-const))
    if lhs is None:
        lhs = IntLit(0)
    return Binary(op, lhs, rhs)


def _parse_res(key: str) -> Expr:
    return parse_expr(TokenStream(tokenize(key)), logical=True)


def simplify_or(a: Expr, b: Expr) -> Expr:
    """Merge single-atom disjuncts over one linear term where possible.

    (t == c) or (t >= c+1) becomes t >= c; overlapping lower bounds take
    the weaker one.  Anything else stays a disjunction.
    """
    try:
        ca, cb = _single_atom(a), _single_atom(b)
    except NonlinearError:
        return Binary("||", a, b)
    if ca is None or cb is None or ca[0] != cb[0]:
        return Binary("||", a, b)
    coeffs = dict(ca[0])
    for (_, k1, op1), (_, k2, op2) in ((ca, cb), (cb, ca)):
        if op1 == "==" and op2 == ">=" and k1 == k2 + 1:
            # point c adjoins the bound c+1: lower the bound to c
            return lin_to_expr(coeffs, k1, ">=")
        if op1 == ">=" and op2 == ">=":
            return lin_to_expr(coeffs, max(k1, k2), ">=")
        if op1 == "==" and op2 == "==" and k1 == k2:
            return lin_to_expr(coeffs, k1, "==")
    return Binary("||", a, b)


def _single_atom(e: Expr) -> Optional[Constraint]:
    if isinstance(e, Binary) and e.op in CMP_OPS and e.op != "!=":
        return _atom_constraints(e.left, e.op, e.right)[0]
    return None


def terms_equal(a: Expr, b: Expr) -> bool:
    """Linear-term equality up to normalization."""
    try:
        ca, ka = linearize(a)
        cb, kb = linearize(b)
    except NonlinearError:
        return a == b
    return ca == cb and ka == kb
