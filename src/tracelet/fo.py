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


def _var_key(e: Expr) -> str:
    """The key of a variable or a res(...) node in a coefficient map."""
    return e.name if isinstance(e, Var) else f"res({pretty_expr(e.index)})"


def linearize(e: Expr) -> Tuple[Dict[str, int], int]:
    """Coefficient map and constant of a linear integer term."""
    if isinstance(e, IntLit):
        return {}, e.value
    if isinstance(e, (Var, ResVar)):
        return {_var_key(e): 1}, 0
    if isinstance(e, Unary) and e.op == "-":
        coeffs, const = linearize(e.operand)
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(e, Binary) and e.op in ("+", "-"):
        lc, lk = linearize(e.left)
        rc, rk = linearize(e.right)
        sign = 1 if e.op == "+" else -1
        out = dict(lc)
        for k, v in rc.items():
            out[k] = out.get(k, 0) + sign * v
            if out[k] == 0:
                del out[k]
        return out, lk + sign * rk
    if isinstance(e, Binary) and e.op == "*":
        lc, lk = linearize(e.left)
        rc, rk = linearize(e.right)
        if lc and rc:
            raise NonlinearError(f"nonlinear product: {pretty_expr(e)}")
        if lc:
            return {k: v * rk for k, v in lc.items() if v * rk != 0}, lk * rk
        return {k: v * lk for k, v in rc.items() if v * lk != 0}, lk * rk
    raise NonlinearError(f"not a linear term: {e!r}")


# A constraint is coeffs.x + const OP 0 with OP in {'>=', '==', '!='}.
Constraint = Tuple[Tuple[Tuple[str, int], ...], int, str]


def _mk(coeffs: Dict[str, int], const: int, op: str) -> Constraint:
    items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
    if op in ("==", "!=") and items and items[0][1] < 0:
        items = tuple((k, -v) for k, v in items)
        const = -const
    if op == ">=" and items:
        g = 0
        for _, v in items:
            g = gcd(g, abs(v))
        if g > 1:
            items = tuple((k, v // g) for k, v in items)
            const //= g
    if op in ("==", "!=") and items:
        g = 0
        for _, v in items:
            g = gcd(g, abs(v))
        if g > 1:
            if const % g == 0:
                items = tuple((k, v // g) for k, v in items)
                const //= g
    return (items, const, op)


def _atom_constraints(e1: Expr, op: str, e2: Expr) -> Constraint:
    lc, lk = linearize(Binary("-", e1, e2))
    if op == ">":
        return _mk(lc, lk - 1, ">=")
    if op == ">=":
        return _mk(lc, lk, ">=")
    if op == "<":
        return _mk({k: -v for k, v in lc.items()}, -lk - 1, ">=")
    if op == "<=":
        return _mk({k: -v for k, v in lc.items()}, -lk, ">=")
    if op == "==":
        return _mk(lc, lk, "==")
    return _mk(lc, lk, "!=")


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


def _dnf(e: Expr) -> List[List[Expr]]:
    """Disjunctive normal form as lists of atoms (comparisons/bool literals)."""
    if isinstance(e, Binary) and e.op == "||":
        return _dnf(e.left) + _dnf(e.right)
    if isinstance(e, Binary) and e.op == "&&":
        out = []
        for l in _dnf(e.left):
            for r in _dnf(e.right):
                out.append(l + r)
                if len(out) > _MAX_DISJUNCTS:
                    raise NonlinearError("DNF blowup")
        return out
    return [[e]]


def _conj_to_constraints(atoms: List[Expr]) -> Optional[List[List[Constraint]]]:
    """Expand a conjunction into alternative constraint systems (splitting !=)."""
    systems: List[List[Constraint]] = [[]]
    for a in atoms:
        if isinstance(a, BoolLit):
            if not a.value:
                return None
            continue
        if not (isinstance(a, Binary) and a.op in CMP_OPS):
            raise NonlinearError(f"not an atom: {a!r}")
        c = _atom_constraints(a.left, a.op, a.right)
        if c[2] == "!=":
            coeffs = dict(c[0])
            lt = _mk({k: -v for k, v in coeffs.items()}, -c[1] - 1, ">=")
            gt = _mk(coeffs, c[1] - 1, ">=")
            systems = [s + [lt] for s in systems] + [s + [gt] for s in systems]
        else:
            systems = [s + [c] for s in systems]
        if len(systems) > _MAX_DISJUNCTS:
            raise NonlinearError("disequality blowup")
    return systems


def _fm_unsat(constraints: List[Constraint]) -> bool:
    """True when the system has no rational solution (after tightening)."""
    work: List[Constraint] = []
    eqs: List[Constraint] = []
    for c in constraints:
        (eqs if c[2] == "==" else work).append(c)

    # substitute unit-coefficient equalities
    changed = True
    while changed:
        changed = False
        for idx, eq in enumerate(eqs):
            items, const, _ = eq
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
            # unit*x = -(rest + const)  =>  x = -coeff*(rest + const)
            eqs.pop(idx)
            rest = {k: v for k, v in items if k != unit}

            def subst(c2: Constraint) -> Constraint:
                it2, k2, op2 = c2
                d2 = dict(it2)
                if unit not in d2:
                    return c2
                factor = d2.pop(unit)
                # x = -(rest + const)/coeff with |coeff| = 1
                for k, v in rest.items():
                    d2[k] = d2.get(k, 0) - factor * coeff * v
                return _mk(d2, k2 - factor * coeff * const, op2)

            work = [subst(c2) for c2 in work]
            eqs = [subst(c2) for c2 in eqs]
            changed = True
            break
    # the loop above leaves equalities with variables, none of unit coefficient
    for items, const, _ in eqs:
        g = 0
        for _, v in items:
            g = gcd(g, abs(v))
        if const % g != 0:
            return True
        # remaining equality as two inequalities
        work.append(_mk(dict(items), const, ">="))
        work.append(_mk({k: -v for k, v in items}, -const, ">="))

    # Fourier-Motzkin elimination
    while True:
        for items, const, _ in work:
            if not items and const < 0:
                return True
        variables = sorted({k for items, _, _ in work for k, _ in items})
        if not variables:
            return False
        x = min(variables, key=lambda v: sum(1 for it, _, _ in work if v in dict(it)))
        lowers, uppers, rest = [], [], []
        for c in work:
            d = dict(c[0])
            if x not in d:
                rest.append(c)
            elif d[x] > 0:
                lowers.append(c)
            else:
                uppers.append(c)
        new = rest
        for (li, lk, _), (ui, uk, _) in itertools.product(lowers, uppers):
            ld, ud = dict(li), dict(ui)
            a, b = ld[x], -ud[x]
            combo: Dict[str, int] = {}
            for k, v in ld.items():
                if k != x:
                    combo[k] = combo.get(k, 0) + b * v
            for k, v in ud.items():
                if k != x:
                    combo[k] = combo.get(k, 0) + a * v
            new.append(_mk(combo, b * lk + a * uk, ">="))
            if len(new) > _MAX_CONSTRAINTS:
                raise NonlinearError("Fourier-Motzkin blowup")
        work = new


def _eval_constraint(c: Constraint, assignment: Dict[str, int]) -> bool:
    """c at assignment; systems hold no '!=', which is split into two '>='."""
    items, const, op = c
    total = const + sum(v * assignment.get(k, 0) for k, v in items)
    return total >= 0 if op == ">=" else total == 0


@record(frozen=True)
class FoResult:
    status: str  # 'valid' | 'invalid' | 'unknown'
    counterexample: Optional[dict] = None

    def __bool__(self):
        return self.status == "valid"


def fo_valid(gamma, goal: Expr) -> FoResult:
    """gamma |- goal over the integers; gamma is an iterable of predicates."""
    formula = negate_pred(goal)
    for g in gamma:
        formula = Binary("&&", g, formula)
    try:
        disjuncts = _dnf(_nnf(formula, True))
        systems: List[List[Constraint]] = []
        for d in disjuncts:
            expanded = _conj_to_constraints(d)
            if expanded:
                systems.extend(expanded)
        if all(_fm_unsat(s) for s in systems):
            return FoResult("valid")
    except NonlinearError:
        return FoResult("unknown")
    # look for an integer counterexample in a small box, of at most three
    # dimensions; the counterexample only goes into a refusal's message
    names = sorted({k for s in systems for c in s for k, _ in c[0]})
    if len(names) > 3:
        return FoResult("unknown")
    for point in itertools.product(range(-_BOX, _BOX + 1), repeat=len(names)):
        assignment = dict(zip(names, point))
        if any(all(_eval_constraint(c, assignment) for c in s) for s in systems):
            return FoResult("invalid", assignment)
    return FoResult("unknown")


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
        return _atom_constraints(e.left, e.op, e.right)
    return None


def terms_equal(a: Expr, b: Expr) -> bool:
    """Linear-term equality up to normalization."""
    try:
        ca, ka = linearize(a)
        cb, kb = linearize(b)
    except NonlinearError:
        return a == b
    return ca == cb and ka == kb
