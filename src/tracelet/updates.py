"""Update atoms: explicit substitutions accumulated by symbolic execution.

An update is a sequence of atoms; the empty sequence is the identity.
Elementary atoms assign an expression (or a procedure call) to a
variable; event atoms record a startEv/finishEv occurrence.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .lang import (Expr, ResVar, Var, fields, fold_expr, names, record,
                   subst_vars)


@record(frozen=True)
class Elem:
    target: Union[Var, ResVar]
    expr: Expr

    def __repr__(self):
        return f"{{{self.target} := {self.expr}}}"


@record(frozen=True)
class CallUpd:
    target: Var
    proc: str
    arg: Expr

    def __repr__(self):
        return f"{{{self.target} := {self.proc}({self.arg})}}"


@record(frozen=True)
class StartUpd:
    proc: str
    arg: Expr
    call_id: Expr

    def __repr__(self):
        return f"{{startEv({self.proc},{self.arg},{self.call_id})}}"


@record(frozen=True)
class FinishUpd:
    proc: str
    arg: Expr
    call_id: Expr

    def __repr__(self):
        return f"{{finishEv({self.proc},{self.arg},{self.call_id})}}"


UpdateAtom = Union[Elem, CallUpd, StartUpd, FinishUpd]
Update = Tuple[UpdateAtom, ...]


class UpdateApplicationError(Exception):
    pass


def is_res_elem(atom) -> bool:
    return isinstance(atom, Elem) and isinstance(atom.target, ResVar)


def apply_update_expr(update: Update, e: Expr) -> Expr:
    """Evaluate e under the state changes of the update, by substitution.

    Atoms apply from inner- to outermost (rightmost first).  Elementary
    res-assignments are runtime no-ops and are skipped; finishEv atoms
    bind their res-variable.  A call update whose target occurs in the
    expression cannot be substituted away.
    """
    for atom in reversed(update):
        if isinstance(atom, Elem):
            if isinstance(atom.target, ResVar):
                continue
            e = subst_vars(e, {atom.target.name: atom.expr})
        elif isinstance(atom, CallUpd):
            if atom.target.name in names(e):
                raise UpdateApplicationError(
                    f"expression reads {atom.target.name!r}, assigned by a call update")
        elif isinstance(atom, FinishUpd):
            e = subst_vars(e, {ResVar(atom.call_id): atom.arg})
        # StartUpd: identity on expressions
    return fold_expr(e)


def update_reads(atom) -> set:
    """Variable names an atom reads: all of its names but those of a Var
    target, which is an elementary or call atom's first field."""
    if type(getattr(atom, "target", None)) is Var:
        return names(*fields(atom)[1:])
    return names(atom)


def update_writes(atom) -> Optional[str]:
    if isinstance(atom, (Elem, CallUpd)) and isinstance(atom.target, Var):
        return atom.target.name
    return None


def pretty_update(update: Update) -> str:
    return "".join(repr(a) for a in update)
