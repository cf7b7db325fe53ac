"""The symbolic-execution sequent calculus: the trusted proof kernel.

Sequents carry assertions (closed predicates over rigid symbols, or
contract assumptions) and a goal: a judgment ``U s : Phi``, a first-order
predicate, or a procedure contract.  Rules are applied by name through
one table, ``RULES``, so a proof is checked independently of how it was
produced by replaying every step (``replay``).  This module is the
kernel and nothing else: proof trees, search and scripts live in
``prover``, proof files in ``proofs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from . import fo
from .lang import (Assign, Binary, CallAssign, Expr, Fresh, If, IntLit,
                   LookupTable, Program, ResVar, Return, Scope, Seq, Skip,
                   Stmt, Var, build_lookup, fields, fold_expr, lookup, names,
                   nodes, pretty_expr, record, remake, subst_stmt, subst_vars)
from .logic import (ContractSpec, FinishEvF, Formula, Gap, Mu, MuApp, Or,
                    StartEvF, StatePred, flatten_chain, join_chain,
                    make_contract, map_terms, pretty_formula, unfold)
from .updates import (CallUpd, Elem, FinishUpd, StartUpd, Update, UpdateAtom,
                      UpdateApplicationError, apply_update_expr,
                      is_res_elem, pretty_update,
                      update_reads, update_writes)


class RuleError(Exception):
    """A rule does not match or a side condition failed."""


# ---------------------------------------------------------------------------
# Sequent model
# ---------------------------------------------------------------------------

@record(frozen=True)
class PredAssert:
    pred: Expr

    def __repr__(self):
        return pretty_expr(self.pred)


@record(frozen=True)
class ContractAssumption:
    """C_m: forall n,i. pre(n) -> m(n) : phi(n,i) ** [res_i == f(n)]."""

    proc: str
    pre: Expr      # in the parameter symbol n
    phi: Mu        # the contract's fixed point, params (n, i)
    result: Expr   # f_m, in the parameter symbol n

    def __repr__(self):
        return f"C_{self.proc}"

    @staticmethod
    def from_spec(spec: ContractSpec) -> "ContractAssumption":
        pre = fo.simplify_or(spec.pre_base, spec.pre_step)
        return ContractAssumption(spec.proc, pre, make_contract(spec), spec.f_m)


Assertion = Union[PredAssert, ContractAssumption]


@record(frozen=True)
class Judgment:
    update: Tuple[UpdateAtom, ...]
    stmt: Optional[Stmt]
    formula: Formula

    def __repr__(self):
        body = "" if self.stmt is None else f" {self.stmt}"
        return f"{pretty_update(self.update)}{body} : {pretty_formula(self.formula)}"


@record(frozen=True)
class PredGoal:
    pred: Expr

    def __repr__(self):
        return pretty_expr(self.pred)


@record(frozen=True)
class ContractGoal:
    proc: str

    def __repr__(self):
        return f"C_{self.proc}"


Goal = Union[Judgment, PredGoal, ContractGoal]


@record(frozen=True)
class Sequent:
    gamma: Tuple[Assertion, ...]
    goal: Goal

    def __repr__(self):
        left = ", ".join(repr(a) for a in self.gamma)
        return f"{left} |- {self.goal!r}"


def gamma_preds(seq: Sequent) -> List[Expr]:
    return [a.pred for a in seq.gamma if isinstance(a, PredAssert)]


# ---------------------------------------------------------------------------
# Fresh rigid symbols: a name not among a sequent's ``names``
# ---------------------------------------------------------------------------

def fresh_rigid(base: str, taken: set) -> str:
    candidate = base + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


# ---------------------------------------------------------------------------
# Statement decomposition
# ---------------------------------------------------------------------------

def stmt_head(s: Stmt) -> Tuple[Stmt, Optional[Stmt]]:
    """(leading statement, remainder); flattens left-nested sequences."""
    while isinstance(s, Seq) and isinstance(s.first, Seq):
        s = Seq(s.first.first, Seq(s.first.second, s.second))
    if isinstance(s, Seq):
        return s.first, s.second
    return s, None


def seq_join(a: Stmt, b: Optional[Stmt]) -> Stmt:
    if b is None:
        return a
    return Seq(a, b)


# ---------------------------------------------------------------------------
# Rule context
# ---------------------------------------------------------------------------

@record
class RuleContext:
    table: LookupTable
    contracts: Dict[str, ContractAssumption]

    @staticmethod
    def for_program(program: Program, contracts):
        table = build_lookup(program)
        cmap = {c.proc: c for c in contracts}
        return RuleContext(table, cmap)


def _contract_gamma(ctx: RuleContext) -> tuple:
    return tuple(ctx.contracts[name] for name in sorted(ctx.contracts))


# ---------------------------------------------------------------------------
# Formula chain helpers
# ---------------------------------------------------------------------------

def _drop_first(parts) -> Formula:
    return join_chain([parts[1][1]] + parts[2:])


def _drop_last(parts) -> Formula:
    return join_chain(parts[:-1])


def _judgment(seq: Sequent) -> Judgment:
    if not isinstance(seq.goal, Judgment):
        raise RuleError("rule expects a judgment goal")
    return seq.goal


def _leading(seq: Sequent, rule: str) -> Tuple[Judgment, Stmt, Optional[Stmt]]:
    """(judgment, leading statement, rest) of seq's goal."""
    j = _judgment(seq)
    if j.stmt is None:
        raise RuleError(f"{rule} needs a leading statement")
    return (j, *stmt_head(j.stmt))


def _finished(seq: Sequent, rule: str) -> Judgment:
    """seq's judgment, whose statement has been executed to the end."""
    j = _judgment(seq)
    if j.stmt is not None:
        raise RuleError(f"{rule} applies after symbolic execution finished")
    return j


def _var_elem_at(seq: Sequent, args: dict, rule: str) -> Tuple[Judgment, int, Elem]:
    """seq's judgment, and the index at= and the atom there, an elementary
    update on a variable."""
    j = _judgment(seq)
    idx = _index_arg(args, "at")
    if idx is None:
        raise RuleError(f"{rule} needs at=<index>")
    if not (0 <= idx < len(j.update)):
        raise RuleError("index out of range")
    atom = j.update[idx]
    if not isinstance(atom, Elem) or not isinstance(atom.target, Var):
        raise RuleError(f"{rule} expects an elementary update on a variable")
    return j, idx, atom


def _index_arg(args: dict, key: str, default: Optional[int] = None) -> Optional[int]:
    """An integer rule argument, or default where args lack the key."""
    value = args.get(key, default)
    if key in args and type(value) is not int:
        raise RuleError(f"{key}= must be an integer")
    return value


def _instantiate_fresh(f: Formula, taken: set,
                       introduced: Optional[list] = None) -> Formula:
    """Replace fresh(...) terms with fresh rigid symbols, left to right."""
    assigned: Dict[int, str] = {}

    def term(t):
        if not isinstance(t, Fresh):
            return t
        if id(t) not in assigned:
            name = fresh_rigid("k", taken)
            taken.add(name)
            assigned[id(t)] = name
            if introduced is not None:
                introduced.append(name)
        return Var(assigned[id(t)])

    # nested binders keep their own fresh markers
    return map_terms(f, term)


# The fields of an update atom that the res(...) rewrite keeps: the target
# it writes and the call id that names its call.  A variable rewrite keeps
# only a Var target.
_RES_BINDERS = ("target", "call_id")


def _subst_atom(a: UpdateAtom, mapping: dict, keep: tuple = ()) -> UpdateAtom:
    """a with mapping substituted into each expression field, folding each
    result, but for the fields in keep.  A Var target is never rewritten;
    a res(...) target's index is, unless keep names the target."""
    out = []
    for field, value in zip(a.__slots__, fields(a)):
        if field in keep or type(value) is str or (field == "target" and type(value) is Var):
            out.append(value)
        elif field == "target":
            out.append(ResVar(fold_expr(subst_vars(value.index, mapping))))
        else:
            out.append(fold_expr(subst_vars(value, mapping)))
    return remake(a, out)


def _subst_judgment(j: Judgment, mapping: dict, keep: tuple = ()) -> Judgment:
    """mapping substituted into j's update (by _subst_atom), statement and
    formula terms."""
    stmt = subst_stmt(j.stmt, mapping) if j.stmt is not None else None
    formula = map_terms(j.formula, lambda t: subst_vars(t, mapping))
    return Judgment(tuple(_subst_atom(a, mapping, keep) for a in j.update), stmt, formula)


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

def _rule_assign(seq, args, ctx):
    j, head, rest = _leading(seq, "Assign")
    if isinstance(head, Assign):
        atom = Elem(head.target, head.expr)
    elif isinstance(head, CallAssign):
        atom = CallUpd(head.target, head.proc, head.arg)
    else:
        raise RuleError("Assign expects an assignment statement")
    return [Sequent(seq.gamma, Judgment(j.update + (atom,), rest, j.formula))]


def _rule_skip(seq, args, ctx):
    j, head, rest = _leading(seq, "Skip")
    if not isinstance(head, Skip):
        raise RuleError("Skip expects a skip statement")
    return [Sequent(seq.gamma, Judgment(j.update, rest, j.formula))]


def _rule_scope(seq, args, ctx):
    j, head, rest = _leading(seq, "Scope")
    if not isinstance(head, Scope) or head.decls:
        raise RuleError("Scope expects a declaration-free block")
    return [Sequent(seq.gamma, Judgment(j.update, seq_join(head.body, rest), j.formula))]


def _rule_var_decl(seq, args, ctx):
    j, head, rest = _leading(seq, "VarDecl")
    if not isinstance(head, Scope) or not head.decls:
        raise RuleError("VarDecl expects a block with declarations")
    name = head.decls[0]
    fresh = fresh_rigid(name, names(seq))
    body = Scope(head.decls[1:], subst_stmt(head.body, {name: Var(fresh)}))
    update = j.update + (Elem(Var(fresh), IntLit(0)),)
    return [Sequent(seq.gamma, Judgment(update, seq_join(body, rest), j.formula))]


def _rule_cond(seq, args, ctx):
    j, head, rest = _leading(seq, "Cond")
    if not isinstance(head, If):
        raise RuleError("Cond expects a conditional")
    try:
        guard = apply_update_expr(j.update, head.cond)
    except UpdateApplicationError as e:
        raise RuleError(f"guard reads a call-update target: {e}") from None
    then_seq = Sequent(seq.gamma + (PredAssert(guard),),
                       Judgment(j.update, seq_join(head.body, rest), j.formula))
    else_seq = Sequent(seq.gamma + (PredAssert(fo.negate_pred(guard)),),
                       Judgment(j.update, rest, j.formula))
    return [then_seq, else_seq]


def _rule_return(seq, args, ctx):
    j, head, _ = _leading(seq, "Return")
    if not isinstance(head, Return):
        raise RuleError("Return expects a return statement")
    # A goal from a contract inlines one body behind the startEv of its
    # call, and the body's one return is its last statement.  Until then,
    # rules only append or drop assignment atoms and rewrite atoms' fields,
    # so that startEv is still first and the innermost open call.
    start = j.update[0] if j.update else None
    if type(start) is not StartUpd:
        raise RuleError("return outside any startEv context")
    update = j.update + (FinishUpd(start.proc, head.expr, start.call_id),)
    stmt = Assign(ResVar(start.call_id), head.expr)
    return [Sequent(seq.gamma, Judgment(update, stmt, j.formula))]


def _rule_prestate(seq, args, ctx):
    j = _judgment(seq)
    parts = flatten_chain(j.formula)
    if len(parts) < 2 or not isinstance(parts[0], StatePred) or parts[1][0] != "**":
        raise RuleError("Prestate expects [Q] ** Phi")
    return [Sequent(seq.gamma, PredGoal(parts[0].pred)),
            Sequent(seq.gamma, Judgment(j.update, j.stmt, _drop_first(parts)))]


def _rule_poststate(seq, args, ctx):
    j = _finished(seq, "Poststate")
    parts = flatten_chain(j.formula)
    if len(parts) < 2 or not isinstance(parts[-1][1], StatePred) or parts[-1][0] != "**":
        raise RuleError("Poststate expects Phi ** [Q]")
    try:
        applied = apply_update_expr(j.update, parts[-1][1].pred)
    except UpdateApplicationError as e:
        raise RuleError(str(e)) from None
    return [Sequent(seq.gamma, PredGoal(applied)),
            Sequent(seq.gamma, Judgment(j.update, None, _drop_last(parts)))]


def _rule_empty_update(seq, args, ctx):
    j = _judgment(seq)
    if j.stmt is not None or j.update:
        raise RuleError("EmptyUpdate expects an empty update and no statement")
    if not isinstance(j.formula, StatePred):
        raise RuleError("EmptyUpdate expects a state predicate")
    return [Sequent(seq.gamma, PredGoal(j.formula.pred))]


def _rule_unfold(seq, args, ctx):
    j = _judgment(seq)
    if not isinstance(j.formula, MuApp):
        raise RuleError("Unfold expects an applied fixed point")
    body = unfold(j.formula)
    taken = names(seq)
    introduced: list = []
    body = _instantiate_fresh(body, taken, introduced)
    # record the witness symbols: they stand for "some fresh identifier"
    args["fresh"] = introduced
    return [Sequent(seq.gamma, Judgment(j.update, j.stmt, body))]


def _rule_or(side: str):
    def rule(seq, args, ctx):
        j = _judgment(seq)
        if not isinstance(j.formula, Or):
            raise RuleError("expects a disjunctive trace formula")
        chosen = j.formula.left if side == "left" else j.formula.right
        return [Sequent(seq.gamma, Judgment(j.update, j.stmt, chosen))]
    return rule


def _rule_close(seq, args, ctx):
    if not isinstance(seq.goal, PredGoal):
        raise RuleError("Close expects a predicate goal")
    verdict = fo.fo_valid(gamma_preds(seq), seq.goal.pred)
    if verdict.status != "valid":
        detail = f" (counterexample {verdict.counterexample})" \
            if verdict.status == "invalid" else ""
        raise RuleError(f"not first-order valid{detail}")
    return []


def inline(proc_name: str, arg: Expr, call_id: Expr, table: LookupTable,
           taken: Optional[set] = None):
    """{startEv(m,e,i)} e' = e; body[e'/p] with e' a fresh copy of the
    formal parameter.  Returns the update prefix and the statement."""
    proc = lookup(proc_name, table)
    taken = set(taken or ()) | names(proc, arg, call_id) | {proc.param}
    e_p = fresh_rigid(proc.param, taken)
    stmt = seq_join(Assign(Var(e_p), arg),
                    subst_stmt(proc.body, {proc.param: Var(e_p)}))
    return (StartUpd(proc_name, arg, call_id),), stmt


def _rule_procedure_contract(seq, args, ctx):
    if not isinstance(seq.goal, ContractGoal):
        raise RuleError("ProcedureContract expects a contract goal")
    proc_name = seq.goal.proc
    if proc_name not in ctx.contracts:
        raise RuleError(f"no contract assumption for {proc_name!r}")
    c = ctx.contracts[proc_name]
    proc = lookup(proc_name, ctx.table)
    taken = names(seq, proc, c.pre) | {proc.param} | set(c.phi.params)
    n_p = fresh_rigid(ContractSpec.PARAM, taken)
    taken.add(n_p)
    i_p = fresh_rigid(ContractSpec.ID, taken)
    taken.add(i_p)
    update, inlined = inline(proc_name, Var(n_p), Var(i_p), ctx.table, taken)
    formula = MuApp(c.phi, (Var(n_p), Var(i_p)))
    gamma = (PredAssert(subst_vars(c.pre, {ContractSpec.PARAM: Var(n_p)})),) + \
        _contract_gamma(ctx)
    return [Sequent(gamma, Judgment(update, inlined, formula))]


def _rule_trabs(seq, args, ctx):
    j = _finished(seq, "TrAbs")
    call_indices = [k for k, a in enumerate(j.update) if isinstance(a, CallUpd)]
    if not call_indices:
        raise RuleError("TrAbs needs a call update")
    ci = _index_arg(args, "call", call_indices[0])
    if ci not in call_indices:
        raise RuleError(f"no call update at index {ci}")
    if any(k < ci for k in call_indices):
        raise RuleError("call updates precede the selected one")
    call: CallUpd = j.update[ci]
    u1, u2 = j.update[:ci], j.update[ci + 1:]

    parts = flatten_chain(j.formula)
    if any(op != "**" for op, _ in parts[1:]):
        raise RuleError("TrAbs expects a chop chain")
    occ_indices = [k for k, p in enumerate(parts)
                   if isinstance(p[1] if isinstance(p, tuple) else p, MuApp)]
    if not occ_indices:
        raise RuleError("no recursion occurrence in the goal formula")
    xi = _index_arg(args, "occ", occ_indices[0])
    if xi not in occ_indices or xi == 0 or xi == len(parts) - 1:
        raise RuleError("recursion occurrence must be interior")
    xapp = parts[xi][1]

    if call.proc not in ctx.contracts:
        raise RuleError(f"no contract assumption for {call.proc!r}")
    c = ctx.contracts[call.proc]
    if not any(isinstance(a, ContractAssumption) and a.proc == call.proc
               for a in seq.gamma):
        raise RuleError(f"contract for {call.proc!r} not among the assumptions")
    if xapp.mu != c.phi:
        raise RuleError("recursion occurrence does not match the contract")
    if len(xapp.args) != 2:
        raise RuleError("contract occurrences take (value, identifier) arguments")
    t_val, t_id = xapp.args
    if not isinstance(t_id, Var):
        raise RuleError("identifier argument must be a rigid symbol")
    # u1 holds no call update, so nothing blocks the substitution
    call_arg = apply_update_expr(u1, call.arg)
    if not fo.terms_equal(t_val, call_arg):
        raise RuleError(
            f"call argument {pretty_expr(call_arg)} does not match "
            f"occurrence argument {pretty_expr(t_val)}")

    phi1 = join_chain(parts[:xi])
    phi2 = join_chain([parts[xi + 1][1]] + parts[xi + 2:])
    preds = tuple(a for a in seq.gamma if isinstance(a, PredAssert))
    contracts = tuple(a for a in seq.gamma if isinstance(a, ContractAssumption))
    param = {ContractSpec.PARAM: call_arg}
    pre_inst = fold_expr(subst_vars(c.pre, param))
    f_call = fold_expr(subst_vars(c.result, param))
    res_k = ResVar(t_id)
    third_gamma = (PredAssert(Binary("==", res_k, f_call)),) + contracts
    return [
        Sequent(preds, Judgment(u1, None, phi1)),
        Sequent(preds, PredGoal(pre_inst)),
        Sequent(third_gamma, Judgment((Elem(call.target, res_k),) + u2, None, phi2)),
    ]


def _rule_apply_update(seq, args, ctx):
    j, idx, atom = _var_elem_at(seq, args, "ApplyUpdate")
    v, e = atom.target.name, atom.expr
    read = names(e)
    if v in read:
        raise RuleError("ApplyUpdate cannot propagate a self-referential update")
    # substitution is valid until v or a variable of e is reassigned
    new: List[UpdateAtom] = list(j.update)
    for k in range(idx + 1, len(j.update)):
        a = j.update[k]
        new[k] = _subst_atom(a, {v: e})
        written = update_writes(a)
        if written == v or written in read:
            break
    return [Sequent(seq.gamma, Judgment(tuple(new), j.stmt, j.formula))]


def _gap_tolerant(formula: Formula, update: Update, idx: int) -> bool:
    # dropping a state entry is covered when the goal is a contract
    # application (gap-closed) or the entry falls in a leading gap
    if isinstance(formula, MuApp):
        return True
    if isinstance(flatten_chain(formula)[0], Gap):
        return not any(isinstance(a, (StartUpd, FinishUpd, CallUpd))
                       for a in update[:idx])
    return False


def _rule_drop_update(seq, args, ctx):
    j, idx, atom = _var_elem_at(seq, args, "DropUpdate")
    v = atom.target.name
    alive = True
    for k in range(idx + 1, len(j.update)):
        if v in update_reads(j.update[k]):
            raise RuleError(f"{v!r} is read by a later update")
        if update_writes(j.update[k]) == v:
            alive = False
            break
    if alive:
        if v in names(j.stmt):
            raise RuleError(f"{v!r} occurs in the remaining statement")
        if v in names(j.formula):
            raise RuleError(f"{v!r} occurs in the goal formula")
    if not _gap_tolerant(j.formula, j.update, idx):
        raise RuleError("goal formula does not absorb the dropped state entry")
    update = j.update[:idx] + j.update[idx + 1:]
    return [Sequent(seq.gamma, Judgment(update, j.stmt, j.formula))]


def _rule_drop_res_update(seq, args, ctx):
    j = _judgment(seq)
    res_indices = [k for k, a in enumerate(j.update) if is_res_elem(a)]
    if not res_indices:
        raise RuleError("no result-variable update to drop")
    idx = _index_arg(args, "at", res_indices[-1])
    if idx not in res_indices:
        raise RuleError(f"no result-variable update at index {idx}")
    update = j.update[:idx] + j.update[idx + 1:]
    return [Sequent(seq.gamma, Judgment(update, j.stmt, j.formula))]


def _rule_apply_eq_rigid(seq, args, ctx):
    j = _judgment(seq)
    gi = _index_arg(args, "eq")
    if gi is None or not (0 <= gi < len(seq.gamma)):
        raise RuleError("ApplyEqRigid needs eq=<gamma index>")
    a = seq.gamma[gi]
    if not isinstance(a, PredAssert) or not isinstance(a.pred, Binary) \
            or a.pred.op != "==":
        raise RuleError("ApplyEqRigid expects an equality assumption")
    lhs, rhs = a.pred.left, a.pred.right
    if not isinstance(lhs, (Var, ResVar)):
        lhs, rhs = rhs, lhs
    # the equality is assumed of the state before the update and the
    # statement: once either writes a variable or res(...) node of the
    # equality, later reads no longer see the assumed values
    written = _written(j)
    for node in nodes(a.pred):
        if isinstance(node, (Var, ResVar)) and node in written:
            raise RuleError(f"the judgment writes {pretty_expr(node)}, so the equality "
                            "cannot be applied through it")
    if isinstance(lhs, Var):
        new_j = _subst_judgment(j, {lhs.name: rhs})
    elif isinstance(lhs, ResVar):
        if j.stmt is not None:
            raise RuleError("result-variable equalities apply after execution finished")
        new_j = _subst_judgment(j, {lhs: rhs}, _RES_BINDERS)
    else:
        raise RuleError("equality must bind a variable or result variable")
    # a finishEv or a return writes the result of a call whose id may be the
    # value of any index of the equality, whatever its structure
    if any(type(n) is ResVar for n in nodes(a.pred)) and any(
            type(n) in (FinishUpd, Return) for n in nodes(j.update, j.stmt)):
        raise RuleError("the judgment finishes a call, whose result variable the "
                        "equality may read")
    gamma = seq.gamma
    if args.get("drop"):
        gamma = gamma[:gi] + gamma[gi + 1:]
    return [Sequent(gamma, new_j)]


def _written(j: Judgment) -> list:
    """The variables and res(...) nodes that j's update and statement write."""
    out = [ResVar(a.call_id) if isinstance(a, FinishUpd) else a.target
           for a in j.update if not isinstance(a, StartUpd)]
    return out + [s.target for s in nodes(j.stmt) if isinstance(s, (Assign, CallAssign))]


def _event_formula_matches(atom, part, update_prefix) -> Optional[Expr]:
    """Equality side conditions when an event update meets a formula of its
    kind.  Unfold leaves no fresh(...) term in a goal."""
    if atom.proc != part.proc:
        return None
    try:
        ae = apply_update_expr(update_prefix, atom.arg)
        ai = apply_update_expr(update_prefix, atom.call_id)
    except UpdateApplicationError:
        return None
    return Binary("&&", Binary("==", ae, part.arg), Binary("==", ai, part.call_id))


def _rule_elim_event(kind: str):
    upd_type = StartUpd if kind == "start" else FinishUpd
    fml_type = StartEvF if kind == "start" else FinishEvF
    label = "ElimStart" if kind == "start" else "ElimFinish"

    def rule(seq, args, ctx):
        j = _finished(seq, label)
        if not j.update or not isinstance(j.update[-1], upd_type):
            raise RuleError(f"{label} expects a trailing event update")
        parts = flatten_chain(j.formula)
        # Phi ** ev under U{ev} leaves Phi under U; ev alone under {ev}, nothing
        if len(parts) >= 2 and parts[-1][0] == "**" and isinstance(parts[-1][1], fml_type):
            part = parts[-1][1]
            rest = [Sequent(seq.gamma, Judgment(j.update[:-1], None, _drop_last(parts)))]
        elif len(parts) == 1 and isinstance(parts[0], fml_type) and len(j.update) == 1:
            part, rest = parts[0], []
        else:
            raise RuleError(f"{label}: shape mismatch")
        cond = _event_formula_matches(j.update[-1], part, j.update[:-1])
        if cond is None:
            raise RuleError(f"{label}: event update and formula do not align")
        return [Sequent(seq.gamma, PredGoal(cond))] + rest

    return rule


def _atoms_outside(update: Update, exclude: frozenset) -> bool:
    for a in update:
        if isinstance(a, CallUpd):
            return False
        if isinstance(a, (StartUpd, FinishUpd)) and a.proc in exclude:
            return False
    return True


def _rule_subsume_updates(seq, args, ctx):
    j = _finished(seq, "SubsumeUpdates")
    parts = flatten_chain(j.formula)
    if len(parts) < 2 or parts[-1][0] != "**":
        raise RuleError("SubsumeUpdates expects a trailing chop gap")
    gap = parts[-1][1]
    if not isinstance(gap, Gap):
        raise RuleError("SubsumeUpdates expects a trailing no-event gap")
    default_keep = 0
    for k, a in enumerate(j.update):
        if isinstance(a, (StartUpd, FinishUpd, CallUpd)):
            default_keep = k + 1
    keep = _index_arg(args, "keep", default_keep)
    if not (0 <= keep <= len(j.update)):
        raise RuleError("keep out of range")
    dropped = j.update[keep:]
    if not _atoms_outside(dropped, gap.exclude):
        raise RuleError("dropped updates involve an excluded procedure")
    return [Sequent(seq.gamma, Judgment(j.update[:keep], None, _drop_last(parts)))]


def _rule_gap_axiom(seq, args, ctx):
    j = _finished(seq, "GapAxiom")
    if not isinstance(j.formula, Gap):
        raise RuleError("GapAxiom expects a no-event gap formula")
    if not _atoms_outside(j.update, j.formula.exclude):
        raise RuleError("updates involve an excluded procedure")
    return []


# A gap matches the one-state trace, so Phi's traces are in psi ** Phi
# and in Phi ** psi: the two rules below drop such an empty gap.  Not
# under "..": a concatenated gap takes at least one entry of its own.

def _rule_fte_prefix(seq, args, ctx):
    j = _judgment(seq)
    if not j.update or not isinstance(j.update[0], (StartUpd, FinishUpd)):
        raise RuleError("FiniteTraceEmptyPrefix expects a leading event update")
    parts = flatten_chain(j.formula)
    if len(parts) < 2 or parts[1][0] != "**":
        raise RuleError("FiniteTraceEmptyPrefix expects a leading chop gap")
    if not (isinstance(parts[0], Gap) and parts[0].exclude == {j.update[0].proc}):
        raise RuleError("gap exclusion must name the leading event's procedure")
    return [Sequent(seq.gamma, Judgment(j.update, j.stmt, _drop_first(parts)))]


def _rule_fte_postfix(seq, args, ctx):
    j = _finished(seq, "FiniteTraceEmptyPostfix")
    if not j.update or not isinstance(j.update[-1], (StartUpd, FinishUpd)):
        raise RuleError("FiniteTraceEmptyPostfix expects a trailing event update")
    parts = flatten_chain(j.formula)
    if len(parts) < 2 or parts[-1][0] != "**":
        raise RuleError("FiniteTraceEmptyPostfix expects a trailing gap")
    gap = parts[-1][1]
    if not (isinstance(gap, Gap) and gap.exclude == {j.update[-1].proc}):
        raise RuleError("gap exclusion must name the trailing event's procedure")
    return [Sequent(seq.gamma, Judgment(j.update, None, _drop_last(parts)))]


RULES = {
    "Assign": _rule_assign,
    "Skip": _rule_skip,
    "Scope": _rule_scope,
    "VarDecl": _rule_var_decl,
    "Cond": _rule_cond,
    "Return": _rule_return,
    "Prestate": _rule_prestate,
    "Poststate": _rule_poststate,
    "EmptyUpdate": _rule_empty_update,
    "Unfold": _rule_unfold,
    "OrLeft": _rule_or("left"),
    "OrRight": _rule_or("right"),
    "Close": _rule_close,
    "ProcedureContract": _rule_procedure_contract,
    "TrAbs": _rule_trabs,
    "ApplyUpdate": _rule_apply_update,
    "DropUpdate": _rule_drop_update,
    "DropResUpdate": _rule_drop_res_update,
    "ApplyEqRigid": _rule_apply_eq_rigid,
    "ElimStart": _rule_elim_event("start"),
    "ElimFinish": _rule_elim_event("finish"),
    "SubsumeUpdates": _rule_subsume_updates,
    "GapAxiom": _rule_gap_axiom,
    "FiniteTraceEmptyPrefix": _rule_fte_prefix,
    "FiniteTraceEmptyPostfix": _rule_fte_postfix,
}


def apply_rule(rule: str, seq: Sequent, args: Optional[dict],
               ctx: RuleContext) -> List[Sequent]:
    """Fully instantiated premises of one rule application.

    Rules that invent data (fresh witness symbols) record it in args, so
    the caller's dict is used in place when one is given.
    """
    handler = RULES.get(rule)
    if handler is None:
        raise RuleError(f"unknown rule {rule!r}")
    return handler(seq, args if args is not None else {}, ctx)


def contract_goal(proc: str) -> Sequent:
    return Sequent((), ContractGoal(proc))


# ---------------------------------------------------------------------------
# Proof checking (independent replay)
# ---------------------------------------------------------------------------

@record(frozen=True)
class InvalidStep:
    path: tuple
    reason: str

    def __str__(self):
        where = "/".join(str(p) for p in self.path) or "root"
        return f"invalid step at {where}: {self.reason}"


def replay(root: dict, proc: str, ctx: RuleContext, recorded) -> Optional[InvalidStep]:
    """Replay a loaded proof of proc's contract; None means it is valid.

    Every sequent is rebuilt from contract_goal(proc) by the nodes' rules,
    args and children alone.  recorded(node, seq) decides only whether the
    sequent a node records may stand for the rebuilt one, seq.
    """
    return _replay(root, contract_goal(proc), ctx, (), recorded)


def _replay(node: dict, seq: Sequent, ctx: RuleContext, path: tuple,
            recorded) -> Optional[InvalidStep]:
    if not recorded(node, seq):
        return InvalidStep(path, f"recorded sequent is not {seq!r}")
    rule = node["rule"]
    if rule is None:
        return InvalidStep(path, "open goal")
    try:
        premises = apply_rule(rule, seq, dict(node["args"]), ctx)
    except RuleError as e:
        return InvalidStep(path, f"{rule}: {e}")
    children = node["children"]
    if len(premises) != len(children):
        return InvalidStep(path, f"{rule}: expected {len(premises)} premises, "
                                 f"recorded {len(children)}")
    for k, (premise, child) in enumerate(zip(premises, children)):
        bad = _replay(child, premise, ctx, path + (k,), recorded)
        if bad is not None:
            return bad
    return None
