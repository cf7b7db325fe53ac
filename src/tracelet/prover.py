"""Proof trees, proof search and proof scripts on top of the calculus
kernel.

Nothing here is trusted.  The prover proposes rule applications and the
kernel (``calculus.apply_rule``) decides each one; a proof it builds is
accepted only when ``proofs.check_proof`` replays it.
"""

from __future__ import annotations

from typing import Optional

from . import fo
from .calculus import (ContractGoal, Judgment, PredGoal, RuleContext,
                       RuleError, Sequent, apply_rule, gamma_preds, stmt_head)
from .lang import (Assign, CallAssign, Expr, If, Return, Scope, Skip, Var,
                   While)
from .logic import (FinishEvF, Formula, Gap, MuApp, Or, StartEvF, StatePred,
                    flatten_chain)
from .updates import CallUpd, Elem, FinishUpd, is_res_elem, update_reads


class UnsupportedConstruct(Exception):
    pass


# ---------------------------------------------------------------------------
# Proof trees
# ---------------------------------------------------------------------------

class ProofNode:
    def __init__(self, sequent: Sequent, rule: Optional[str] = None,
                 args: Optional[dict] = None, children: Optional[list] = None):
        self.sequent = sequent
        self.rule = rule
        self.args = dict(args or {})
        self.children = list(children or [])

    @property
    def closed(self) -> bool:
        return self.rule is not None and all(c.closed for c in self.children)

    def open_goals(self) -> list:
        if self.rule is None:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.open_goals())
        return out

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


# ---------------------------------------------------------------------------
# Automated proving
# ---------------------------------------------------------------------------

class _Budget:
    def __init__(self, nodes: int):
        self.nodes = nodes

    def take(self) -> bool:
        self.nodes -= 1
        return self.nodes >= 0


def _attempt(rule: str, seq: Sequent, args: dict, ctx: RuleContext,
             budget: _Budget) -> ProofNode:
    try:
        premises = apply_rule(rule, seq, args, ctx)
    except RuleError:
        return ProofNode(seq)
    children = [_solve(p, ctx, budget) for p in premises]
    return ProofNode(seq, rule, args, children)


def _leading_pred(f: Formula) -> Optional[Expr]:
    parts = flatten_chain(f)
    head = parts[0]
    return head.pred if isinstance(head, StatePred) else None


def _solve(seq: Sequent, ctx: RuleContext, budget: _Budget) -> ProofNode:
    if not budget.take():
        return ProofNode(seq)
    goal = seq.goal

    if isinstance(goal, ContractGoal):
        return _attempt("ProcedureContract", seq, {}, ctx, budget)

    if isinstance(goal, PredGoal):
        try:
            apply_rule("Close", seq, {}, ctx)
            return ProofNode(seq, "Close", {}, [])
        except RuleError:
            return ProofNode(seq)

    j: Judgment = goal
    if j.stmt is not None:
        head, _ = stmt_head(j.stmt)
        if isinstance(head, While):
            raise UnsupportedConstruct("no calculus rule covers while loops")
        rule = {
            Skip: "Skip",
            Assign: "Assign",
            CallAssign: "Assign",
            If: "Cond",
            Return: "Return",
        }.get(type(head))
        if isinstance(head, Scope):
            rule = "VarDecl" if head.decls else "Scope"
        return _attempt(rule, seq, {}, ctx, budget)

    formula = j.formula
    has_call = any(isinstance(a, CallUpd) for a in j.update)

    if isinstance(formula, Gap):
        return _attempt("GapAxiom", seq, {}, ctx, budget)
    if isinstance(formula, MuApp):
        if has_call:
            step = _pre_call_simplification(seq, ctx)
            if step is not None:
                return _attempt(step[0], seq, step[1], ctx, budget)
        return _attempt("Unfold", seq, {}, ctx, budget)

    if isinstance(formula, Or):
        order = []
        left_pred = _leading_pred(formula.left)
        right_pred = _leading_pred(formula.right)
        preds = gamma_preds(seq)
        left_ok = left_pred is not None and bool(fo.fo_valid(preds, left_pred))
        right_ok = right_pred is not None and bool(fo.fo_valid(preds, right_pred))
        if left_ok and not right_ok:
            order = ["OrLeft"]
        elif right_ok and not left_ok:
            order = ["OrRight"]
        else:
            order = ["OrLeft", "OrRight"]
        first = None
        for rule in order:
            attempt = _attempt(rule, seq, {}, ctx, budget)
            if attempt.closed:
                return attempt
            first = first or attempt
        return first

    parts = flatten_chain(formula)
    has_occurrence = any(
        isinstance(p[1] if isinstance(p, tuple) else p, MuApp)
        for p in parts) and len(parts) > 1
    if has_call and has_occurrence:
        return _attempt("TrAbs", seq, {}, ctx, budget)

    if any(is_res_elem(a) for a in j.update):
        return _attempt("DropResUpdate", seq, {}, ctx, budget)

    if len(parts) == 1:
        lone = parts[0]
        if isinstance(lone, StatePred) and not j.update:
            return _attempt("EmptyUpdate", seq, {}, ctx, budget)
        if isinstance(lone, StartEvF) and len(j.update) == 1:
            return _attempt("ElimStart", seq, {}, ctx, budget)
        return ProofNode(seq)

    if isinstance(parts[0], StatePred) and parts[1][0] == "**":
        return _attempt("Prestate", seq, {}, ctx, budget)
    last_op, last = parts[-1]
    if isinstance(last, StatePred) and last_op == "**":
        return _attempt("Poststate", seq, {}, ctx, budget)
    if isinstance(last, FinishEvF) and j.update and isinstance(j.update[-1], FinishUpd):
        return _attempt("ElimFinish", seq, {}, ctx, budget)
    if isinstance(last, Gap) and last_op == "**":
        return _attempt("SubsumeUpdates", seq, {}, ctx, budget)
    return ProofNode(seq)


def _pre_call_simplification(seq: Sequent, ctx: RuleContext):
    """Normalize elementary updates before unfolding at a call goal.

    Propagate the first update whose target a later atom reads, where the
    kernel's ApplyUpdate changes the goal; otherwise drop the first update
    the kernel's DropUpdate accepts.
    """
    j: Judgment = seq.goal
    reads = [update_reads(b) for b in j.update]
    for k, a in enumerate(j.update):
        if not (isinstance(a, Elem) and isinstance(a.target, Var)):
            continue
        if not any(a.target.name in r for r in reads[k + 1:]):
            continue
        try:
            [premise] = apply_rule("ApplyUpdate", seq, {"at": k}, ctx)
        except RuleError:
            continue
        if premise.goal != j:
            return ("ApplyUpdate", {"at": k})
    for k in range(len(j.update)):
        try:
            apply_rule("DropUpdate", seq, {"at": k}, ctx)
        except RuleError:
            continue
        return ("DropUpdate", {"at": k})
    return None


# the nodes one automated search may build, unless told otherwise
MAX_NODES = 50_000


def prove_auto(seq: Sequent, ctx: RuleContext, max_nodes: int = MAX_NODES) -> ProofNode:
    """Strategy-driven search; the returned tree may contain open goals."""
    return _solve(seq, ctx, _Budget(max_nodes))


# ---------------------------------------------------------------------------
# Proof scripts (.tps): one rule application per line
# ---------------------------------------------------------------------------

class ScriptError(Exception):
    pass


def parse_script(text: str):
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3 or parts[1] != "@":
            raise ScriptError(f"line {lineno}: expected 'rule @ goal-index [key=value ...]'")
        rule = parts[0]
        try:
            idx = int(parts[2])
        except ValueError:
            raise ScriptError(f"line {lineno}: goal index must be an integer") from None
        args = {}
        for kv in parts[3:]:
            if "=" not in kv:
                raise ScriptError(f"line {lineno}: malformed argument {kv!r}")
            key, val = kv.split("=", 1)
            try:
                args[key] = int(val)
            except ValueError:
                args[key] = val
        steps.append((lineno, rule, idx, args))
    return steps


def apply_script(root: ProofNode, ctx: RuleContext, text: str) -> ProofNode:
    """Apply a script's steps in order; each names one of root's open goals."""
    for lineno, rule, idx, args in parse_script(text):
        goals = root.open_goals()
        if not (0 <= idx < len(goals)):
            raise ScriptError(f"line {lineno}: goal index {idx} out of range "
                              f"({len(goals)} open)")
        node = goals[idx]
        try:
            premises = apply_rule(rule, node.sequent, args, ctx)
        except RuleError as e:
            raise ScriptError(f"line {lineno}: {rule} failed: {e} "
                              f"(goal: {node.sequent!r})") from None
        node.rule = rule
        node.args = args
        node.children = [ProofNode(p) for p in premises]
    return root


def run_script(root_seq: Sequent, ctx: RuleContext, text: str) -> ProofNode:
    return apply_script(ProofNode(root_seq), ctx, text)
