"""Proof files (``.proof.json``): the writer, the reader with its shape
check, and the check of a loaded proof against its contract.

Nothing here is trusted.  A file records each node's sequent beside its
rule, args and children.  ``check_proof`` has the kernel
(``calculus.replay``) rebuild every sequent from the contract goal and
compares each recorded one, as printed, with the rebuilt one.  A
recorded sequent is never evidence: a wrong comparison could only reject
a valid file, or accept a file that still proves the contract it names.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from .calculus import (Assertion, Goal, InvalidStep, Judgment, PredAssert,
                       PredGoal, RuleContext, Sequent, replay)
from .lang import pretty_expr
from .logic import pretty_formula
from .updates import Update


class ProofFileError(Exception):
    """A proof file is not JSON or not shaped like a proof tree."""


class _Printer:
    """The printed form of sequents, with each object printed once.

    A child sequent mostly reuses its parent's formula, update, statement
    and predicates, so one printer serves one dump_proof or check_proof
    call and memoizes by id().  Each memo entry holds the object beside
    its text: the id cannot pass to another object while the printer
    lives.
    """

    def __init__(self):
        self.formulas, self.updates, self.atoms = {}, {}, {}
        self.stmts, self.preds = {}, {}

    @staticmethod
    def _once(memo: dict, show, obj) -> str:
        got = memo.get(id(obj))
        if got is None:
            got = memo[id(obj)] = (obj, show(obj))
        return got[1]

    def _update(self, update: Update) -> str:
        # as pretty_update prints it, with each atom printed once
        return "".join([self._once(self.atoms, repr, a) for a in update])

    def assertion(self, a: Assertion) -> dict:
        if isinstance(a, PredAssert):
            return {"pred": self._once(self.preds, pretty_expr, a.pred)}
        return {"contract": a.proc}

    def goal(self, g: Goal) -> dict:
        if isinstance(g, Judgment):
            return {"kind": "judgment",
                    "update": self._once(self.updates, self._update, g.update),
                    "stmt": None if g.stmt is None else self._once(self.stmts, str, g.stmt),
                    "formula": self._once(self.formulas, pretty_formula, g.formula)}
        if isinstance(g, PredGoal):
            return {"kind": "pred", "pred": self._once(self.preds, pretty_expr, g.pred)}
        return {"kind": "contract", "proc": g.proc}

    def sequent(self, seq: Sequent) -> dict:
        return {"gamma": [self.assertion(a) for a in seq.gamma],
                "goal": self.goal(seq.goal)}

    def node(self, node) -> dict:
        return {"sequent": self.sequent(node.sequent),
                "rule": node.rule,
                "args": node.args,
                "children": [self.node(c) for c in node.children]}


_FORMAT = "tracelet-proof"


def dump_proof(node, proc: str) -> str:
    """The proof file of node, a ``prover.ProofNode`` proving proc's
    contract: its document on one line, with sorted keys and ASCII
    escapes.  Any JSON layout of the same document loads the same."""
    return json.dumps({"closed": node.closed, "format": _FORMAT, "proc": proc,
                       "root": _Printer().node(node), "version": 1},
                      sort_keys=True) + "\n"


_NODE_KEYS = ("sequent", "rule", "args", "children")


def load_proof(text: str) -> Tuple[str, dict]:
    """The procedure a proof file names and its root node, as JSON.

    Only the shape is checked here.  Stored sequents stay in their printed
    form: check_proof compares them with the sequents the kernel rebuilds.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ProofFileError(f"not JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ProofFileError("not a tracelet proof file")
    if not isinstance(doc.get("proc"), str):
        raise ProofFileError("'proc' must be a procedure name")
    if "root" not in doc:
        raise ProofFileError("missing key 'root'")
    stack = [((), doc["root"])]
    while stack:
        path, node = stack.pop()
        where = "/".join(str(p) for p in path) or "root"
        if not isinstance(node, dict) or any(k not in node for k in _NODE_KEYS):
            raise ProofFileError(f"node {where} is not an object with keys "
                                 + ", ".join(_NODE_KEYS))
        if not (node["rule"] is None or isinstance(node["rule"], str)):
            raise ProofFileError(f"node {where}: 'rule' must be a string or null")
        if not isinstance(node["args"], dict):
            raise ProofFileError(f"node {where}: 'args' must be an object")
        if not isinstance(node["children"], list):
            raise ProofFileError(f"node {where}: 'children' must be a list")
        stack.extend((path + (k,), c) for k, c in enumerate(node["children"]))
    return doc["proc"], doc["root"]


def node_count(root: dict) -> int:
    """The nodes of a loaded proof tree."""
    return 1 + sum(node_count(c) for c in root["children"])


def check_proof(root: dict, proc: str, ctx: RuleContext) -> Optional[InvalidStep]:
    """Replay a loaded proof of proc's contract; None means it is valid.

    The kernel rebuilds every sequent from the rules and args alone; each
    stored sequent must print exactly as the rebuilt one does.
    """
    printer = _Printer()
    return replay(root, proc, ctx, lambda node, seq: node["sequent"] == printer.sequent(seq))
