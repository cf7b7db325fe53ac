"""Source language: expressions, statements, programs and their parser.

Programs are lists of single-parameter procedure declarations followed by
a ``main { decls; body }`` block.  Procedure bodies are scopes ending in
exactly one tail-position ``return``.  Values are unbounded integers;
booleans exist only at condition positions.
"""

from __future__ import annotations

import operator
from types import FunctionType
from typing import Iterator, Optional, Union


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_repr(self):
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
    return f"{self.__class__.__qualname__}({shown})"


_SHAPES = {}


def _shape(arity: int, frozen: bool) -> dict:
    """``__init__``, ``__eq__`` and, if frozen, ``__hash__`` for the fields
    ``_0``, ``_1``, ...; compiled from one source text once per shape."""
    got = _SHAPES.get((arity, frozen))
    if got is None:
        names = [f"_{k}" for k in range(arity)]
        assign = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
        init = "".join(f"\n    {assign.format(n)}" for n in names) or "\n    pass"
        own = "".join(f"self.{n}," for n in names)
        other = "".join(f"other.{n}," for n in names)
        src = (f"def __init__(self, {', '.join(names)}):{init}\n"
               "def __eq__(self, other):\n"
               "    if other.__class__ is self.__class__:\n"
               f"        return ({own}) == ({other})\n"
               "    return NotImplemented\n")
        if frozen:
            src += f"def __hash__(self):\n    return hash(({own}))\n"
        got = _SHAPES[arity, frozen] = {}
        exec(src, {"__name__": __name__, "_set": object.__setattr__}, got)
    return got


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: a ``__slots__`` value class whose fields are the
    annotated names of the class body, in order; a value assigned in the
    body is that field's default.

    ``__init__``, ``__eq__`` (same class, equal field tuples) and
    ``__hash__`` (the hash of the field tuple; ``None`` unless frozen) are
    the shape's compiled methods with the field names put in their code,
    so they run as if written for the class.  ``__repr__`` prints
    ``Name(a=..., b=...)``.  A frozen record raises AttributeError on
    assignment and deletion.  Methods the class body defines are kept.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", ()))
    first = len(names) - sum(n in ns for n in names)  # the first field with a default
    defaults = tuple(ns.pop(n) for n in names[first:])
    made = {"__repr__": _record_repr}
    if frozen:
        made.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        made["__hash__"] = None
    rename = {f"_{k}": n for k, n in enumerate(names)}
    for name, fn in _shape(len(names), frozen).items():
        code = fn.__code__
        code = code.replace(co_names=tuple(rename.get(x, x) for x in code.co_names),
                            co_varnames=tuple(rename.get(x, x) for x in code.co_varnames),
                            co_consts=tuple(rename.get(x, x) for x in code.co_consts))
        made[name] = FunctionType(code, fn.__globals__, name,
                                  defaults if name == "__init__" else None)
        made[name].__qualname__ = f"{cls.__qualname__}.{name}"
    for name, fn in made.items():
        ns.setdefault(name, fn)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__slots__"] = names
    ns["__qualname__"] = cls.__qualname__
    return type(cls)(cls.__name__, cls.__bases__, ns)


# ---------------------------------------------------------------------------
# The field walk.  A node's fields are its class's annotated names, in
# constructor order; a field annotated ``Names`` holds declared variables.
# ---------------------------------------------------------------------------

Names = tuple
_PLANS = {}


def getter(names) -> callable:
    """A function that returns the tuple of the named attributes of a node."""
    if len(names) != 1:
        return operator.attrgetter(*names) if names else lambda node: ()
    one = operator.attrgetter(names[0])
    return lambda node: (one(node),)


def _plan(kind) -> tuple:
    """(fields, kids, declared, cached) of a node class: a getter of its
    fields, the fields that may hold a node (annotated other than str, int,
    bool, frozenset or Names) and those annotated Names, and whether it
    keeps its ``names`` in a ``_names`` slot.  str, tuple and None have no
    fields."""
    notes = getattr(kind, "__annotations__", {})
    got = _PLANS[kind] = (
        getter(list(notes)),
        tuple(f for f, n in notes.items() if n not in ("str", "int", "bool", "frozenset", "Names")),
        [f for f, n in notes.items() if n == "Names"], hasattr(kind, "_names"))
    return got


def fields(node) -> tuple:
    """node's field values, in constructor order."""
    return (_PLANS.get(type(node)) or _plan(type(node)))[0](node)


def remake(node, values):
    """node's class over new field values; node itself when none changed."""
    return node if all(map(operator.is_, values, fields(node))) else type(node)(*values)


def nodes(*roots) -> Iterator:
    """Every node under roots, each before its children."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack.extend(node)
        elif node is not None:
            yield node
            stack.extend([getattr(node, f) for f in (_PLANS.get(type(node)) or _plan(type(node)))[1]])


def names(*roots) -> set:
    """The variable names under roots, read, written or declared alike:
    each Var's, and those of each Names field (a block's declarations, a
    fixed point's parameters)."""
    out = set()
    for node in roots:
        _names(node, out)
    return out


def _names(node, out: set):
    kind = type(node)
    if kind is Var:
        out.add(node.name)
    elif kind is tuple:
        for item in node:
            _names(item, out)
    elif node is not None:
        _, kids, declared, cached = _PLANS.get(kind) or _plan(kind)
        if cached:
            if node._names is None:
                node._names = frozenset(names(*[getattr(node, f) for f in kids]).union(
                    *[getattr(node, f) for f in declared]))
            out |= node._names
        else:
            if declared:
                out.update(*[getattr(node, f) for f in declared])
            for f in kids:
                _names(getattr(node, f), out)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Expressions (shared by programs, predicates, update right-hand sides and
# contract terms)
# ---------------------------------------------------------------------------

ARITH_OPS = ("+", "-", "*")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("&&", "||")


@record(frozen=True)
class IntLit:
    value: int


@record(frozen=True)
class BoolLit:
    value: bool


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class ResVar:
    """Result variable res(i); written only by the semantics itself."""

    index: Expr


@record(frozen=True)
class Fresh:
    """fresh(i): a call identifier fresh for the enclosing ones.

    It stands only as a whole argument of a contract formula, never in a
    program.  During membership checking it is matched existentially
    against the call identifiers occurring in the segment; the calculus
    instead instantiates it with a fresh rigid symbol at unfold time.
    """

    arg: Expr


@record(frozen=True)
class Unary:
    op: str  # '-' or '!'
    operand: Expr


@record(frozen=True)
class Binary:
    op: str
    left: Expr
    right: Expr


Expr = Union[IntLit, BoolLit, Var, ResVar, Fresh, Unary, Binary]

_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
         "+": 4, "-": 4, "*": 5}


def pretty_expr(e: Expr, min_prec: int = 0) -> str:
    """Minimal-parentheses rendering; reparses to the same tree.  It is the
    ``__str__`` of every expression class."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        # comparisons do not chain, so neither side of one may be one bare
        left = pretty_expr(e.left, prec + 1 if e.op in CMP_OPS else prec)
        text = f"{left} {e.op} {pretty_expr(e.right, prec + 1)}"
        return f"({text})" if min_prec > prec else text
    if isinstance(e, Unary):
        inner = pretty_expr(e.operand, 6)
        # -3 reads back as one literal, so a literal under a minus is -(3)
        if e.op == "-" and isinstance(e.operand, IntLit):
            inner = f"({inner})"
        return f"({e.op}{inner})" if min_prec > 6 else e.op + inner
    if isinstance(e, ResVar):
        return f"res({pretty_expr(e.index)})"
    if isinstance(e, Fresh):
        return f"fresh({pretty_expr(e.arg)})"
    return "true" if e.value else "false"  # a BoolLit


for _kind in Expr.__args__:
    _kind.__str__ = pretty_expr


def subst_vars(e: Expr, mapping: dict) -> Expr:
    """Substitute, all at once, mapping[v] for every occurrence of Var(v)
    and mapping[r] for every res(...) node equal to a key r; res indices
    compare structurally.

    A subtree with nothing to substitute is returned as it is: records are
    immutable, so the result may share it.
    """
    kind = type(e)
    if kind is Var:
        return mapping.get(e.name, e)
    if kind is Binary:
        left, right = subst_vars(e.left, mapping), subst_vars(e.right, mapping)
        return e if left is e.left and right is e.right else Binary(e.op, left, right)
    if kind is Unary:
        inner = subst_vars(e.operand, mapping)
        return e if inner is e.operand else Unary(e.op, inner)
    if kind is ResVar:
        got = mapping.get(e)
        if got is not None:
            return got
        inner = subst_vars(e.index, mapping)
        return e if inner is e.index else ResVar(inner)
    if kind is Fresh:
        inner = subst_vars(e.arg, mapping)
        return e if inner is e.arg else Fresh(inner)
    return e


def fold_expr(e: Expr) -> Expr:
    """Constant-fold arithmetic; keeps everything else untouched."""
    if isinstance(e, Unary):
        inner = fold_expr(e.operand)
        if e.op == "-" and isinstance(inner, IntLit):
            return IntLit(-inner.value)
        return Unary(e.op, inner)
    if isinstance(e, Binary):
        l, r = fold_expr(e.left), fold_expr(e.right)
        if e.op in ARITH_OPS and isinstance(l, IntLit) and isinstance(r, IntLit):
            if e.op == "+":
                return IntLit(l.value + r.value)
            if e.op == "-":
                return IntLit(l.value - r.value)
            return IntLit(l.value * r.value)
        # x + 0, 0 + x, x - 0, x * 1, 1 * x
        if e.op == "+" and isinstance(r, IntLit) and r.value == 0:
            return l
        if e.op == "+" and isinstance(l, IntLit) and l.value == 0:
            return r
        if e.op == "-" and isinstance(r, IntLit) and r.value == 0:
            return l
        if e.op == "*" and isinstance(r, IntLit) and r.value == 1:
            return l
        if e.op == "*" and isinstance(l, IntLit) and l.value == 1:
            return r
        return Binary(e.op, l, r)
    return e


# ---------------------------------------------------------------------------
# Statements and programs
# ---------------------------------------------------------------------------

@record(frozen=True)
class Skip:
    def __str__(self):
        return "skip"


@record(frozen=True)
class Assign:
    target: Union[Var, ResVar]
    expr: Expr

    def __str__(self):
        return f"{self.target} = {self.expr}"


@record(frozen=True)
class CallAssign:
    target: Var
    proc: str
    arg: Expr

    def __str__(self):
        return f"{self.target} = {self.proc}({self.arg})"


@record(frozen=True)
class If:
    cond: Expr
    body: Stmt

    def __str__(self):
        return f"if ({self.cond}) {{ {self.body} }}"


@record(frozen=True)
class While:
    cond: Expr
    body: Stmt

    def __str__(self):
        return f"while ({self.cond}) {{ {self.body} }}"


@record(frozen=True)
class Seq:
    first: Stmt
    second: Stmt

    def __str__(self):
        return f"{self.first}; {self.second}"


@record(frozen=True)
class Scope:
    decls: Names
    body: Stmt

    def __str__(self):
        ds = "".join(f"{d}; " for d in self.decls)
        return f"{{ {ds}{self.body} }}"


@record(frozen=True)
class Return:
    expr: Expr

    def __str__(self):
        return f"return {self.expr}"


Stmt = Union[Skip, Assign, CallAssign, If, While, Seq, Scope, Return]


def seq(parts) -> Stmt:
    """Right-associated sequence of statements."""
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Seq(p, out)
    return out


def subst_stmt(s: Stmt, mapping: dict) -> Stmt:
    """Substitute, all at once, mapping[v] for every free occurrence of
    Var(v) in a statement; a block that declares v shadows it.

    As in ``subst_vars``, a statement in which nothing changes is returned
    as it is.  An assigned variable is renamed by a Var replacement and
    kept otherwise.
    """
    kind = type(s)
    if kind is Seq:
        first = subst_stmt(s.first, mapping)
        second = subst_stmt(s.second, mapping)
        return s if first is s.first and second is s.second else Seq(first, second)
    if kind is Assign or kind is CallAssign:
        target = s.target
        if type(target) is Var:
            renamed = mapping.get(target.name)
            if type(renamed) is Var:
                target = renamed
        if kind is Assign:
            expr = subst_vars(s.expr, mapping)
            return s if target is s.target and expr is s.expr else Assign(target, expr)
        arg = subst_vars(s.arg, mapping)
        return s if target is s.target and arg is s.arg else CallAssign(target, s.proc, arg)
    if kind is If or kind is While:
        cond, body = subst_vars(s.cond, mapping), subst_stmt(s.body, mapping)
        return s if cond is s.cond and body is s.body else kind(cond, body)
    if kind is Scope:
        if not mapping.keys().isdisjoint(s.decls):
            mapping = {k: v for k, v in mapping.items() if k not in s.decls}
        body = subst_stmt(s.body, mapping) if mapping else s.body
        return s if body is s.body else Scope(s.decls, body)
    if kind is Return:
        expr = subst_vars(s.expr, mapping)
        return s if expr is s.expr else Return(expr)
    return s  # a Skip


@record(frozen=True)
class ProcDecl:
    name: str
    param: str
    body: Scope  # ends in a tail-position Return

    def __str__(self):
        return f"{self.name}({self.param}) {self.body}"


@record(frozen=True)
class Program:
    procs: tuple
    main_decls: Names
    main_body: Stmt

    def __str__(self):
        parts = [str(p) for p in self.procs]
        ds = "".join(f"{d}; " for d in self.main_decls)
        parts.append(f"main {{ {ds}{self.main_body} }}")
        return "\n\n".join(parts)


LookupTable = dict


class UnknownProcedure(Exception):
    pass


def build_lookup(program: Program) -> LookupTable:
    return {p.name: p for p in program.procs}


def lookup(name: str, table: LookupTable) -> ProcDecl:
    try:
        return table[name]
    except KeyError:
        raise UnknownProcedure(name) from None


# ---------------------------------------------------------------------------
# Lexer (shared with the formula parser)
# ---------------------------------------------------------------------------

_TWO_CHAR = ("==", "!=", "<=", ">=", "&&", "||", "**", "..", "~~", ":=", "/\\", "\\/")
_ONE_CHAR = "+-*!<>=(){}[],;.~:@"


@record
class Token:
    kind: str  # 'ident' | 'int' | 'sym' | 'eof'
    text: str
    line: int
    col: int


def tokenize(src: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_#"):
                j += 1
            while j < n and src[j] == "'":
                j += 1
            toks.append(Token("ident", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = src[i:i + 2]
        if two in _TWO_CHAR:
            toks.append(Token("sym", two, line, start_col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            toks.append(Token("sym", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def at_ident(self, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == "ident" and (text is None or t.text == text)

    def expect_sym(self, text: str) -> Token:
        t = self.peek()
        if not self.at_sym(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def expect_ident(self, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != "ident" or (text is not None and t.text != text):
            what = text or "identifier"
            raise ParseError(f"expected {what!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)


RESERVED = {"skip", "if", "while", "return", "main", "res", "true", "false",
            "mu", "contract", "spec", "fresh", "psi", "startEv", "finishEv"}


# Expression parsing, shared grammar.  allow_res/allow_bool control which
# leaves are legal: user programs get neither res(i) nor true/false.

def parse_expr(ts: TokenStream, allow_res: bool = False, allow_bool: bool = False) -> Expr:
    return _parse_or(ts, allow_res, allow_bool)


def _parse_or(ts, ar, ab):
    e = _parse_and(ts, ar, ab)
    while ts.at_sym("||"):
        ts.next()
        e = Binary("||", e, _parse_and(ts, ar, ab))
    return e


def _parse_and(ts, ar, ab):
    e = _parse_cmp(ts, ar, ab)
    while ts.at_sym("&&"):
        ts.next()
        e = Binary("&&", e, _parse_cmp(ts, ar, ab))
    return e


def _parse_cmp(ts, ar, ab):
    e = _parse_add(ts, ar, ab)
    for op in CMP_OPS:
        if ts.at_sym(op):
            ts.next()
            return Binary(op, e, _parse_add(ts, ar, ab))
    return e


def _parse_add(ts, ar, ab):
    e = _parse_mul(ts, ar, ab)
    while ts.at_sym("+") or ts.at_sym("-"):
        op = ts.next().text
        e = Binary(op, e, _parse_mul(ts, ar, ab))
    return e


def _parse_mul(ts, ar, ab):
    e = _parse_unary(ts, ar, ab)
    while ts.at_sym("*"):
        ts.next()
        e = Binary("*", e, _parse_unary(ts, ar, ab))
    return e


def _parse_unary(ts, ar, ab):
    if ts.at_sym("-"):
        ts.next()
        # only an integer right after the minus folds into a negative literal
        if ts.peek().kind == "int":
            return IntLit(-_int_value(ts.next()))
        return Unary("-", _parse_unary(ts, ar, ab))
    if ts.at_sym("!"):
        ts.next()
        return Unary("!", _parse_unary(ts, ar, ab))
    return _parse_atom(ts, ar, ab)


def _int_value(t: Token) -> int:
    """The value of an int token.  ``tokenize`` takes any Unicode digit,
    so int() may reject one (``²``), or a literal past Python's limit on
    the digits int() reads."""
    try:
        return int(t.text)
    except ValueError:
        what = (f"an integer literal of {len(t.text)} digits is too long" if t.text.isascii()
                else f"{t.text!r} is not a decimal integer literal")
        raise ParseError(what, t.line, t.col) from None


def _parse_atom(ts, ar, ab):
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return IntLit(_int_value(t))
    if ts.at_sym("("):
        ts.next()
        e = _parse_or(ts, ar, ab)
        ts.expect_sym(")")
        return e
    if t.kind == "ident":
        if t.text == "res":
            if not ar:
                ts.error("res(...) is reserved for the semantics")
            ts.next()
            ts.expect_sym("(")
            idx = _parse_or(ts, ar, ab)
            ts.expect_sym(")")
            return ResVar(idx)
        if t.text in ("true", "false"):
            if not ab:
                ts.error(f"{t.text!r} not allowed here")
            ts.next()
            return BoolLit(t.text == "true")
        if t.text in RESERVED:
            ts.error(f"reserved word {t.text!r} in expression")
        ts.next()
        return Var(t.text)
    ts.error(f"expected expression, found {t.text!r}")


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------

def _parse_decls(ts: TokenStream) -> list:
    # leading "x;" lines of a block are declarations, as in the listings
    decls = []
    while ts.at_ident() and ts.peek().text not in RESERVED and \
            ts.peek(1).kind == "sym" and ts.peek(1).text == ";":
        decls.append(ts.next().text)
        ts.next()  # ';'
    return decls


def _parse_stmt(ts: TokenStream) -> Stmt:
    t = ts.peek()
    if ts.at_ident("skip"):
        ts.next()
        return Skip()
    if ts.at_ident("if") or ts.at_ident("while"):
        kw = ts.next().text
        ts.expect_sym("(")
        cond = parse_expr(ts)
        ts.expect_sym(")")
        body = _parse_block(ts)
        return If(cond, body) if kw == "if" else While(cond, body)
    if ts.at_sym("{"):
        return _parse_block(ts)
    if ts.at_ident():
        if t.text in RESERVED:
            ts.error(f"unexpected {t.text!r}")
        name = ts.next().text
        ts.expect_sym("=")
        if ts.at_ident() and ts.peek().text not in RESERVED and \
                ts.peek(1).kind == "sym" and ts.peek(1).text == "(":
            proc = ts.next().text
            ts.expect_sym("(")
            arg = parse_expr(ts)
            ts.expect_sym(")")
            return CallAssign(Var(name), proc, arg)
        return Assign(Var(name), parse_expr(ts))
    ts.error(f"expected statement, found {t.text!r}")


def _parse_stmt_list(ts: TokenStream, *, in_proc: bool) -> tuple:
    """Statements separated by ';'.  Returns (stmt_list, return_expr_or_none)."""
    stmts = []
    ret = None
    while not ts.at_sym("}"):
        if ts.at_ident("return"):
            tok = ts.next()
            ret = parse_expr(ts)
            if not in_proc:
                raise ParseError("return outside a procedure body", tok.line, tok.col)
            while ts.at_sym(";"):
                ts.next()
            if not ts.at_sym("}"):
                raise ParseError("return must be the final statement", tok.line, tok.col)
            break
        stmts.append(_parse_stmt(ts))
        if ts.at_sym(";"):
            while ts.at_sym(";"):
                ts.next()
        elif not ts.at_sym("}"):
            ts.error("expected ';' or '}'")
    return stmts, ret


def _parse_block(ts: TokenStream) -> Stmt:
    ts.expect_sym("{")
    decls = _parse_decls(ts)
    stmts, ret = _parse_stmt_list(ts, in_proc=False)
    ts.expect_sym("}")
    body = seq(stmts) if stmts else Skip()
    return Scope(tuple(decls), body) if decls else body


def _parse_proc(ts: TokenStream) -> ProcDecl:
    name_tok = ts.expect_ident()
    name = name_tok.text
    ts.expect_sym("(")
    param = ts.expect_ident().text
    ts.expect_sym(")")
    ts.expect_sym("{")
    decls = _parse_decls(ts)
    stmts, ret = _parse_stmt_list(ts, in_proc=True)
    if ret is None:
        raise ParseError(f"procedure {name!r} must end with return",
                         name_tok.line, name_tok.col)
    ts.expect_sym("}")
    return ProcDecl(name, param, Scope(tuple(decls), seq(stmts + [Return(ret)])))


def parse_program(text: str) -> Program:
    ts = TokenStream(tokenize(text))
    procs = []
    seen = set()
    while ts.at_ident() and not ts.at_ident("main"):
        p = _parse_proc(ts)
        if p.name in seen:
            tok = ts.peek()
            raise ParseError(f"duplicate procedure name {p.name!r}", tok.line, tok.col)
        seen.add(p.name)
        procs.append(p)
    ts.expect_ident("main")
    ts.expect_sym("{")
    decls = _parse_decls(ts)
    stmts, _ = _parse_stmt_list(ts, in_proc=False)
    ts.expect_sym("}")
    if ts.peek().kind != "eof":
        ts.error("trailing input after main block")
    return Program(tuple(procs), tuple(decls), seq(stmts) if stmts else Skip())


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

@record(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str

    def __str__(self):
        return f"[{self.code}] {self.where}: {self.message}"


def _stmt_seq(s: Stmt) -> Iterator[Stmt]:
    if isinstance(s, Seq):
        yield from _stmt_seq(s.first)
        yield from _stmt_seq(s.second)
    else:
        yield s


# For each literal kind and operator: the type it produces, the type of its
# operands, and what a context that wants the other type is told
_TYPING = {IntLit: ("int", None, "integer where condition expected"),
           BoolLit: ("bool", None, "boolean literal in integer position"),
           Var: ("int", None, "integer variable where condition expected"),
           "!": ("bool", "bool", "boolean where integer expected"),
           **{op: ("int", "int", "arithmetic where condition expected") for op in ARITH_OPS},
           **{op: ("bool", "int", "comparison in integer position") for op in CMP_OPS},
           **{op: ("bool", "bool", "boolean operator in integer position") for op in BOOL_OPS}}


def _check_expr(e: Expr, scope: set, want: str, diags, where: str):
    # want is 'int' or 'bool'
    kind = type(e)
    if kind is ResVar:
        diags.append(Diagnostic("res-var", "res(...) may not appear in user programs", where))
        return
    if kind is Var and e.name not in scope:
        diags.append(Diagnostic("undeclared", f"variable {e.name!r} not in scope", where))
    made, operand, message = _TYPING[e.op if kind is Unary or kind is Binary else kind]
    if want != made:
        diags.append(Diagnostic("type", f"{message}: {e}", where))
    if operand:
        for sub in fields(e)[1:]:  # after the operator
            _check_expr(sub, scope, operand, diags, where)


def _check_stmt(s: Stmt, scope: set, locals_only: Optional[set], table: dict,
                diags, where: str, tail_return_ok: bool):
    # locals_only, when set, is the set of names a procedure may write to
    items = list(_stmt_seq(s))
    for k, item in enumerate(items):
        last = k == len(items) - 1
        kind = type(item)
        if kind is Skip:
            continue
        if kind is Return:
            if not (tail_return_ok and last):
                diags.append(Diagnostic("return-position", "return must be the final statement", where))
            _check_expr(item.expr, scope, "int", diags, where)
        elif kind is Assign or kind is CallAssign:
            if type(item.target) is ResVar:
                diags.append(Diagnostic("res-var", "user code may not write res(...)", where))
                continue
            # a call's procedure and argument are checked before its target
            if kind is CallAssign:
                if item.proc not in table:
                    diags.append(Diagnostic("unknown-procedure", f"call to unknown {item.proc!r}", where))
                _check_expr(item.arg, scope, "int", diags, where)
            name = item.target.name
            if name not in scope:
                diags.append(Diagnostic("undeclared", f"assignment to undeclared {name!r}", where))
            elif locals_only is not None and name not in locals_only:
                diags.append(Diagnostic("side-effect",
                                        f"procedure writes non-local variable {name!r}", where))
            if kind is Assign:
                _check_expr(item.expr, scope, "int", diags, where)
        elif kind is If or kind is While:
            _check_expr(item.cond, scope, "bool", diags, where)
            _check_stmt(item.body, scope, locals_only, table, diags, where, False)
        elif kind is Scope:
            inner_scope = scope | set(item.decls)
            inner_locals = None if locals_only is None else locals_only | set(item.decls)
            _check_stmt(item.body, inner_scope, inner_locals, table, diags, where,
                        tail_return_ok and last)


def well_formed(p: Program) -> list:
    """Empty list iff all program invariants hold."""
    diags: list = []
    table = {}
    for proc in p.procs:
        if proc.name in table:
            diags.append(Diagnostic("duplicate-procedure",
                                    f"procedure {proc.name!r} declared twice", proc.name))
        table[proc.name] = proc
    # the parser ends every procedure body in a return
    for proc in p.procs:
        scope = {proc.param} | set(proc.body.decls)
        locals_only = set(proc.body.decls)
        _check_stmt(proc.body.body, scope, locals_only, table, diags, proc.name, True)
    _check_stmt(p.main_body, set(p.main_decls), None, table, diags, "main", False)
    return diags
