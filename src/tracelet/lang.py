"""Source language: expressions, statements, programs and their parser.

Programs are lists of single-parameter procedure declarations followed by
a ``main { decls; body }`` block.  Procedure bodies are scopes ending in
exactly one tail-position ``return``.  Values are unbounded integers;
booleans exist only at condition positions.
"""

from __future__ import annotations

import operator
import re
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

# One token, with the blanks before it, per match.  \w is str.isalnum() or
# '_' and \d is str.isdecimal(), but an identifier starts with a letter or
# '_' and an integer is a run of str.isdigit() characters: a ``word`` (a
# run that starts with another numeral or a non-ASCII character, or decimal
# digits that one follows) is finished by hand in ``tokenize``.
_TOKEN = re.compile("[ \t\r]*(?:" + "|".join([
    r"(?P<ident>[A-Za-z_][\w#]*'*)", r"(?P<int>\d+)(?![^\x00-\x7f]|\d)",
    "(?P<sym>" + "|".join(map(re.escape, _TWO_CHAR)) + f"|[{re.escape(_ONE_CHAR)}])",
    r"(?P<nl>\n)", r"(?P<comment>//[^\n]*)", r"(?P<word>[^\W\d_A-Za-z][\w#]*'*|\d+)",
    r"(?P<bad>.)", r"\Z"]) + ")", re.S)


@record
class Token:
    kind: str  # 'ident' | 'int' | 'sym' | 'eof'
    text: str
    line: int
    col: int


def tokenize(src: str) -> list:
    toks = []
    pos, n, line, first = 0, len(src), 1, 0  # first: where the line starts
    end = n  # where eof stands; a comment that ends the text does not count
    while pos < n:
        m = _TOKEN.match(src, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "nl":
            line, first = line + 1, pos
        elif kind == "comment":
            end = m.start(kind) if pos == n else end
        elif kind is not None:
            text = m[kind]
            start = pos - len(text)
            if kind == "word":
                if text[0].isalpha():
                    kind = "ident"
                else:
                    pos = start
                    while pos < n and src[pos].isdigit():
                        pos += 1
                    kind, text = "int", src[start:pos]
            if kind == "bad" or not text:
                raise ParseError(f"unexpected character {src[start]!r}", line, start - first + 1)
            toks.append(Token(kind, text, line, start - first + 1))
    toks.append(Token("eof", "", line, end - first + 1))
    return toks


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.scope = None  # while a program is read: the names it may read

    def peek(self, ahead: int = 0) -> Token:
        # next never moves past eof, so only a look further ahead is clamped
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

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


# Expression parsing, shared grammar.  A logical expression (a contract
# predicate or a res(...) key) may hold res(i) and true/false; a user
# program holds neither.  In a program (ts.scope is set) each variable read
# must be in scope and each operand must have the type of its position.

# For each literal kind and operator: the type it produces, the type of its
# operands, and what a context that wants the other type is told
_TYPING = {IntLit: ("int", None, "integer where condition expected"),
           Var: ("int", None, "integer variable where condition expected"),
           "!": ("bool", "bool", "boolean where integer expected"),
           **{op: ("int", "int", "arithmetic where condition expected") for op in ARITH_OPS},
           **{op: ("bool", "int", "comparison in integer position") for op in CMP_OPS},
           **{op: ("bool", "bool", "boolean operator in integer position") for op in BOOL_OPS}}


def _typed(ts: TokenStream, e: Expr, start: Token, want: str) -> Expr:
    """e, read from token start on; in a program it must have type want."""
    if ts.scope is not None:
        made, _, message = _TYPING[e.op if type(e) is Unary or type(e) is Binary else type(e)]
        if made != want:
            raise ParseError(f"{message}: {e}", start.line, start.col)
    return e


def parse_expr(ts: TokenStream, logical: bool = False) -> Expr:
    return _parse_binary(ts, logical, 1)


def _parse_binary(ts, lg, prec):
    """An expression whose operators bind at least as tightly as prec
    (``_PREC``), left-associated; comparisons do not chain.  After an
    operator, only one binding as loosely (or, after a comparison, more
    loosely) may follow: the right operand took those binding tighter."""
    start, e, top = ts.peek(), _parse_unary(ts, lg), 5
    while prec <= _PREC.get(ts.peek().text, 0) <= top:
        op = ts.next().text
        want, right = _TYPING[op][1], ts.peek()
        e = Binary(op, _typed(ts, e, start, want),
                   _typed(ts, _parse_binary(ts, lg, _PREC[op] + 1), right, want))
        top = _PREC[op] - (op in CMP_OPS)
    return e


def _parse_unary(ts, lg):
    if ts.at_sym("-") or ts.at_sym("!"):
        op = ts.next().text
        # only an integer right after the minus folds into a negative literal
        if op == "-" and ts.peek().kind == "int":
            return IntLit(-_int_value(ts.next()))
        start = ts.peek()
        return Unary(op, _typed(ts, _parse_unary(ts, lg), start, _TYPING[op][1]))
    return _parse_atom(ts, lg)


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


def _parse_atom(ts, lg):
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return IntLit(_int_value(t))
    if ts.at_sym("("):
        ts.next()
        e = _parse_binary(ts, lg, 1)
        ts.expect_sym(")")
        return e
    if t.kind == "ident":
        if t.text == "res":
            if not lg:
                ts.error("res(...) is reserved for the semantics")
            ts.next()
            ts.expect_sym("(")
            idx = _parse_binary(ts, lg, 1)
            ts.expect_sym(")")
            return ResVar(idx)
        if t.text in ("true", "false"):
            if not lg:
                ts.error(f"{t.text!r} not allowed here")
            ts.next()
            return BoolLit(t.text == "true")
        if t.text in RESERVED:
            ts.error(f"reserved word {t.text!r} in expression")
        if ts.scope is not None and t.text not in ts.scope:
            ts.error(f"variable {t.text!r} not in scope")
        ts.next()
        return Var(t.text)
    ts.error(f"expected expression, found {t.text!r}")


# ---------------------------------------------------------------------------
# Program parsing.  The parser is the one check of a program: each name a
# statement reads or writes is in scope (a procedure's parameter and the
# declarations of the blocks around it), a procedure writes only its own
# locals, each expression has the type its position wants, and each
# called procedure is declared somewhere in the program.
# ---------------------------------------------------------------------------

def _parse_decls(ts: TokenStream) -> list:
    # leading "x;" lines of a block are declarations, as in the listings
    decls = []
    while ts.at_ident() and ts.peek().text not in RESERVED and \
            ts.peek(1).kind == "sym" and ts.peek(1).text == ";":
        decls.append(ts.next().text)
        ts.next()  # ';'
    return decls


def _parse_typed(ts: TokenStream, want: str) -> Expr:
    start = ts.peek()
    return _typed(ts, parse_expr(ts), start, want)


def _parse_stmt(ts: TokenStream, writable, calls: list) -> Stmt:
    t = ts.peek()
    if ts.at_ident("skip"):
        ts.next()
        return Skip()
    if ts.at_ident("if") or ts.at_ident("while"):
        kw = ts.next().text
        ts.expect_sym("(")
        cond = _parse_typed(ts, "bool")
        ts.expect_sym(")")
        body = _parse_block(ts, writable, calls)
        return If(cond, body) if kw == "if" else While(cond, body)
    if ts.at_sym("{"):
        return _parse_block(ts, writable, calls)
    if ts.at_ident():
        if t.text in RESERVED:
            ts.error(f"unexpected {t.text!r}")
        ts.next()
        ts.expect_sym("=")
        if t.text not in ts.scope:
            raise ParseError(f"assignment to undeclared {t.text!r}", t.line, t.col)
        if writable is not None and t.text not in writable:
            raise ParseError(f"procedure writes non-local variable {t.text!r}", t.line, t.col)
        if ts.at_ident() and ts.peek().text not in RESERVED and \
                ts.peek(1).kind == "sym" and ts.peek(1).text == "(":
            callee = ts.next()
            calls.append(callee)
            ts.expect_sym("(")
            arg = _parse_typed(ts, "int")
            ts.expect_sym(")")
            return CallAssign(Var(t.text), callee.text, arg)
        return Assign(Var(t.text), _parse_typed(ts, "int"))
    ts.error(f"expected statement, found {t.text!r}")


def _parse_body(ts: TokenStream, writable, calls: list, proc: Optional[Token] = None):
    """(declarations, statement) of a block, from after its '{' through its
    '}'.  Its declarations are in scope until the block ends, and writable
    when writable is a set (in a procedure; None in main).  A procedure
    body (proc is its name) ends in its return."""
    outer = ts.scope
    decls = tuple(_parse_decls(ts))
    ts.scope = outer | set(decls)
    if writable is not None:
        writable = writable | set(decls)
    stmts = []
    while not ts.at_sym("}"):
        if ts.at_ident("return"):
            tok = ts.next()
            stmts.append(Return(_parse_typed(ts, "int")))
            if proc is None:
                raise ParseError("return outside a procedure body", tok.line, tok.col)
            while ts.at_sym(";"):
                ts.next()
            if not ts.at_sym("}"):
                raise ParseError("return must be the final statement", tok.line, tok.col)
            break
        stmts.append(_parse_stmt(ts, writable, calls))
        if ts.at_sym(";"):
            while ts.at_sym(";"):
                ts.next()
        elif not ts.at_sym("}"):
            ts.error("expected ';' or '}'")
    if proc is not None and not (stmts and type(stmts[-1]) is Return):
        raise ParseError(f"procedure {proc.text!r} must end with return", proc.line, proc.col)
    ts.expect_sym("}")
    ts.scope = outer
    return decls, seq(stmts) if stmts else Skip()


def _parse_block(ts: TokenStream, writable, calls: list) -> Stmt:
    ts.expect_sym("{")
    decls, body = _parse_body(ts, writable, calls)
    return Scope(decls, body) if decls else body


def parse_program(text: str) -> Program:
    ts = TokenStream(tokenize(text))
    procs, calls = {}, []
    while ts.at_ident() and not ts.at_ident("main"):
        name = ts.expect_ident()
        ts.expect_sym("(")
        param = ts.expect_ident().text
        ts.expect_sym(")")
        ts.expect_sym("{")
        ts.scope = {param}
        body = Scope(*_parse_body(ts, set(), calls, name))
        if name.text in procs:
            raise ParseError(f"duplicate procedure name {name.text!r}", name.line, name.col)
        procs[name.text] = ProcDecl(name.text, param, body)
    ts.expect_ident("main")
    ts.expect_sym("{")
    ts.scope = set()
    decls, body = _parse_body(ts, None, calls)
    if ts.peek().kind != "eof":
        ts.error("trailing input after main block")
    for callee in calls:
        if callee.text not in procs:
            raise ParseError(f"call to unknown {callee.text!r}", callee.line, callee.col)
    return Program(tuple(procs.values()), decls, body)
