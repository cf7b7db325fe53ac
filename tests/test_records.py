"""Every ``record`` class compares, hashes and prints like the frozen or
mutable dataclass it stands for, on drawn values."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from helpers import (UpStmt, contract_m, parse_formula, random_linear_expr,
                     random_terminating_program)
from tracelet.calculus import (ContractAssumption, ContractGoal, Judgment,
                               PredAssert, PredGoal)
from tracelet.cli import SampleResult
from tracelet.lang import (BoolLit, Expr, IntLit, ResVar, Scope, Unary, Var,
                           _record_repr, fields, pretty_expr, remake)
from tracelet.logic import (And, Chop, Concat, Formula, Fresh, Mu, Or,
                            pretty_formula)
from tracelet.traces import Ctx
from tracelet.updates import CallUpd, Elem, FinishUpd, StartUpd

SRC = Path(__file__).resolve().parent.parent / "src" / "tracelet"


def record_classes() -> list:
    """(class, frozen) for every class under src/tracelet decorated with
    ``record``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"tracelet.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                if ast.unparse(call.func if call else deco) != "record":
                    continue
                frozen = any(kw.arg == "frozen" and kw.value.value
                             for kw in (call.keywords if call else ()))
                out.append((getattr(module, node.name), frozen))
    return out


RECORDS = record_classes()
# and the reference machine's update-prefixed continuation, a test-side record
CHECKED = RECORDS + [(UpStmt, True)]


def twin(cls, frozen: bool):
    """The dataclass cls stands for. It subclasses cls, so that methods
    which dispatch on the class (``pretty_expr(self)``) see it as one, and
    takes the class's own ``__str__`` and ``__repr__``, defined in its body
    or assigned after it, which dataclass would replace."""
    defaults = dict(zip(reversed(cls.__slots__), reversed(cls.__init__.__defaults__ or ())))
    fields = [(n, object, dataclasses.field(default=defaults[n])) if n in defaults
              else (n, object) for n in cls.__slots__]
    namespace = {name: cls.__dict__[name] for name in ("__str__", "__repr__")
                 if cls.__dict__.get(name, _record_repr) is not _record_repr}
    return dataclasses.make_dataclass(cls.__name__, fields, bases=(cls,),
                                      frozen=frozen, namespace=namespace)


# ---------------------------------------------------------------------------
# Field values, by annotation
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "n", "m", "r'", "é"])
_ints = st.integers(-3, 5)
_exprs = st.one_of(
    st.builds(random_linear_expr, st.randoms(use_true_random=False), st.just(["x", "n"])),
    st.recursive(st.builds(IntLit, _ints) | st.builds(BoolLit, st.booleans())
                 | st.builds(Var, _names),
                 lambda sub: st.builds(ResVar, sub) | st.builds(Unary, st.sampled_from(["-", "!"]), sub),
                 max_leaves=3))
_programs = st.builds(random_terminating_program, st.randoms(use_true_random=False))
_stmts = _programs.map(lambda p: p.main_body) | _programs.flatmap(
    lambda p: st.sampled_from([d.body.body for d in p.procs]) if p.procs else st.just(p.main_body))
_formula_leaves = st.sampled_from([parse_formula(text) for text in [
    "psi(m)", "noev(m, p)", "startEv(m, n, i)", "finishEv(m, n - 1, i)",
    "[res(i) == n]", "[true] ~m~ [x >= 1]", f"({pretty_formula(contract_m())})(n, fresh(i))"]])
_formulas = st.recursive(
    _formula_leaves,
    lambda sub: st.builds(lambda op, l, r: op(l, r), st.sampled_from([And, Or, Concat, Chop]),
                          sub, sub),
    max_leaves=3)
_terms = _exprs | st.builds(Fresh, _exprs)
_atoms = st.one_of(st.builds(Elem, st.builds(Var, _names) | st.builds(ResVar, _exprs), _exprs),
                   st.builds(CallUpd, st.builds(Var, _names), _names, _exprs),
                   st.builds(StartUpd, _names, _exprs, _exprs),
                   st.builds(FinishUpd, _names, _exprs, _exprs))
_assumptions = st.builds(ContractAssumption, _names, _exprs, st.just(contract_m()), _exprs)
_small_dicts = st.dictionaries(_names, _ints, max_size=2)

BY_ANNOTATION = {
    "int": _ints,
    "bool": st.booleans(),
    "str": _names,
    "Names": st.lists(_names, max_size=2).map(tuple),
    "dict": _small_dicts,
    "LookupTable": _small_dicts,
    "Expr": _exprs,
    "Var": st.builds(Var, _names),
    "Union[Var, ResVar]": st.builds(Var, _names) | st.builds(ResVar, _exprs),
    "Stmt": _stmts,
    "Scope": st.builds(Scope, st.tuples(_names), _stmts),
    "Formula": _formulas,
    "Mu": st.just(contract_m()),
    "Ctx": st.builds(Ctx, _names, st.none() | _ints),
    "frozenset": st.frozensets(_names, max_size=3),
    "Tuple[UpdateAtom, ...]": st.lists(_atoms, max_size=3).map(tuple),
    "Tuple[Assertion, ...]": st.lists(st.builds(PredAssert, _exprs) | _assumptions,
                                      max_size=2).map(tuple),
    "Goal": st.one_of(st.builds(PredGoal, _exprs), st.builds(ContractGoal, _names),
                      st.builds(Judgment, st.lists(_atoms, max_size=2).map(tuple),
                                st.none() | _stmts, _formulas)),
    "Dict[str, ContractAssumption]": st.dictionaries(_names, _assumptions, max_size=1),
    "List[SampleResult]": st.lists(st.builds(SampleResult, _ints, _ints, _names,
                                             st.booleans(), st.booleans()), max_size=2),
}
# an operator is a str, and a bare tuple annotation says nothing of its items
BY_FIELD = {
    ("Unary", "op"): st.sampled_from(["-", "!"]),
    ("Binary", "op"): st.sampled_from(["+", "*", "<=", "&&", "||"]),
    ("Scope", "decls"): st.lists(_names, max_size=2).map(tuple),
    ("Program", "procs"): _programs.map(lambda p: p.procs),
    ("Program", "main_decls"): st.lists(_names, max_size=2).map(tuple),
    ("StartEvF", "arg"): _terms,
    ("StartEvF", "call_id"): _terms,
    ("FinishEvF", "arg"): _terms,
    ("FinishEvF", "call_id"): _terms,
    ("RecApp", "args"): st.lists(_terms, max_size=2).map(tuple),
    ("MuApp", "args"): st.lists(_terms, min_size=2, max_size=2).map(tuple),
    ("InvalidStep", "path"): st.lists(_ints, max_size=3).map(tuple),
}


def field_values(cls) -> st.SearchStrategy:
    parts = []
    for name, note in cls.__annotations__.items():
        note = note.strip("'\"")
        optional = note.startswith("Optional[")
        if optional:
            note = note[len("Optional["):-1]
        key = (cls.__name__, name)
        got = BY_FIELD[key] if key in BY_FIELD else BY_ANNOTATION[note]
        parts.append(st.none() | got if optional else got)
    return st.tuples(*parts)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_every_record_is_found():
    assert len(RECORDS) == 52
    assert all(isinstance(cls.__slots__, tuple) for cls, _ in RECORDS)


def test_no_dataclass_left():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"tracelet.{path.stem}")
        for value in vars(module).values():
            assert not hasattr(value, "__dataclass_fields__"), value


def hashed(value):
    """value's hash, or TypeError where it holds an unhashable field."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


def check_same(rec, dc, frozen: bool):
    """rec and its twin dc print and hash alike, and assigning to a
    frozen one raises AttributeError."""
    assert repr(rec) == repr(dc)
    assert str(rec) == str(dc)
    assert hashed(rec) == hashed(dc)
    if not frozen:
        assert hashed(rec) is TypeError
    for value in (rec, dc):
        for name in type(rec).__slots__:
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(value, name, 0)
                with pytest.raises(AttributeError):
                    delattr(value, name)


@pytest.mark.parametrize("cls, frozen", CHECKED, ids=[r[0].__name__ for r in CHECKED])
def test_record_matches_dataclass(cls, frozen):
    dc = twin(cls, frozen)
    values = field_values(cls)
    # other record classes of the same arity: never equal to cls
    peers = [(other, twin(other, *rest)) for other, *rest in CHECKED
             if other is not cls and len(other.__slots__) == len(cls.__slots__)]

    # no shrinking: a fault in record fails most classes, and shrinking
    # each of them takes minutes
    @settings(max_examples=15, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(a=values, b=values)
    def check(a, b):
        ra, rb, da, db = cls(*a), cls(*b), dc(*a), dc(*b)
        check_same(ra, da, frozen)
        assert (ra == cls(*a)) and (da == dc(*a))
        assert (ra == rb) == (da == db) and (ra != rb) == (da != db)
        assert (ra == da) is False  # a twin is another class
        for other, twin_other in peers:
            assert (ra == other(*a)) is (da == twin_other(*a)) is False
            assert (ra != other(*a)) is (da != twin_other(*a)) is True

    check()


def test_one_printer_per_node_kind():
    """pretty_expr prints every expression and pretty_formula every
    formula."""
    assert {k.__name__ for k in Expr.__args__} == {
        "IntLit", "BoolLit", "Var", "ResVar", "Fresh", "Unary", "Binary"}
    assert {k.__name__ for k in Formula.__args__} == {
        "StatePred", "NoEv", "Gap", "StartEvF", "FinishEvF", "And", "Or", "Concat", "Chop",
        "RecApp", "Mu", "MuApp"}
    assert all(k.__str__ is pretty_expr for k in Expr.__args__)
    assert all(k.__repr__ is pretty_formula for k in Formula.__args__)
    assert str(ResVar(Unary("-", Var("x")))) == "res(-x)"
    text = "mu X(n). ([n == 0] \\/ X(n - 1))"
    assert repr(parse_formula(text)) == text


def test_start_and_finish_formulas_differ():
    start, finish = parse_formula("startEv(m, n, i)"), parse_formula("finishEv(m, n, i)")
    assert (start.proc, start.arg, start.call_id) == (finish.proc, finish.arg, finish.call_id)
    assert start != finish and hash(start) == hash(("m", Var("n"), Var("i")))


def test_defaults_and_keywords():
    assert SampleResult(1, 2, "pass", True, False).trace_file is None
    assert Ctx(call_id=3, proc="m") == Ctx("m", 3)
    with pytest.raises(TypeError):
        Ctx("m")


def clone(value):
    """An equal copy of value that shares no node with it."""
    if isinstance(value, tuple):
        return tuple(map(clone, value))
    if hasattr(type(value), "__annotations__"):
        return type(value)(*map(clone, fields(value)))
    return value


@pytest.mark.parametrize("cls", [r[0] for r in CHECKED] + [Mu],
                         ids=[r[0].__name__ for r in CHECKED] + ["Mu"])
def test_fields_follow_the_constructor(cls):
    """A node's fields are its constructor's parameters, in order, and
    remaking a node from its own fields gives the node itself; from equal
    copies of them, an equal node."""
    assert list(cls.__annotations__) == list(inspect.signature(cls.__init__).parameters)[1:]

    @settings(max_examples=15, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(values=field_values(cls))
    def check(values):
        node = cls(*values)
        assert fields(node) == values
        assert remake(node, fields(node)) is node
        assert remake(node, list(values)) is node
        copied = clone(values)
        copy = remake(node, copied)
        assert copy == node
        assert (copy is node) == all(a is b for a, b in zip(copied, values))

    check()
