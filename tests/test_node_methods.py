"""Differential test of :class:`repro.node.Record` against ``@dataclass``.

Every record class of :mod:`repro` gets a test-side twin: a ``@dataclass``
with the same fields, defaults, ``default_factory``s and ``kw_only``
flags, the same ``frozen`` and ``eq`` and the same ``__post_init__``.
The twin is built from :func:`repro.node.fields`, except for the records
with a hand-written ``__init__``: their twins are spelled out below, as the
``@dataclass`` declarations they replace, and their :func:`fields` must
match those.  A record and its twin must agree on construction (by
position, by keyword, from defaults, with a fresh factory object per
instance), on the calls that raise ``TypeError``, on ``==``, ``repr`` and
``hash``, on frozen assignment, on :func:`repro.node.replace` against
``dataclasses.replace``, and every record must survive pickle and ``copy``
(the ``--jobs`` pool pickles results).

The tree classes of :mod:`repro.lang.ast`, :mod:`repro.ssa.ir` and
:mod:`repro.rtypes.types` are also compared as whole trees: a tree
converted into twins must print and compare exactly like the original.
Trees come from the seven benchmark ports and from the printer fuzzer's
random ASTs.  Interned terms keep identity equality and re-intern when
pickled or copied.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pathlib
import pickle
import pkgutil
import random
from typing import List, Tuple

import pytest

from test_printer_fuzz import AstGen

import repro
from repro import Session
from repro.core.config import CheckConfig, ObsOptions, ServiceOptions, \
    SolverOptions
from repro.core.liquid.qualifiers import Qualifier
from repro.errors import Diagnostic, ErrorKind, SourceSpan
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.tokens import Token
from repro.logic import terms
from repro.logic.sorts import ANY, BOOL, INT, STR, Sort
from repro.logic.terms import true
from repro.node import MISSING, FrozenInstanceError, Record, fields, replace
from repro.rtypes import types as rtypes
from repro.smt.lia import LiaProblem, LinExpr
from repro.smt.sat import _Clause
from repro.smt.theory import _Row
from repro.ssa import ir

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "programs"
PORTS = sorted(PROGRAMS.glob("*.rsc"))


def _load_every_module() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


_load_every_module()
RECORDS = sorted({cls for cls in _subclasses(Record)
                  if cls.__module__.startswith("repro.")},
                 key=lambda c: (c.__module__, c.__qualname__))
INTERNED = [cls for cls in RECORDS
            if issubclass(cls, terms.Expr) and cls is not terms.Expr]
PLAIN = [cls for cls in RECORDS if cls not in INTERNED]


def record_id(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def node_classes(module):
    """The mutable tree classes of ``module`` (not ``KVar``, say)."""
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, Record)
            and not cls._record_frozen]


AST_CLASSES = node_classes(ast)
ALL_CLASSES = AST_CLASSES + node_classes(ir) + node_classes(rtypes)

# ---------------------------------------------------------------------------
# twins
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SourceSpanTwin:
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0
    filename: str = "<input>"


@dataclasses.dataclass(frozen=True)
class TokenTwin:
    kind: object
    text: str
    span: object
    value: object = None


@dataclasses.dataclass(slots=True)
class LinExprTwin:
    coeffs: dict = dataclasses.field(default_factory=dict)
    const: int = 0
    tag: int = 0


@dataclasses.dataclass
class LiaProblemTwin:
    leqs: list = dataclasses.field(default_factory=list)
    diseqs: list = dataclasses.field(default_factory=list)
    conflict: object = None
    gave_up: bool = False
    stages: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ClauseTwin:
    lits: list
    learned: bool = False


@dataclasses.dataclass(slots=True)
class RowTwin:
    op: str
    lhs: object
    rhs: object
    bit: int
    leqs: tuple
    diseqs: tuple
    reads: tuple


@dataclasses.dataclass
class RTypeTwin:
    pred: object = dataclasses.field(default_factory=true)


@dataclasses.dataclass
class TPrimTwin(RTypeTwin):
    name: str = "number"


#: the records with a hand-written ``__init__``, as the ``@dataclass``
#: each replaces
HAND_WRITTEN = {SourceSpan: SourceSpanTwin, Token: TokenTwin,
                LinExpr: LinExprTwin, LiaProblem: LiaProblemTwin,
                _Clause: ClauseTwin, _Row: RowTwin, rtypes.TPrim: TPrimTwin}


def _generated_twin(cls: type) -> type:
    specs = []
    for f in fields(cls):
        options = {"kw_only": f.kw_only}
        if f.default is not MISSING:
            options["default"] = f.default
        if f.default_factory is not MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, object, dataclasses.field(**options)))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    twin = dataclasses.make_dataclass(cls.__name__, specs,
                                      namespace=namespace,
                                      frozen=cls._record_frozen,
                                      eq=cls._record_eq)
    twin.__qualname__ = cls.__qualname__
    return twin


def _twin(cls: type) -> type:
    if cls in HAND_WRITTEN:
        twin = HAND_WRITTEN[cls]
        twin.__qualname__ = cls.__qualname__  # what repr prints
        return twin
    return _generated_twin(cls)


TWINS = {cls: _twin(cls) for cls in RECORDS}


def values(obj, names) -> list:
    return [getattr(obj, name) for name in names]


# ---------------------------------------------------------------------------
# field values: a distinct string per field, or a valid sample where
# __post_init__ validates
# ---------------------------------------------------------------------------

#: classes whose __post_init__ needs real values: ``tag -> field values``
#: (fields left out take their defaults)
VALID = {
    SolverOptions: lambda tag: {"max_theory_iterations": 7 if tag == "a" else 8},
    ServiceOptions: lambda tag: {"workers": 2 if tag == "a" else 3},
    ObsOptions: lambda tag: {"slow_query_limit": 4 if tag == "a" else 5},
    CheckConfig: lambda tag: {"jobs": 2 if tag == "a" else 3},
    Qualifier: lambda tag: {"template": terms.Var("x" if tag == "a" else "y")},
    Diagnostic: lambda tag: {"kind": ErrorKind.PARSE if tag == "a"
                             else ErrorKind.CAST, "message": f"m#{tag}"},
    # pickles as the module constant of its name
    Sort: lambda tag: {"name": "Int" if tag == "a" else "Bool"},
}


def sample(cls: type, tag: str) -> dict:
    """Field values for ``cls``: ``tag`` ``"a"`` and ``"b"`` differ in
    every field that is set."""
    if cls in VALID:
        return VALID[cls](tag)
    return {f.name: f"{cls.__name__}.{f.name}#{tag}" for f in fields(cls)}


def call_args(cls: type, given: dict) -> Tuple[list, dict]:
    """``given`` split into a positional prefix and keywords, as far as
    positional order allows."""
    args, kwargs, gap = [], {}, False
    for f in fields(cls):
        if f.name not in given:
            gap = gap or not f.kw_only
            continue
        if f.kw_only or gap:
            kwargs[f.name] = given[f.name]
        else:
            args.append(given[f.name])
    return args, kwargs


def names_of(cls: type) -> List[str]:
    return [f.name for f in fields(cls)]


# ---------------------------------------------------------------------------
# every record class against its twin
# ---------------------------------------------------------------------------


def test_every_record_class_is_found():
    assert len(RECORDS) > 150
    assert len(INTERNED) == 9
    for cls in RECORDS:
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", list(HAND_WRITTEN), ids=record_id)
def test_hand_written_records_declare_their_dataclass_fields(cls):
    assert "__init__" in cls.__dict__
    assert [(f.name, f.default, f.default_factory, f.kw_only)
            for f in fields(cls)] == \
        [(f.name, f.default if f.default is not dataclasses.MISSING
          else MISSING,
          f.default_factory if f.default_factory is not dataclasses.MISSING
          else MISSING, f.kw_only)
         for f in dataclasses.fields(HAND_WRITTEN[cls])]
    # slotted exactly where the @dataclass it replaces was
    obj = cls(**sample(cls, "a"))
    twin = HAND_WRITTEN[cls](**sample(cls, "a"))
    assert hasattr(obj, "__dict__") == hasattr(twin, "__dict__")


def _required(cls: type) -> List[str]:
    return [f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING]


@pytest.mark.parametrize("cls", PLAIN, ids=record_id)
def test_construction_matches_the_twin(cls):
    twin = TWINS[cls]
    names = names_of(cls)
    given = sample(cls, "a")
    args, kwargs = call_args(cls, given)
    assert values(cls(*args, **kwargs), names) == \
        values(twin(*args, **kwargs), names)
    assert values(cls(**given), names) == values(twin(**given), names)
    # defaults and factories: only the required fields given
    required = {name: given.get(name) for name in _required(cls)}
    first, second = cls(**required), cls(**required)
    twin_first, twin_second = twin(**required), twin(**required)
    for ours, theirs in zip(values(first, names), values(twin_first, names)):
        # a factory object that compares by identity: the same kind of one
        assert ours == theirs or (type(ours) is type(theirs)
                                  and type(ours).__eq__ is object.__eq__)
    for name in names:
        assert (getattr(first, name) is getattr(second, name)) == \
            (getattr(twin_first, name) is getattr(twin_second, name)), name


def _raises_type_error(make) -> str:
    with pytest.raises(TypeError) as info:
        make()
    return str(info.value)


@pytest.mark.parametrize("cls", PLAIN, ids=record_id)
def test_bad_calls_raise_type_error_like_the_twin(cls):
    twin = TWINS[cls]
    given = sample(cls, "a")
    for make in (cls, twin):
        _raises_type_error(lambda: make(**given, no_such_field=1))
        required = _required(cls)
        if required:
            partial = {k: v for k, v in given.items() if k != required[-1]}
            _raises_type_error(lambda: make(**partial))
        positional = [f.name for f in fields(cls) if not f.kw_only]
        if positional:
            first = positional[0]
            rest = {k: v for k, v in given.items() if k != first}
            _raises_type_error(lambda: make(given.get(first), **rest,
                                            **{first: given.get(first)}))
        too_many = [given.get(name) for name in positional] + [0]
        kw_only = {f.name: given.get(f.name) for f in fields(cls)
                   if f.kw_only}
        _raises_type_error(lambda: make(*too_many, **kw_only))


@pytest.mark.parametrize("cls", PLAIN, ids=record_id)
def test_eq_repr_and_hash_match_the_twin(cls):
    twin = TWINS[cls]
    a, b = sample(cls, "a"), sample(cls, "b")
    pairs = [(cls(**a), twin(**a)), (cls(**a), twin(**a)),
             (cls(**b), twin(**b))]
    (x, tx), (y, ty), (z, tz) = pairs
    assert repr(x) == repr(tx)
    assert repr(z) == repr(tz)
    assert (x == y) == (tx == ty)
    assert (x == z) == (tx == tz)
    assert (x != z) == (tx != tz)
    assert x.__eq__(tx) is NotImplemented  # another class
    assert x.__eq__("x") is NotImplemented or not cls._record_eq
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if twin.__hash__ is None:
        with pytest.raises(TypeError):
            hash(x)
    elif cls._record_eq:
        assert hash(x) == hash(tx)
        assert hash(x) == hash(y)
    else:
        assert hash(x) == object.__hash__(x)
        assert x != y and x == x


@pytest.mark.parametrize("cls", PLAIN, ids=record_id)
def test_frozen_assignment_matches_the_twin(cls):
    twin = TWINS[cls]
    given = sample(cls, "a")
    obj, twin_obj = cls(**given), twin(**given)
    for name in names_of(cls):
        if cls._record_frozen:
            with pytest.raises(FrozenInstanceError) as info:
                setattr(obj, name, 1)
            assert isinstance(info.value, AttributeError)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin_obj, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        else:
            setattr(obj, name, 1)
            setattr(twin_obj, name, 1)
    assert values(obj, names_of(cls)) == values(twin_obj, names_of(cls))


@pytest.mark.parametrize("cls", PLAIN, ids=record_id)
def test_replace_matches_dataclasses_replace(cls):
    twin = TWINS[cls]
    names = names_of(cls)
    given, other = sample(cls, "a"), sample(cls, "b")
    obj, twin_obj = cls(**given), twin(**given)
    for name in other:
        changed = replace(obj, **{name: other[name]})
        assert changed.__class__ is cls and changed is not obj
        assert values(changed, names) == values(
            dataclasses.replace(twin_obj, **{name: other[name]}), names)
    assert values(replace(obj), names) == values(obj, names)
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)
    with pytest.raises(TypeError):
        dataclasses.replace(twin_obj, no_such_field=1)


@pytest.mark.parametrize("cls", PLAIN, ids=record_id)
def test_pickle_and_copy_round_trip(cls):
    names = names_of(cls)
    obj = cls(**sample(cls, "a"))
    for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                  copy.deepcopy(obj)):
        assert again.__class__ is cls
        assert values(again, names) == values(obj, names)
        if cls._record_eq:
            assert again == obj


def test_declaration_rules_match_dataclass():
    """Inheritance as ``@dataclass`` does it: base fields first, a
    redeclared field keeps its place and takes the new default, keyword-only
    fields bind by keyword wherever they are declared, ``frozen`` is
    inherited, a subclass of a hand-written record gets the shared
    ``__init__``, and a method the class defines itself is kept."""
    from repro.node import field

    class Base(Record):
        a: int
        b: int = 1
        tag: str = field(default="t", kw_only=True)

    class Sub(Base):
        b: int = 2
        c: list = field(default_factory=list)

    @dataclasses.dataclass
    class BaseTwin:
        a: int
        b: int = 1
        tag: str = dataclasses.field(default="t", kw_only=True)

    @dataclasses.dataclass
    class SubTwin(BaseTwin):
        b: int = 2
        c: list = dataclasses.field(default_factory=list)

    names = [f.name for f in fields(Sub)]
    assert names == [f.name for f in dataclasses.fields(SubTwin)]
    assert names == ["a", "b", "tag", "c"]
    for args, kwargs in [((5,), {}), ((5, 3, [1]), {"tag": "u"}),
                         ((), {"a": 5, "c": [2]})]:
        ours, theirs = Sub(*args, **kwargs), SubTwin(*args, **kwargs)
        assert values(ours, names) == values(theirs, names)
        assert repr(ours).split("(", 1)[1] == repr(theirs).split("(", 1)[1]
    with pytest.raises(TypeError):
        Sub(5, 3, [1], "u")  # tag is keyword-only

    class Point(Record, frozen=True):
        x: int

    class Point3(Point):
        z: int = 0

        def __eq__(self, other):
            return "own"

    point = Point3(1, 2)
    # as @dataclass(frozen=True) does: its own __eq__, the field hash
    assert point.__eq__(point) == "own" and hash(point) == hash((1, 2))
    with pytest.raises(FrozenInstanceError):
        point.z = 3

    class Spanned(SourceSpan):
        note: str = ""

    spanned = Spanned(1, 2, note="n")
    assert values(spanned, ["line", "col", "filename", "note"]) == \
        [1, 2, "<input>", "n"]
    assert copy.deepcopy(spanned) == spanned


def test_fields_and_replace_refuse_other_objects():
    with pytest.raises(TypeError):
        fields(object())
    with pytest.raises(TypeError):
        fields(int)
    assert fields(SourceSpan(1, 2)) is fields(SourceSpan)


# ---------------------------------------------------------------------------
# interned terms
# ---------------------------------------------------------------------------

x, y = terms.Var("x", INT), terms.Var("y", INT)

#: positional arguments of one term per interned class, sort left out
TERM_ARGS = {
    terms.Var: ("x",),
    terms.IntLit: (3,),
    terms.BoolLit: (True,),
    terms.StrLit: ("s",),
    terms.App: ("len", (x,)),
    terms.Field: (x, "f"),
    terms.BinOp: ("+", x, y),
    terms.UnOp: ("-", x),
    terms.Ite: (terms.BoolLit(True), x, y),
}


@pytest.mark.parametrize("cls", INTERNED, ids=record_id)
def test_terms_match_the_twin_and_re_intern(cls):
    twin = TWINS[cls]
    names = names_of(cls)
    args = TERM_ARGS[cls]
    term = cls(*args)
    assert term is cls(*args)
    assert term is cls(*args, sort=term.sort)
    assert term is cls(**dict(zip(names, args)))
    assert values(term, names) == values(twin(*args), names)
    assert repr(term) == repr(twin(*args))
    assert term == term and hash(term) == object.__hash__(term)
    assert cls(*args, sort=ANY if term.sort is not ANY else INT) is not term
    for again in (pickle.loads(pickle.dumps(term)), copy.copy(term),
                  copy.deepcopy(term)):
        assert again is term
    with pytest.raises(FrozenInstanceError):
        term.sort = BOOL
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, STR, None)
    with pytest.raises(TypeError):
        cls()


def test_sorts_map_back_to_their_constants():
    for sort in (ANY, BOOL, INT, STR):
        assert pickle.loads(pickle.dumps(sort)) is sort
        assert copy.deepcopy(sort) is sort
    assert Sort("Int") != INT  # identity equality
    assert repr(INT) == "Sort(name='Int')"


def test_a_kappa_solution_survives_pickle_by_identity():
    formula = terms.conj(terms.BinOp("<", x, terms.IntLit(5), BOOL),
                         terms.App("$k1", (terms.VALUE_VAR, y), BOOL))
    solution = {"$k1": [Qualifier(formula), Qualifier(x)]}
    again = pickle.loads(pickle.dumps(solution))
    assert again == solution
    assert again["$k1"][0].template is formula
    assert again["$k1"][0].has_star() is False


# ---------------------------------------------------------------------------
# whole trees
# ---------------------------------------------------------------------------


def to_twin(value, memo=None):
    """A deep copy of ``value`` with every ``eq`` record replaced by its
    twin (cycles preserved; terms and sorts, which compare by identity,
    stay as they are)."""
    memo = {} if memo is None else memo
    if id(value) in memo:
        return memo[id(value)]
    if isinstance(value, Record) and value._record_eq:
        twin = object.__new__(TWINS[type(value)])
        memo[id(value)] = twin
        for f in fields(value):
            object.__setattr__(twin, f.name,
                               to_twin(getattr(value, f.name), memo))
        return twin
    if isinstance(value, list):
        copied = memo[id(value)] = []
        copied.extend(to_twin(item, memo) for item in value)
        return copied
    if isinstance(value, tuple):
        return tuple(to_twin(item, memo) for item in value)
    if isinstance(value, dict):
        return {key: to_twin(item, memo) for key, item in value.items()}
    return value


def nodes_of(root):
    """Every tree node reachable from ``root``, each once, parents first."""
    seen, order, stack = set(), [], [root]
    while stack:
        value = stack.pop()
        if isinstance(value, Record) and type(value) in ALL_CLASSES:
            if id(value) in seen:
                continue
            seen.add(id(value))
            order.append(value)
            stack.extend(getattr(value, f.name)
                         for f in reversed(fields(value)))
        elif isinstance(value, (list, tuple)):
            stack.extend(reversed(value))
        elif isinstance(value, dict):
            stack.extend(reversed(list(value.values())))
    return order


def assert_same_methods(a, b):
    """The record methods agree with the generated ones on ``a`` vs ``b``."""
    ta, tb = to_twin(a), to_twin(b)
    assert repr(a) == repr(ta)
    assert repr(b) == repr(tb)
    assert a.__eq__(b) == ta.__eq__(tb)
    assert (a == b) == (ta == tb)
    assert (a != b) == (ta != tb)


def port_trees(path):
    session = Session()
    parsed = session.parse(path.read_text(), path.name)
    assert parsed.ok
    functions = list(session.ssa(parsed).functions.values())
    cons = session.constraints(parsed)
    types = [t for sub in cons.checker.constraints.subtypings
             for t in (sub.lhs, sub.rhs)]
    return parsed.program, functions, types


def test_every_tree_class_is_covered():
    assert len(AST_CLASSES) == 51
    for cls in ALL_CLASSES:
        assert "__eq__" not in cls.__dict__ and "__repr__" not in cls.__dict__
        assert cls.__hash__ is None


@pytest.mark.parametrize("path", PORTS, ids=lambda p: p.stem)
def test_ports_compare_and_print_like_dataclasses(path):
    program, functions, types = port_trees(path)
    again = parse_program(path.read_text(), path.name)
    assert program == again
    assert_same_methods(program, again)
    for node in nodes_of(program):
        assert repr(node) == repr(to_twin(node))
    # neighbouring declarations: unequal pairs, same-class and cross-class
    decls = program.declarations
    for a, b in zip(decls, decls[1:]):
        assert_same_methods(a, b)
    for function in functions:
        assert_same_methods(function, function)
    for a, b in zip(functions, functions[1:]):
        assert_same_methods(a, b)
    for a, b in zip(types, types[1:]):
        assert_same_methods(a, b)
    assert copy.deepcopy(program) == program
    assert pickle.loads(pickle.dumps(program)) == program


@pytest.mark.parametrize("seed", range(20))
def test_fuzzed_asts_compare_and_print_like_dataclasses(seed):
    program = AstGen(random.Random(7000 + seed)).program()
    same = AstGen(random.Random(7000 + seed)).program()
    other = AstGen(random.Random(9000 + seed)).program()
    assert program == same
    assert_same_methods(program, same)
    assert_same_methods(program, other)
    nodes = nodes_of(program)
    for a, b in zip(nodes, nodes[1:]):
        assert_same_methods(a, b)


def synthetic(cls, filler):
    """An instance of ``cls`` with every field set to ``filler`` (the
    ports and the fuzzer do not build every class)."""
    node = object.__new__(cls)
    for f in fields(cls):
        setattr(node, f.name, filler)
    return node


@pytest.mark.parametrize("cls", ALL_CLASSES,
                         ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_every_class_compares_and_prints_like_dataclasses(cls):
    node = synthetic(cls, [1, "a"])
    assert node == synthetic(cls, [1, "a"])
    assert_same_methods(node, synthetic(cls, [1, "a"]))
    assert_same_methods(node, synthetic(cls, [1, "b"]))
    for other in ALL_CLASSES:  # bases and subclasses included
        if other is not cls:
            assert node.__eq__(synthetic(other, [1, "a"])) is NotImplemented
            assert_same_methods(node, synthetic(other, [1, "a"]))


def test_unequal_field_and_cross_class_pairs():
    x, y = ast.VarRef(name="x"), ast.VarRef(name="y")
    assert x != y and x == ast.VarRef(name="x")
    assert_same_methods(x, y)
    literal = ast.StringLit(value="x")
    assert x.__eq__(literal) is NotImplemented
    assert x != literal
    assert_same_methods(x, literal)
    # a field that differs only in its span still makes nodes unequal
    moved = ast.VarRef(name="x", span=ast.SourceSpan(line=3, col=1))
    assert x != moved
    assert_same_methods(x, moved)
    assert x.__eq__("x") is NotImplemented


def test_self_referencing_node():
    block = ast.Block()
    block.statements.append(block)
    assert repr(block) == repr(to_twin(block))
    assert repr(block).count("...") == 1
    twin = to_twin(block)
    assert block.__eq__(block) is True and twin.__eq__(twin) is True


def test_nodes_stay_unhashable():
    with pytest.raises(TypeError):
        hash(ast.VarRef(name="x"))
    with pytest.raises(TypeError):
        hash(rtypes.TPrim(name="number"))
