"""Differential test of the shared ``Node.__eq__`` / ``Node.__repr__``.

The tree classes of :mod:`repro.lang.ast`, :mod:`repro.ssa.ir` and
:mod:`repro.rtypes.types` are ``@dataclass(eq=False, repr=False)`` and
inherit both methods from :class:`repro.node.Node`.  The reference here is
what ``@dataclass`` itself generates: every class gets a test-side twin, a
subclass decorated with the defaults (``eq=True, repr=True``) under the
same qualified name, and a tree converted into twins must print and compare
exactly like the original.  Trees come from the seven benchmark ports and
from the printer fuzzer's random ASTs.
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import random

import pytest

from test_printer_fuzz import AstGen

from repro import Session
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.node import Node
from repro.rtypes import types as rtypes
from repro.ssa import ir

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "programs"
PORTS = sorted(PROGRAMS.glob("*.rsc"))


def node_classes(module):
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, Node)]


AST_CLASSES = node_classes(ast)
ALL_CLASSES = AST_CLASSES + node_classes(ir) + node_classes(rtypes)


def _twin(cls):
    namespace = {"__qualname__": cls.__qualname__, "__module__": cls.__module__}
    return dataclasses.dataclass(type(cls.__name__, (cls,), namespace))


TWINS = {cls: _twin(cls) for cls in ALL_CLASSES}


def to_twin(value, memo=None):
    """A deep copy of ``value`` with every node replaced by its twin
    (cycles preserved)."""
    memo = {} if memo is None else memo
    if id(value) in memo:
        return memo[id(value)]
    if type(value) in TWINS:
        twin = object.__new__(TWINS[type(value)])
        memo[id(value)] = twin
        for f in dataclasses.fields(value):
            setattr(twin, f.name, to_twin(getattr(value, f.name), memo))
        return twin
    if isinstance(value, list):
        copy = memo[id(value)] = []
        copy.extend(to_twin(item, memo) for item in value)
        return copy
    if isinstance(value, tuple):
        return tuple(to_twin(item, memo) for item in value)
    if isinstance(value, dict):
        return {key: to_twin(item, memo) for key, item in value.items()}
    return value


def nodes_of(root):
    """Every node reachable from ``root``, each once, parents first."""
    seen, order, stack = set(), [], [root]
    while stack:
        value = stack.pop()
        if isinstance(value, Node):
            if id(value) in seen:
                continue
            seen.add(id(value))
            order.append(value)
            stack.extend(getattr(value, f.name)
                         for f in reversed(dataclasses.fields(value)))
        elif isinstance(value, (list, tuple)):
            stack.extend(reversed(value))
        elif isinstance(value, dict):
            stack.extend(reversed(list(value.values())))
    return order


def assert_same_methods(a, b):
    """``Node``'s methods agree with the generated ones on ``a`` vs ``b``."""
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
    for f in dataclasses.fields(cls):
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
