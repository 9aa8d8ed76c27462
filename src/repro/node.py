"""``Record`` — the one base of every record class in :mod:`repro`.

A record declares its fields as class annotations, in order, each with an
optional default (a value, or a :func:`field` for a ``default_factory`` or
a keyword-only field)::

    class Diagnostic(Record):
        kind: ErrorKind
        message: str
        span: SourceSpan = field(default_factory=SourceSpan.unknown)

``__init_subclass__`` reads each class's own annotations and defaults once
and points the class at methods written once, here, for every record.
Nothing is compiled at import.  ``@dataclass``, which this replaces,
``exec``-compiled 255 methods for the 122 classes a one-shot check loads,
which was most of what ``from repro import Session`` cost, and it loaded
``inspect``, ``ast``, ``dis`` and ``tokenize`` to do so.  The shared
methods behave like the generated ones:

* ``__init__`` takes the fields in order, inherited fields first, and the
  ``kw_only`` fields by keyword only.  A missing, unknown or duplicate
  argument raises ``TypeError``, a ``default_factory`` runs once per
  instance, and ``__post_init__`` runs last if the class has one;
* with ``eq=True`` (the default) ``a == b`` compares the fields as tuples
  when ``a`` and ``b`` are of the same class and is ``NotImplemented``
  otherwise.  Such a record is unhashable, unless it is also ``frozen``:
  then it hashes the tuple of its fields.  ``eq=False`` keeps ``object``'s
  identity ``==`` and ``hash``;
* ``repr(a)`` is ``QualName(field=value, ...)``, with ``...`` for a record
  already being printed on this thread;
* ``frozen=True`` makes assignment and deletion raise
  :class:`FrozenInstanceError`.

``frozen`` and ``eq`` are class keywords that subclasses inherit.  A
method the class body defines itself is kept.

The shared ``__init__`` binds its arguments in a Python loop.  Records that
a check builds thousands of times (``LinExpr``, ``SourceSpan``, ``Token``,
...) write their ``__init__`` by hand: on the shared one, the cold checks of
``perfbench``'s cold-ports workload spend 9% longer checking (10
alternating pairs of runs on a 2-vCPU host).  A record that is not frozen
may declare ``__slots__`` (unpickling sets slots through ``setattr``,
which a frozen record refuses).  A slot cannot also be a class attribute,
so a slotted record with defaults gives ``__slots__`` as a dict from each
field to its default (a :func:`field` without a default for a required
field)::

    class LinExpr(Record):
        __slots__ = {"coeffs": field(default_factory=dict), "const": 0,
                     "tag": 0}
        coeffs: Dict[VarKey, int]
        const: int
        tag: int

        def __init__(self, coeffs=None, const=0, tag=0) -> None:
            ...

:func:`fields` and :func:`replace` stand in for the ``dataclasses``
functions of the same names.
"""

from __future__ import annotations

from _thread import get_ident
from typing import Any, Dict, Optional, Set, Tuple


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


#: The default of a field that has none.
MISSING: Any = object()


class Field:
    """One field of a record class, as :func:`fields` reports it."""

    __slots__ = ("name", "default", "default_factory", "kw_only")

    def __init__(self, default: Any = MISSING,
                 default_factory: Any = MISSING,
                 kw_only: bool = False) -> None:
        if default is not MISSING and default_factory is not MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.kw_only = kw_only


def field(*, default: Any = MISSING, default_factory: Any = MISSING,
          kw_only: bool = False) -> Any:
    """A field declaration with a ``default_factory``, or keyword-only."""
    return Field(default, default_factory, kw_only)


def fields(record: Any) -> Tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order
    (inherited fields first)."""
    try:
        return record._record_fields
    except AttributeError:
        raise TypeError("must be called with a record class or "
                        "instance") from None


def replace(record: Any, **changes: Any) -> Any:
    """A new record of the same class with ``changes`` applied."""
    for f in record._record_fields:
        if f.name not in changes:
            changes[f.name] = getattr(record, f.name)
    return record.__class__(**changes)


#: (id(record), thread) of every record whose repr is being computed.
_REPR_RUNNING: Set[Tuple[int, int]] = set()


def _init_fields(self: Any, *args: Any, **kwargs: Any) -> None:
    cls = self.__class__
    set_field = cls._record_setter
    if cls._record_flat and not kwargs \
            and len(args) == len(cls._record_names):
        for name, value in zip(cls._record_names, args):
            set_field(self, name, value)
    else:
        nargs = len(args)
        if nargs > cls._record_npos:
            raise _call_error(cls, args, kwargs)
        used = 0
        for name, i, default, factory in cls._record_params:
            if 0 <= i < nargs:
                set_field(self, name, args[i])
            elif name in kwargs:
                set_field(self, name, kwargs[name])
                used += 1
            elif default is not MISSING:
                set_field(self, name, default)
            elif factory is not None:
                set_field(self, name, factory())
            else:
                raise _call_error(cls, args, kwargs)
        if used != len(kwargs):
            raise _call_error(cls, args, kwargs)
    if cls._record_post_init:
        self.__post_init__()


def _call_error(cls: Any, args: tuple, kwargs: dict) -> TypeError:
    """The ``TypeError`` for a constructor call that does not bind."""
    return TypeError(f"{cls.__qualname__}() takes the fields "
                     f"{', '.join(cls._record_names) or 'none'}; got "
                     f"{len(args)} positional argument(s) and keywords "
                     f"{sorted(kwargs)}")


def _eq_fields(self: Any, other: Any) -> Any:
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = self._record_names
    return (tuple([getattr(self, name) for name in names])
            == tuple([getattr(other, name) for name in names]))


def _hash_fields(self: Any) -> int:
    return hash(tuple([getattr(self, name) for name in self._record_names]))


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _own_fields(cls: Any) -> Dict[str, Field]:
    """The fields of ``cls``: its bases' first, then its own annotations
    (a redeclared field keeps its place and takes the new default)."""
    own = cls.__dict__
    slots = own.get("__slots__", ())
    out = {f.name: f for f in cls._record_fields}
    for name in own.get("__annotations__", {}):
        if name in slots:
            spec = slots[name] if isinstance(slots, dict) else MISSING
        else:
            spec = own.get(name, MISSING)
            if isinstance(spec, Field):
                # like @dataclass: the class attribute is the default
                if spec.default is MISSING:
                    delattr(cls, name)
                else:
                    setattr(cls, name, spec.default)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        spec.name = name
        out[name] = spec
    return out


class Record:
    """Base of every record class (see the module docstring)."""

    __slots__ = ()

    #: every field, in order
    _record_fields: Tuple[Field, ...] = ()
    _record_names: Tuple[str, ...] = ()
    #: ``(name, positional index or -1, default, default_factory or None)``
    _record_params: Tuple[Tuple[str, int, Any, Any], ...] = ()
    _record_npos = 0
    #: no field is keyword-only
    _record_flat = True
    #: ``setattr``, or ``object.__setattr__`` past a frozen ``__setattr__``
    _record_setter: Any = setattr
    _record_post_init = False
    _record_frozen = False
    _record_eq = True

    __init__ = _init_fields
    __eq__ = _eq_fields
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, frozen: Optional[bool] = None,
                          eq: Optional[bool] = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        cls._record_frozen = frozen = (cls._record_frozen if frozen is None
                                       else frozen)
        cls._record_eq = eq = cls._record_eq if eq is None else eq

        record_fields = tuple(_own_fields(cls).values())
        positional = [f.name for f in record_fields if not f.kw_only]
        cls._record_fields = record_fields
        cls._record_names = tuple(f.name for f in record_fields)
        cls._record_params = tuple(
            (f.name, -1 if f.kw_only else positional.index(f.name),
             f.default,
             None if f.default_factory is MISSING else f.default_factory)
            for f in record_fields)
        cls._record_npos = len(positional)
        cls._record_flat = len(positional) == len(record_fields)
        cls._record_setter = object.__setattr__ if frozen else setattr
        cls._record_post_init = hasattr(cls, "__post_init__")

        # Install a shared method only where the inherited one differs, so
        # a plain subclass's own dict holds its fields and nothing else.
        if "__init__" not in own and cls.__init__ is not _init_fields:
            cls.__init__ = _init_fields  # a subclass of a hand-written one
        wanted_eq = _eq_fields if eq else object.__eq__
        if "__eq__" not in own and cls.__eq__ is not wanted_eq:
            cls.__eq__ = wanted_eq  # type: ignore[assignment]
        own_hash = own.get("__hash__", MISSING)
        if own_hash is MISSING or (own_hash is None and "__eq__" in own):
            wanted_hash = ((_hash_fields if frozen else None) if eq
                           else object.__hash__)
            if cls.__hash__ is not wanted_hash:
                cls.__hash__ = wanted_hash  # type: ignore[assignment]
        if frozen and cls.__setattr__ is not _frozen_setattr:
            cls.__setattr__ = _frozen_setattr  # type: ignore[assignment]
            cls.__delattr__ = _frozen_delattr  # type: ignore[assignment]

    def __repr__(self) -> str:
        key = (id(self), get_ident())
        if key in _REPR_RUNNING:
            return "..."
        _REPR_RUNNING.add(key)
        try:
            body = ", ".join(f"{name}={getattr(self, name)!r}"
                             for name in self._record_names)
        finally:
            _REPR_RUNNING.discard(key)
        return f"{self.__class__.__qualname__}({body})"
