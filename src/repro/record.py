"""The decorator for immutable wire and replicated records.

``@frozen_record`` is ``@dataclass(frozen=True, slots=True)`` with one
repair. The ``__setattr__`` and ``__delattr__`` that ``dataclass``
generates for a frozen class call ``super(cls, self)`` for any name that
is not a field, and with ``slots=True`` that ``cls`` is the class from
before the slots were added, which the instance is not an instance of. On
CPython 3.10 to 3.12 a mistyped field name therefore raises ``TypeError:
super(type, obj): obj must be an instance or subtype of type``. Every
record made here raises :class:`dataclasses.FrozenInstanceError` for every
name instead. Construction, pickling and ``dataclasses.replace`` write
through ``object.__setattr__`` and are unaffected.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Any, NoReturn, TypeVar

__all__ = ["frozen_record"]

T = TypeVar("T", bound=type)


def _refuse_setattr(self: Any, name: str, value: Any) -> NoReturn:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self: Any, name: str) -> NoReturn:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_record(cls: T) -> T:
    """Make ``cls`` a frozen slots dataclass that refuses every write."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls
