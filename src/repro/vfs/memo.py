"""A memo scoped to one sweep: cells share the immutable data they derive.

Sweep cells are pure functions of their specs, and many of them start
from the same data: the same seeded corpus, and the same stage
catalogues derived from it by the same workflow.  Those values are
immutable :class:`~repro.vfs.files.Catalogue` objects (or plain
numbers), so the cells of one sweep may share one copy instead of each
building its own.

:func:`sweep_memo` opens a memo for the duration of a sweep, and
:func:`open_sweep_memo` opens one for the lifetime of a pool worker.
:func:`shared` looks a key up in the open memo, and
:func:`shared_in_sweep` keys a pure builder by its arguments.  With no
memo open, every call builds afresh, so nothing is cached between
sweeps.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator, ParamSpec, TypeVar

__all__ = ["ByIdentity", "open_sweep_memo", "shared", "shared_in_sweep",
           "sweep_memo"]

P = ParamSpec("P")
T = TypeVar("T")

_memo: dict[Hashable, Any] | None = None


@contextmanager
def sweep_memo() -> Iterator[None]:
    """Share values built through :func:`shared` until the body exits.

    The memo is dropped on exit, also when the body raises, and the
    memo that was open before (if any) is restored.
    """
    global _memo
    previous, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = previous


def open_sweep_memo() -> None:
    """Open a memo for the rest of this process (a pool worker's initializer)."""
    global _memo
    _memo = {}


def shared(key: Hashable, build: Callable[[], T]) -> T:
    """``build()``, called once per ``key`` while a memo is open."""
    if _memo is None:
        return build()
    if key not in _memo:
        _memo[key] = build()
    return _memo[key]


def shared_in_sweep(fn: Callable[P, T]) -> Callable[P, T]:
    """Make a pure builder share its result by argument values in a sweep."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args: P.args, **kwargs: P.kwargs) -> T:
        if _memo is None:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (fn, bound.args, tuple(sorted(bound.kwargs.items())))
        return shared(key, lambda: fn(*args, **kwargs))

    return wrapper


class ByIdentity:
    """A key part that matches only the very same object.

    It holds a reference, so the object cannot be freed and its ``id``
    reused by another object while the memo entry exists.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ByIdentity) and other.obj is self.obj
