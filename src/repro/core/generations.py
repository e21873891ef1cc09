"""A map that keeps what its last two generations touched.

The model engine's model cache, :class:`~repro.core.columns.ColumnStore`
and the engines' join planner memo keep entries by one rule.  A lookup
finds an entry in the current generation, or promotes it from the
previous one.  When an engine call that touched something returns, the
previous generation is dropped and the current one takes its place.  So
each holds what the last two calls that used it touched, and nothing a
running call has touched is dropped while it runs.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

__all__ = ["TwoGenerations"]


class TwoGenerations:
    """A dictionary in two generations; values must not be ``None``."""

    __slots__ = ("current", "previous")

    def __init__(self) -> None:
        self.current: dict = {}
        self.previous: dict = {}

    def get(self, key: Hashable) -> Optional[Any]:
        """The value at ``key`` or ``None``; a value only the previous
        generation holds moves into the current one."""
        found = self.current.get(key)
        if found is None:
            found = self.previous.pop(key, None)
            if found is not None:
                self.current[key] = found
        return found

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.current[key] = value

    def rotate(self) -> int:
        """Drop the previous generation and make the current one
        previous; return how many entries were dropped.  With nothing
        touched since the last rotation both are left as they are."""
        if not self.current:
            return 0
        dropped = len(self.previous)
        self.previous = self.current
        self.current = {}
        return dropped

    def clear(self) -> None:
        self.current.clear()
        self.previous.clear()

    def __len__(self) -> int:
        return len(self.current) + len(self.previous)
