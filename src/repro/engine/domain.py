"""``dom(R, DB)``: the constants Definition 3 grounds variables over.

Every engine grounds unbound variables over the constants of the
rulebase and the database, in one fixed order (grounding order decides
which proof a goal-directed search finds first, so all engines share
it).  :class:`Domain` is that computation for one rulebase.  It reads
the database's constant set, which
:class:`~repro.core.database.Database` carries along its copy-on-write
updates, and keeps the last sorted list: while a session's database
changes without gaining or losing a constant, the set is the same
object and the sorted list is returned as is.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.database import Database
from ..core.terms import Constant

__all__ = ["Domain"]


def _order(constant: Constant) -> tuple[str, str]:
    return (str(type(constant.value)), str(constant.value))


class Domain:
    """``dom(R, DB)`` for one rulebase's constants, over any database.

    The returned list is shared between calls that see the same
    constants; callers must not mutate it.
    """

    __slots__ = ("rule_constants", "members", "_key", "_sorted")

    def __init__(self, rule_constants: Iterable[Constant]) -> None:
        self.rule_constants = frozenset(rule_constants)
        #: The constants of the last domain returned, as a set.
        self.members: frozenset[Constant] = self.rule_constants
        self._key: Optional[frozenset[Constant]] = None
        self._sorted: list[Constant] = sorted(self.members, key=_order)

    def __call__(self, db: Database) -> list[Constant]:
        constants = db.constants()
        if constants is not self._key:
            members = self.rule_constants | constants
            if members != self.members:
                self.members = members
                self._sorted = sorted(members, key=_order)
            self._key = constants
        return self._sorted
