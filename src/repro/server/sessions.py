"""Server-side session state: shared rulebase, per-client isolation.

Bonner's cheap what-if contexts make the natural service shape
many-clients-one-rulebase: the rules (and their analysis, plans, and
compiled kernels) are read-only and shared, while every client owns a
private, cheap, copy-on-write view of the facts.  Two classes split
that exactly:

* :class:`SharedRulebase` — the immutable :class:`~repro.core.ast.Rulebase`
  plus the base :class:`~repro.core.database.Database`, validated once
  at server startup so a broken rulebase fails the *process* (CLI exit
  3/2), never a request.  Engine-level caches (join plans, generated
  kernels, interned symbols) live inside each client's engine, but the
  rulebase and base-db objects they hang off are shared structurally —
  the COW database layers mean a thousand sessions asserting disjoint
  facts share the base relations rather than copying them
  (``tests/test_shared_rulebase.py`` pins the isolation).

* :class:`ClientSession` — one client's view: an overlay of asserted /
  retracted facts over the shared base, plus the engine session
  answering queries.  Sessions never share mutable state with each
  other; closing one frees everything it owned.

Threading: evaluation runs on worker threads
(:mod:`repro.server.server` bounds how many), but each
:class:`ClientSession` is only ever used by its own connection's
requests, which the server serializes per session — so the engine's
internal caches need no locks.  The shared pieces crossing threads are
the immutable rulebase/database structures and the metrics registry
(whose counters tolerate benign races; see docs/SERVER.md).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..core.ast import Rulebase
from ..core.database import Database
from ..core.errors import ValidationError
from ..core.parser import parse_atom
from ..core.terms import Atom
from ..engine.query import Session, StandingQuery
from ..obs.metrics import MetricsRegistry

__all__ = ["ClientSession", "SharedRulebase", "parse_fact"]


def parse_fact(text: str) -> Atom:
    """One ground fact from wire text (trailing ``.`` tolerated).

    Raises :class:`ParseError`/:class:`ValidationError`, which the
    protocol layer maps to the stable ``parse`` error code.
    """
    atom = parse_atom(text.strip().rstrip("."))
    if not atom.is_ground:
        raise ValidationError(f"fact {atom} is not ground")
    return atom


class SharedRulebase:
    """The read-only compiled rulebase every session evaluates against.

    Constructing one validates the rulebase by building a probe engine
    session, so stratification and classification problems surface at
    server startup with the usual error taxonomy instead of failing
    every request later.
    """

    def __init__(
        self,
        rulebase: Rulebase,
        base_db: Optional[Database] = None,
        *,
        engine: str = "auto",
        demand: str = "off",
        compile: str = "auto",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.rulebase = rulebase
        self.base_db = base_db if base_db is not None else Database()
        self.engine = engine
        self.demand = demand
        self.compile = compile
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Fail fast: a rulebase the engines reject must kill `serve`
        # at startup, not the first request.
        probe = Session(rulebase, engine, demand=demand, compile=compile)
        self.engine_name = probe.engine_name

    def describe(self) -> dict:
        """Shape summary for ``ping`` responses and startup logs."""
        return {
            "rules": len(self.rulebase),
            "facts": len(self.base_db),
            "engine": self.engine_name,
            "demand": self.demand,
            "compile": str(self.compile),
        }


class ClientSession:
    """One client's isolated view over the shared rulebase.

    ``assert_facts``/``retract_facts`` maintain a private overlay and
    apply each batch to the session's current view through the COW
    layers, so the view stays ``base + asserted - retracted`` while a
    batch costs O(changes), never O(|base|) or O(|overlay|).
    Retracting a base fact is allowed and stays private to this
    session (Sáenz-Pérez's restriction semantics: an assumption set
    may also *withhold* facts).
    """

    _names = itertools.count(1)

    def __init__(
        self,
        shared: SharedRulebase,
        name: Optional[str] = None,
        *,
        engine: Optional[str] = None,
        demand: Optional[str] = None,
        compile: Optional[str] = None,
    ) -> None:
        self.shared = shared
        self.name = name if name else f"s{next(self._names)}"
        self._asserted: dict[Atom, None] = {}
        self._retracted: dict[Atom, None] = {}
        self._db = shared.base_db
        self._watches: dict[str, StandingQuery] = {}
        self._watch_names = itertools.count(1)
        self._compile = compile if compile is not None else shared.compile
        self._session = Session(
            shared.rulebase,
            engine if engine is not None else shared.engine,
            metrics=shared.metrics,
            demand=demand if demand is not None else shared.demand,
            compile=self._compile,
        )
        self._model_engine = None

    @property
    def engine_name(self) -> str:
        return self._session.engine_name

    @property
    def db(self) -> Database:
        """The session's effective database."""
        return self._db

    # -- fact overlay ---------------------------------------------------

    def assert_facts(self, texts: Iterable[str]) -> int:
        """Add ground facts to this session's overlay; returns how many
        became newly visible (idempotent re-asserts don't count).

        Visibility is judged against the *effective* view (base +
        asserted - retracted) snapshotted before the batch: re-asserting
        a base fact this session had retracted counts — it changes what
        queries see — and a duplicate within one batch counts once.
        """
        atoms = [parse_fact(text) for text in texts]
        added = 0
        view = self._db
        shown: set[Atom] = set()
        for atom in atoms:
            if atom not in view and atom not in shown:
                added += 1
                shown.add(atom)
            self._retracted.pop(atom, None)
            self._asserted.setdefault(atom, None)
        self._db = view.with_facts(*atoms)
        return added

    def retract_facts(self, texts: Iterable[str]) -> int:
        """Remove ground facts from this session's view; returns how
        many were actually visible before the retract.

        Judged against the pre-batch view with in-batch removals
        tracked, so a batch naming the same fact twice reports it
        removed once, not twice.
        """
        atoms = [parse_fact(text) for text in texts]
        removed = 0
        view = self._db
        hidden: set[Atom] = set()
        for atom in atoms:
            if atom in view and atom not in hidden:
                removed += 1
                hidden.add(atom)
            self._asserted.pop(atom, None)
            self._retracted.setdefault(atom, None)
        self._db = view.without_facts(*atoms)
        return removed

    def overlay(self) -> dict:
        """The session's private delta, for introspection/tests."""
        return {
            "asserted": sorted(str(atom) for atom in self._asserted),
            "retracted": sorted(str(atom) for atom in self._retracted),
        }

    # -- standing queries (docs/INCREMENTAL.md) -------------------------

    @property
    def watches(self) -> tuple[str, ...]:
        """The ids of this session's registered standing queries."""
        return tuple(self._watches)

    def watch(
        self,
        pattern: str,
        *,
        name: Optional[str] = None,
        budget=None,
    ) -> tuple[str, frozenset]:
        """Register a standing query; returns ``(watch id, current
        answer set)``.  The id is caller-chosen or generated (``w1``,
        ``w2``, ...)."""
        wid = name if name else f"w{next(self._watch_names)}"
        if wid in self._watches:
            raise ValidationError(f"watch {wid!r} is already registered")
        query = self._session.watch(pattern)
        initial = query.refresh(self.db, budget=budget)
        self._watches[wid] = query
        return wid, initial.added

    def unwatch(self, name: str) -> bool:
        """Drop a standing query; True iff it existed."""
        return self._watches.pop(name, None) is not None

    def refresh_watches(self, *, budget=None) -> list[dict]:
        """Re-evaluate every standing query against the current view;
        returns one JSON-ready payload per watch whose answer set
        changed (empty diffs are suppressed)."""
        events: list[dict] = []
        for wid, query in self._watches.items():
            diff = query.refresh(self.db, budget=budget)
            if diff:
                events.append(
                    {
                        "watch": wid,
                        "pattern": query.text,
                        "added": sorted(
                            [list(row) for row in diff.added], key=str
                        ),
                        "removed": sorted(
                            [list(row) for row in diff.removed], key=str
                        ),
                    }
                )
        return events

    # -- evaluation -----------------------------------------------------

    def _target_db(self, assume: Optional[Iterable[str]]) -> Database:
        """The database one request evaluates against: the session view
        plus any one-shot ``assume`` facts (a what-if that never
        mutates the session)."""
        db = self.db
        if assume:
            db = db.with_facts(*(parse_fact(text) for text in assume))
        return db

    def ask(
        self, query: str, *, assume: Optional[Iterable[str]] = None, budget=None
    ) -> bool:
        return self._session.ask(self._target_db(assume), query, budget=budget)

    def answers(
        self, pattern: str, *, assume: Optional[Iterable[str]] = None, budget=None
    ) -> set[tuple]:
        return self._session.answers(
            self._target_db(assume), pattern, budget=budget
        )

    def model(
        self, *, assume: Optional[Iterable[str]] = None, budget=None
    ) -> frozenset:
        """The full perfect model of the session's database.

        Only :class:`PerfectModelEngine` computes whole models: a
        ``"model"`` session answers with its own engine (and its warm
        cache); any other session lazily builds one with the session's
        ``compile`` choice.
        """
        from ..engine.model import PerfectModelEngine

        engine = self._session.engine
        if not isinstance(engine, PerfectModelEngine):
            if self._model_engine is None:
                self._model_engine = PerfectModelEngine(
                    self.shared.rulebase,
                    metrics=self.shared.metrics,
                    compile=self._compile,
                )
            engine = self._model_engine
        return engine.model(self._target_db(assume), budget=budget)
