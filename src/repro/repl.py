"""Interactive console for hypothetical Datalog.

Start with ``hypodatalog repl`` (optionally ``RULES`` / ``-d DB``).
The loop accepts three kinds of input:

* ``?- <premise>.`` — a query.  A plain atom pattern with variables
  enumerates answers; anything else (ground atoms, hypothetical or
  negated premises) prints ``yes`` / ``no``.
* ``<rule>.`` — a rule is added to the rulebase; a ground fact is added
  to the database.
* ``:command`` — one of::

      :rules            print the current rulebase
      :facts            print the current database
      :retract FACT     remove a ground fact from the database
                        (private to your session when connected)
      :watch PATTERN    register a standing query: after every
                        assert/retract the +/- diff of its answer set
                        is printed (docs/INCREMENTAL.md); when
                        connected, subscribes server-side and renders
                        the pushed watch event frames
      :unwatch NAME     drop a standing query (names are w1, w2, ...)
      :classify         Theorem 1 classification
      :stratify         print the linear stratification
      :check [FORMAT]   full diagnostics; FORMAT: text | json | sarif
      :engine NAME      auto | prove | topdown | model
      :limits [SPEC]    resource limits for queries; SPEC is
                        ``timeout=SEC steps=N atoms=N depth=N`` in any
                        combination, or ``off`` to clear; no argument
                        shows the current limits
      :explain QUERY    print a derivation
      :explain demand QUERY
                        print the query's adorned/demand-rewritten
                        program (docs/DEMAND.md)
      :why QUERY        proof replayed from recorded provenance
                        edges; evaluates on demand if needed
                        (docs/OBSERVABILITY.md)
      :whynot QUERY     failure witness for an underivable query
      :assumptions QUERY
                        the hypothetical [add: ...] facts a
                        derivation of QUERY actually used
      :profile QUERY    run one query traced; print spans + metrics
      :plan [PRED]      generated join-kernel source for the rules
                        defining PRED (all rules when omitted)
                        (docs/PERFORMANCE.md)
      :stats [reset]    cumulative engine metrics for this session,
                        including the ``kernel.*`` compiled-path
                        counters; warns when the engine has degraded
                        to the interpreted naive fallback
      :load FILE        add rules from a file
      :db FILE          add facts from a file
      :connect HOST:PORT
                        attach to a running `hypodatalog serve`
                        instance (docs/SERVER.md): queries and ground
                        fact asserts are forwarded to a private
                        server-side session; :limits become the
                        per-request budget (clamped by the server)
      :disconnect       detach from the server; local rules return
      :reset            drop all rules and facts
      :help             this text
      :quit             leave

The engine is rebuilt lazily after every change, so stratification is
re-analyzed as the rulebase evolves.  The class is I/O-free (feed a
line, get text back), which is how the tests drive it.

Robustness (docs/ROBUSTNESS.md): ``:limits`` applies a fresh
:class:`~repro.engine.budget.Budget` to every query; an exhausted or
Ctrl-C-cancelled query reports the partial answers established so far
and leaves the session usable.  At the prompt, Ctrl-C clears the line
and Ctrl-D leaves cleanly.
"""

from __future__ import annotations

import itertools
import sys
from typing import Optional

from .analysis.classify import classify
from .analysis.stratify import linear_stratification
from .core.ast import Rulebase
from .core.database import Database
from .core.errors import HypotheticalDatalogError, ResourceExhausted
from .core.parser import (
    parse_atom,
    parse_database,
    parse_premise,
    parse_program,
    parse_rule,
)
from .core.pretty import format_database, format_stratification
from .core.ast import Positive
from .engine.budget import Budget
from .engine.query import Session, StandingQuery

__all__ = ["Repl", "run"]

_HELP = __doc__.split(":command`` — one of::", 1)[1].split("The engine", 1)[0]


class _RemoteLink:
    """A blocking JSON-lines client for ``:connect`` (docs/SERVER.md).

    One socket, one request in flight at a time — exactly the REPL's
    cadence.  Transport failures raise ``OSError`` (the command layer
    converts them to an ``error:`` line and drops the link), protocol
    errors come back as normal error responses.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._counter = 0
        self.address = f"{host}:{port}"
        #: Unsolicited ``watch`` event frames read while waiting for a
        #: response (the server pushes them after assert/retract);
        #: drained and rendered by the command layer.
        self.events: list[dict] = []

    def call(self, op: str, **params) -> dict:
        """One request/response round trip; returns the response frame.

        Event frames (``"event"`` key, no ``"ok"``) encountered while
        waiting are stashed on :attr:`events`, never returned.
        """
        import json

        from .server.protocol import encode_frame

        self._counter += 1
        frame = {"v": 1, "id": self._counter, "op": op}
        frame.update(
            (key, value) for key, value in params.items() if value is not None
        )
        self._file.write(encode_frame(frame))
        self._file.flush()
        while True:
            line = self._file.readline()
            if not line:
                raise OSError("server closed the connection")
            response = json.loads(line)
            if (
                isinstance(response, dict)
                and "event" in response
                and "ok" not in response
            ):
                self.events.append(response)
                continue
            return response

    def drain_events(self) -> list[dict]:
        """Hand over (and clear) the stashed event frames."""
        events, self.events = self.events, []
        return events

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass


class Repl:
    """The evaluation loop, one line at a time."""

    def __init__(
        self,
        rulebase: Optional[Rulebase] = None,
        db: Optional[Database] = None,
        engine: str = "auto",
    ) -> None:
        from .obs.metrics import MetricsRegistry

        self._rulebase = rulebase if rulebase is not None else Rulebase()
        self._db = db if db is not None else Database()
        self._engine_choice = engine
        self._session: Optional[Session] = None
        # One registry for the whole sitting: sessions are rebuilt after
        # every rulebase change, but their counters land here, so
        # ``:stats`` reports cumulative work.
        self._metrics = MetricsRegistry()
        # ``:limits`` template; each query runs under a fresh copy so
        # limits never accumulate across queries.
        self._limits: Optional[Budget] = None
        # Recording bottom-up session behind :why/:whynot/:assumptions,
        # built lazily and dropped on every rulebase/database change so
        # its provenance edges never go stale.
        self._prov_session: Optional[Session] = None
        # ``:connect`` link; while set, queries/asserts go remote.
        self._remote: Optional[_RemoteLink] = None
        # ``:watch`` standing queries (docs/INCREMENTAL.md): local
        # watches by name, plus the ids subscribed on the remote side.
        self._watches: dict[str, StandingQuery] = {}
        self._watch_names = itertools.count(1)
        self._remote_watches: set[str] = set()
        self.done = False

    # -- state ----------------------------------------------------------

    @property
    def rulebase(self) -> Rulebase:
        return self._rulebase

    @property
    def db(self) -> Database:
        return self._db

    def _invalidate(self) -> None:
        self._session = None
        self._prov_session = None

    def _require_session(self) -> Session:
        if self._session is None:
            self._session = Session(
                self._rulebase, self._engine_choice, metrics=self._metrics
            )
            for query in self._watches.values():
                query.rebind(self._session)
        return self._session

    # -- the loop body ----------------------------------------------------

    def feed(self, line: str) -> str:
        """Process one input line; return the text to display."""
        text = line.strip()
        if not text or text.startswith("%") or text.startswith("#"):
            return ""
        try:
            if text.startswith(":"):
                return self._command(text)
            if text.startswith("?-"):
                return self._query(text[2:].strip())
            return self._assert(text)
        except HypotheticalDatalogError as error:
            return f"error: {error}"

    def _budget(self) -> Optional[Budget]:
        return self._limits.fresh() if self._limits is not None else None

    def _query(self, text: str) -> str:
        if text.endswith("."):
            text = text[:-1]
        premise = parse_premise(text)
        if self._remote is not None:
            return self._remote_query(text, premise)
        session = self._require_session()
        variables = list(dict.fromkeys(premise.variables()))
        try:
            if variables and isinstance(premise, Positive):
                rows = session.answers(
                    self._db, premise.atom, budget=self._budget()
                )
                if not rows:
                    return "no"
                names = [var.name for var in variables]
                lines = []
                for row in sorted(rows, key=str):
                    lines.append(
                        ", ".join(
                            f"{name} = {value}"
                            for name, value in zip(names, row)
                        )
                    )
                return "\n".join(lines)
            result = session.ask(self._db, premise, budget=self._budget())
            return "yes" if result else "no"
        except ResourceExhausted as error:
            return self._render_exhausted(error, variables)

    @staticmethod
    def _render_exhausted(error: ResourceExhausted, variables) -> str:
        lines = [f"error: {error}"]
        partial = error.partial
        if partial.answers:
            names = [var.name for var in variables]
            lines.append(
                f"partial answers ({len(partial.answers)} established "
                f"before the limit):"
            )
            for row in sorted(partial.answers, key=str):
                lines.append(
                    "  "
                    + ", ".join(
                        f"{name} = {value}"
                        for name, value in zip(names, row)
                    )
                )
        lines.append(
            f"(spent: steps={partial.steps}, atoms={partial.atoms_derived}, "
            f"elapsed={partial.elapsed:.3f}s)"
        )
        return "\n".join(lines)

    def _assert(self, text: str) -> str:
        if not text.endswith("."):
            text += "."
        rule = parse_rule(text)
        if self._remote is not None:
            if not (rule.is_fact and rule.head.is_ground):
                return (
                    "error: the connected server's rulebase is read-only; "
                    "only ground facts can be asserted remotely "
                    "(:disconnect for local rules)"
                )
            return self._remote_call("assert", facts=[str(rule.head)])
        if rule.is_fact and rule.head.is_ground:
            self._db = self._db.with_facts(rule.head)
            # Keep the engine session: its per-database caches make
            # the next query after a fact change incremental
            # (docs/INCREMENTAL.md).  Only the recorded provenance
            # goes stale.
            self._prov_session = None
            return self._with_watch_report(f"asserted fact {rule.head}")
        self._rulebase = self._rulebase + [rule]
        self._invalidate()
        return self._with_watch_report(f"added rule {rule}")

    def _retract(self, text: str) -> str:
        """``:retract FACT`` — remove a ground fact (docs/INCREMENTAL.md).

        Locally the engine session survives, so the next query (and
        every watch refresh) is answered by deletion propagation rather
        than a fresh fixpoint; connected, it forwards the server's
        ``retract`` op against the private session view.
        """
        text = text.rstrip(".")
        if self._remote is not None:
            return self._remote_call("retract", facts=[text])
        fact = parse_atom(text)
        if not fact.is_ground:
            return "error: only ground facts can be retracted"
        present = fact in self._db
        self._db = self._db.without_facts(fact)
        self._prov_session = None
        out = (
            f"retracted fact {fact}" if present
            else f"{fact} was not in the database"
        )
        return self._with_watch_report(out)

    # -- standing queries (docs/INCREMENTAL.md) --------------------------

    @staticmethod
    def _format_watch_diff(wid, pattern, added, removed) -> str:
        lines = [f"watch {wid} ({pattern}):"]
        for sign, rows in (("+", added), ("-", removed)):
            for row in sorted(rows, key=str):
                payload = (
                    ", ".join(str(value) for value in row) if row else "true"
                )
                lines.append(f"  {sign} {payload}")
        return "\n".join(lines)

    def _with_watch_report(self, out: str) -> str:
        """Append the +/- diff of every changed local watch to one
        command's output (unchanged watches stay silent)."""
        if not self._watches:
            return out
        # A rule change invalidates the session; rebuilding it here
        # rebinds every watch before the refreshes below.
        self._require_session()
        lines = [out]
        for wid, query in self._watches.items():
            try:
                diff = query.refresh(self._db, budget=self._budget())
            except ResourceExhausted as error:
                lines.append(f"watch {wid} ({query.text}): error: {error}")
                continue
            if diff:
                lines.append(
                    self._format_watch_diff(
                        wid, query.text, diff.added, diff.removed
                    )
                )
        return "\n".join(lines)

    def _watch_command(self, argument: str) -> str:
        if not argument:
            return "error: usage: :watch PATTERN"
        pattern = argument.rstrip(".")
        if self._remote is not None:
            try:
                response = self._remote.call(
                    "subscribe", pattern=pattern, budget=self._budget_spec()
                )
            except (OSError, ValueError) as error:
                address = self._drop_remote()
                return (
                    f"error: lost connection to {address} ({error}); "
                    f"disconnected"
                )
            if not response.get("ok"):
                return self._render_remote_error(response.get("error", {}))
            result = response["result"]
            wid = result.get("watch")
            self._remote_watches.add(wid)
            rows = result.get("rows", [])
            return f"watch {wid} ({pattern}): {len(rows)} answer(s)"
        session = self._require_session()
        query = session.watch(pattern)
        try:
            initial = query.refresh(self._db, budget=self._budget())
        except ResourceExhausted as error:
            return self._render_exhausted(error, [])
        wid = f"w{next(self._watch_names)}"
        self._watches[wid] = query
        return f"watch {wid} ({query.text}): {len(initial.added)} answer(s)"

    def _unwatch_command(self, argument: str) -> str:
        if not argument:
            return "error: usage: :unwatch NAME"
        if self._remote is not None:
            try:
                response = self._remote.call("unsubscribe", watch=argument)
            except (OSError, ValueError) as error:
                address = self._drop_remote()
                return (
                    f"error: lost connection to {address} ({error}); "
                    f"disconnected"
                )
            if not response.get("ok"):
                return self._render_remote_error(response.get("error", {}))
            self._remote_watches.discard(argument)
            return f"unwatched {argument}"
        if self._watches.pop(argument, None) is None:
            return f"error: no watch named {argument!r} (see :help)"
        return f"unwatched {argument}"

    def _pull_remote_events(self) -> list[str]:
        """Render the watch events a remote assert/retract triggered.

        The server pushes event frames right after the mutation's
        response and handles frames in order, so one ``ping`` acts as a
        barrier: by the time its pong arrives, every event is stashed.
        """
        if self._remote is None or not self._remote_watches:
            return []
        try:
            self._remote.call("ping")
        except (OSError, ValueError):
            return []
        lines = []
        for event in self._remote.drain_events():
            if event.get("event") != "watch":
                continue
            lines.append(
                self._format_watch_diff(
                    event.get("watch", "?"),
                    event.get("pattern", "?"),
                    [tuple(row) for row in event.get("added", [])],
                    [tuple(row) for row in event.get("removed", [])],
                )
            )
        return lines

    # -- the :connect link (docs/SERVER.md) ------------------------------

    def _budget_spec(self) -> Optional[dict]:
        """The ``:limits`` template as a wire budget object."""
        limits = self._limits
        if limits is None:
            return None
        spec = {
            "timeout": limits.timeout,
            "max_steps": limits.max_steps,
            "max_atoms": limits.max_atoms,
            "max_depth": limits.max_depth,
        }
        return {key: value for key, value in spec.items() if value is not None}

    def _drop_remote(self) -> str:
        address = self._remote.address if self._remote is not None else ""
        if self._remote is not None:
            self._remote.close()
            self._remote = None
        self._remote_watches.clear()
        return address

    def _remote_call(self, op: str, **params) -> str:
        """One remote round trip rendered as REPL output; transport
        failures drop the link (the local session is untouched)."""
        try:
            response = self._remote.call(op, budget=self._budget_spec(), **params)
        except (OSError, ValueError) as error:
            address = self._drop_remote()
            return f"error: lost connection to {address} ({error}); disconnected"
        if response.get("ok"):
            result = response["result"]
            if op == "assert":
                lines = [f"asserted remotely ({result.get('added', 0)} new)"]
            elif op == "retract":
                lines = [
                    f"retracted remotely ({result.get('removed', 0)} removed)"
                ]
            else:
                return str(result)
            lines.extend(self._pull_remote_events())
            return "\n".join(lines)
        return self._render_remote_error(response.get("error", {}))

    def _remote_query(self, text: str, premise) -> str:
        variables = list(dict.fromkeys(premise.variables()))
        if variables and isinstance(premise, Positive):
            op, params = "answers", {"pattern": text}
        else:
            op, params = "query", {"query": text}
        try:
            response = self._remote.call(
                op, budget=self._budget_spec(), **params
            )
        except (OSError, ValueError) as error:
            address = self._drop_remote()
            return f"error: lost connection to {address} ({error}); disconnected"
        if response.get("ok"):
            result = response["result"]
            if op == "query":
                return "yes" if result.get("answer") else "no"
            rows = result.get("rows", [])
            if not rows:
                return "no"
            names = [var.name for var in variables]
            return "\n".join(
                ", ".join(
                    f"{name} = {value}" for name, value in zip(names, row)
                )
                for row in rows
            )
        return self._render_remote_error(
            response.get("error", {}), variables
        )

    def _render_remote_error(self, error: dict, variables=()) -> str:
        code = error.get("code", "internal")
        if code == "exhausted":
            from .core.errors import ResourceExhausted

            return self._render_exhausted(
                ResourceExhausted.from_dict(error), list(variables)
            )
        return f"error: [{code}] {error.get('message', '')}"

    def _command(self, text: str) -> str:
        name, _, argument = text[1:].partition(" ")
        argument = argument.strip()
        if name in ("quit", "exit", "q"):
            self.done = True
            return "bye"
        if name == "help":
            return _HELP.strip("\n")
        if name == "rules":
            return str(self._rulebase) if len(self._rulebase) else "(no rules)"
        if name == "facts":
            return format_database(self._db) if len(self._db) else "(no facts)"
        if name == "retract":
            if not argument:
                return "error: usage: :retract FACT"
            return self._retract(argument)
        if name == "watch":
            return self._watch_command(argument)
        if name == "unwatch":
            return self._unwatch_command(argument)
        if name == "classify":
            return str(classify(self._rulebase))
        if name == "stratify":
            return format_stratification(linear_stratification(self._rulebase))
        if name == "check":
            from .analysis.diagnostics import (
                check,
                render_text,
                to_json,
                to_sarif,
            )

            fmt = argument or "text"
            if fmt not in ("text", "json", "sarif"):
                return "error: format must be text, json, or sarif"
            diags = check(self._rulebase)
            if fmt == "json":
                return to_json(diags)
            if fmt == "sarif":
                return to_sarif(diags)
            return render_text(diags, verbose=True)
        if name == "engine":
            if argument not in ("auto", "prove", "topdown", "model"):
                return "error: engine must be auto, prove, topdown, or model"
            self._engine_choice = argument
            self._invalidate()
            session = self._require_session()
            return f"engine: {session.engine_name}"
        if name == "limits":
            return self._limits_command(argument)
        if name == "explain":
            if argument.startswith("demand ") or argument == "demand":
                query = argument[len("demand"):].strip().rstrip(".")
                if not query:
                    return "error: usage: :explain demand QUERY"
                from .analysis.magic import format_rewrite, magic_rewrite

                return format_rewrite(magic_rewrite(self._rulebase, query))
            from .engine.proofs import format_proof

            try:
                proof = self._require_session().explain(
                    self._db, argument.rstrip("."), budget=self._budget()
                )
            except ResourceExhausted as error:
                return self._render_exhausted(error, [])
            return format_proof(proof) if proof is not None else "not provable"
        if name in ("why", "whynot", "assumptions"):
            if not argument:
                return f"error: usage: :{name} QUERY"
            return self._provenance_command(name, argument.rstrip("."))
        if name == "profile":
            if not argument:
                return "error: usage: :profile QUERY"
            from .obs.profile import profile_query

            try:
                report = profile_query(
                    self._rulebase,
                    self._db,
                    argument.rstrip("."),
                    engine=self._engine_choice,
                    budget=self._budget(),
                )
            except ResourceExhausted as error:
                return self._render_exhausted(error, [])
            return report.render()
        if name == "plan":
            return self._plan_command(argument)
        if name == "stats":
            if argument == "reset":
                self._metrics.reset()
                return "metrics reset"
            if argument:
                return "error: usage: :stats [reset]"
            table = self._metrics.render_table()
            for session in (self._session, self._prov_session):
                engine = session.engine if session is not None else None
                if engine is not None and getattr(engine, "degraded", False):
                    table += (
                        "\nwarning: engine degraded — running the "
                        "interpreted naive fallback after a failed "
                        "self-check (engine.degraded_queries counts "
                        "affected queries)"
                    )
                    break
            return table
        if name == "load":
            with open(argument, encoding="utf-8") as handle:
                self._rulebase = self._rulebase + parse_program(handle.read()).rules
            self._invalidate()
            return f"loaded {argument} ({len(self._rulebase)} rules total)"
        if name == "db":
            with open(argument, encoding="utf-8") as handle:
                self._db = self._db.union(parse_database(handle.read()))
            self._invalidate()
            return f"loaded {argument} ({len(self._db)} facts total)"
        if name == "connect":
            return self._connect_command(argument)
        if name == "disconnect":
            if self._remote is None:
                return "not connected"
            address = self._drop_remote()
            return f"disconnected from {address}; local session restored"
        if name == "reset":
            self._rulebase = Rulebase()
            self._db = Database()
            self._watches.clear()
            self._invalidate()
            return "cleared"
        return f"error: unknown command :{name} (try :help)"

    def _connect_command(self, argument: str) -> str:
        host, _, port_text = argument.rpartition(":")
        if not host or not port_text.isdigit():
            return "error: usage: :connect HOST:PORT"
        if self._remote is not None:
            self._drop_remote()
        try:
            link = _RemoteLink(host, int(port_text))
            response = link.call("ping")
        except OSError as error:
            return f"error: cannot connect to {argument} ({error})"
        except ValueError as error:
            return f"error: {argument} did not speak the protocol ({error})"
        if not response.get("ok"):
            link.close()
            detail = response.get("error", {})
            return (
                f"error: server refused the handshake "
                f"[{detail.get('code', 'internal')}] {detail.get('message', '')}"
            )
        self._remote = link
        info = response.get("result", {})
        server = info.get("server", {})
        return (
            f"connected to {argument}: {server.get('rules', '?')} rules, "
            f"{server.get('facts', '?')} base facts, "
            f"engine {server.get('engine', '?')} "
            f"(queries and ground asserts now run remotely; :disconnect "
            f"to return)"
        )

    def _plan_command(self, argument: str) -> str:
        """``:plan [PRED]`` — generated kernel source per rule."""
        from .engine.kernels import KernelProgram

        predicate = argument.rstrip(".").strip()
        rules = (
            list(self._rulebase.definition(predicate))
            if predicate
            else list(self._rulebase)
        )
        if not rules:
            return (
                f"no rules define {predicate!r}" if predicate else "(no rules)"
            )
        program = KernelProgram()
        lines = []
        for item in rules:
            lines.append(f"-- {item}")
            source = program.preview(item)
            lines.append(
                source.rstrip("\n")
                if source is not None
                else "   (not compilable: interpreted fallback)"
            )
        return "\n".join(lines)

    def _provenance_session(self) -> Session:
        if self._prov_session is None:
            self._prov_session = Session(
                self._rulebase,
                "model",
                metrics=self._metrics,
                provenance=True,
            )
        return self._prov_session

    def _provenance_command(self, name: str, query: str) -> str:
        """``:why`` / ``:whynot`` / ``:assumptions`` — evaluates on
        demand (recording) when the atom was never queried; an
        exhausted or Ctrl-C-cancelled explanation reports partial
        spend and returns to the prompt."""
        session = self._provenance_session()
        try:
            if name == "why":
                from .engine.proofs import format_proof

                proof = session.why(self._db, query, budget=self._budget())
                return (
                    format_proof(proof) if proof is not None
                    else "not provable"
                )
            if name == "whynot":
                from .obs.provenance import format_why_not

                report = session.why_not(
                    self._db, query, budget=self._budget()
                )
                return format_why_not(report)
            from .obs.provenance import format_assumptions

            assumed = session.assumptions(
                self._db, query, budget=self._budget()
            )
            return format_assumptions(assumed)
        except ResourceExhausted as error:
            return self._render_exhausted(error, [])

    _LIMIT_KEYS = {
        "timeout": ("timeout", float),
        "steps": ("max_steps", int),
        "atoms": ("max_atoms", int),
        "depth": ("max_depth", int),
    }

    def _limits_command(self, argument: str) -> str:
        if not argument:
            current = (
                self._limits.describe() if self._limits is not None
                else "(no limits)"
            )
            return f"limits: {current}"
        if argument == "off":
            self._limits = None
            return "limits: (no limits)"
        settings = {}
        for part in argument.split():
            key, eq, raw = part.partition("=")
            if not eq or key not in self._LIMIT_KEYS:
                return (
                    "error: usage: :limits [timeout=SEC] [steps=N] "
                    "[atoms=N] [depth=N] | off"
                )
            field, convert = self._LIMIT_KEYS[key]
            try:
                settings[field] = convert(raw)
            except ValueError:
                return f"error: {key} needs a number, got {raw!r}"
        try:
            self._limits = Budget(**settings)
        except ValueError as error:
            return f"error: {error}"
        return f"limits: {self._limits.describe()}"


def run(
    rulebase: Optional[Rulebase] = None,
    db: Optional[Database] = None,
    stdin=None,
    stdout=None,
) -> int:
    """Run the interactive loop until EOF or ``:quit``."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    interactive = stdin is sys.stdin and stdin.isatty()
    repl = Repl(rulebase, db)
    print("hypothetical Datalog — :help for commands, :quit to leave", file=stdout)
    while not repl.done:
        if interactive:
            print("?> ", end="", file=stdout, flush=True)
        try:
            line = stdin.readline()
        except (KeyboardInterrupt, EOFError):
            # Ctrl-C at the prompt abandons the line, not the session;
            # Ctrl-D (EOF) leaves cleanly like ``:quit``.
            if interactive:
                print("^C  (:quit to leave)", file=stdout)
                continue
            break
        if not line:
            break
        try:
            output = repl.feed(line)
        except KeyboardInterrupt:
            # A Ctrl-C that raced past the engines' own conversion
            # (e.g. during parsing or printing): the query is lost but
            # the session survives.
            output = "cancelled"
        if output:
            print(output, file=stdout)
    return 0
