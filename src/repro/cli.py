"""Command-line interface.

Installed as ``hypodatalog`` (also ``python -m repro``).  Subcommands:

* ``classify RULES`` — Theorem 1 complexity classification;
* ``stratify RULES`` — print the linear stratification, Example 9 style;
* ``query RULES -d DB "premise"`` — decide a query (``--demand`` turns
  on goal-directed magic-sets evaluation for the bottom-up engine);
* ``answers RULES -d DB "pattern"`` — enumerate answers (``--demand``
  as for ``query``);
* ``model RULES -d DB`` — print the full perfect model;
* ``profile RULES -q QUERY [-d DB]`` — run one query with tracing on
  and print the span tree plus a metrics table; ``--trace-out FILE``
  writes a Chrome ``trace_event`` file (chrome://tracing / Perfetto)
  and ``--jsonl-out FILE`` a JSON-lines trace;
* ``check RULES...`` — full diagnostics: source spans, binding-mode
  findings, cost estimates; ``--format {text,json,sarif}`` and a
  ``--fail-on`` severity gate for CI;
* ``graph RULES`` — Graphviz DOT of the dependency graph;
* ``explain RULES -d DB "query"`` — print a derivation.  ``--why``
  replays a proof from recorded provenance edges and certifies it
  with the independent verifier; ``--why-not`` prints a failure
  witness for an underivable query; ``--assumptions`` reports the
  hypothetical additions the derivation used
  (docs/OBSERVABILITY.md); ``--show-rewrite`` prints the
  adorned/demand-rewritten program instead (docs/DEMAND.md), and
  ``--demand`` selects the evaluation mode as for ``query``;
* ``repl [RULES] [-d DB]`` — interactive console;
* ``serve RULES [-d DB]`` — fault-tolerant JSON-lines query server:
  per-connection sessions over one shared rulebase, per-request
  budgets clamped by ``--max-budget-*`` ceilings, bounded admission
  with fast ``overloaded`` rejection, and graceful drain on
  SIGTERM/SIGINT (docs/SERVER.md).

``RULES`` and ``DB`` are file paths in the textual syntax of
:mod:`repro.core.parser`; ``-`` reads from stdin.

``query``/``answers``/``model``/``profile``/``explain`` accept
resource limits —
``--timeout SECONDS``, ``--max-steps N``, ``--max-atoms N``,
``--max-proof-depth N`` — enforced by :mod:`repro.engine.budget`; an
exhausted query prints whatever partial results were established.

Exit codes are stable (docs/ROBUSTNESS.md): 0 success, 1 negative or
gated result, 2 parse/validation/usage error, 3 stratification error,
4 evaluation error, 5 resource budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis.classify import classify
from .analysis.stratify import linear_stratification
from .core.database import Database
from .core.errors import (
    EvaluationError,
    HypotheticalDatalogError,
    ParseError,
    ResourceExhausted,
    StratificationError,
    ValidationError,
)
from .core.parser import parse_database, parse_program
from .core.pretty import format_database, format_stratification
from .engine.model import PerfectModelEngine
from .engine.query import Session

__all__ = ["main"]

#: Stable nonzero exit codes for the error hierarchy (docs/ROBUSTNESS.md).
EXIT_PARSE = 2
EXIT_STRATIFICATION = 3
EXIT_EVALUATION = 4
EXIT_EXHAUSTED = 5


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_db(path: Optional[str]) -> Database:
    if path is None:
        return Database()
    return parse_database(_read(path))


def _budget_arguments(cmd: argparse.ArgumentParser) -> None:
    """Resource-limit flags shared by the evaluating subcommands."""
    limits = cmd.add_argument_group(
        "resource limits (exit code 5 when exhausted; partial results "
        "are printed)"
    )
    limits.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the evaluation",
    )
    limits.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="inference-step limit (goal expansions / rule firings)",
    )
    limits.add_argument(
        "--max-atoms",
        type=int,
        default=None,
        metavar="N",
        help="cap on derived atoms (memory proxy)",
    )
    limits.add_argument(
        "--max-proof-depth",
        type=int,
        default=None,
        metavar="N",
        help="proof-depth limit for the top-down engines",
    )


def _budget_from(options: argparse.Namespace):
    """A :class:`~repro.engine.budget.Budget` from the CLI flags, or
    ``None`` when no limit was given (the zero-overhead default)."""
    if not any(
        getattr(options, name, None) is not None
        for name in ("timeout", "max_steps", "max_atoms", "max_proof_depth")
    ):
        return None
    from .engine.budget import Budget

    return Budget(
        timeout=options.timeout,
        max_steps=options.max_steps,
        max_atoms=options.max_atoms,
        max_depth=options.max_proof_depth,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypodatalog",
        description="Hypothetical Datalog with negation and linear recursion "
        "(Bonner, PODS 1989).",
    )
    def _compile_argument(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--compile",
            default="auto",
            choices=("auto", "on", "off"),
            help="generated join kernels for the bottom-up engine "
            "(docs/PERFORMANCE.md); answers are identical either way, "
            "'auto' means on",
        )

    commands = parser.add_subparsers(dest="command", required=True)

    classify_cmd = commands.add_parser(
        "classify", help="data-complexity classification (Theorem 1)"
    )
    classify_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")

    stratify_cmd = commands.add_parser(
        "stratify", help="print the linear stratification (Lemma 1)"
    )
    stratify_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")

    query_cmd = commands.add_parser("query", help="decide a query")
    query_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")
    query_cmd.add_argument("premise", help="query text, e.g. 'grad(tony)[add: take(tony, cs452)]'")
    query_cmd.add_argument("-d", "--db", help="database file")
    query_cmd.add_argument(
        "-e", "--engine", default="auto", choices=("auto", "prove", "topdown", "model")
    )
    query_cmd.add_argument(
        "--trace-out",
        metavar="FILE",
        help="also record a Chrome trace_event file of the evaluation",
    )
    query_cmd.add_argument(
        "--demand",
        default="off",
        choices=("auto", "on", "off"),
        help="goal-directed magic-sets evaluation for the bottom-up "
        "engine (docs/DEMAND.md); the top-down engines ignore it",
    )
    query_cmd.add_argument(
        "--explain",
        action="store_true",
        help="also print a provenance-backed derivation for a yes, or "
        "a why-not failure witness for a no (docs/OBSERVABILITY.md)",
    )
    _compile_argument(query_cmd)
    _budget_arguments(query_cmd)

    answers_cmd = commands.add_parser("answers", help="enumerate answers")
    answers_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")
    answers_cmd.add_argument("pattern", help="atom pattern, e.g. 'grad(S)'")
    answers_cmd.add_argument("-d", "--db", help="database file")
    answers_cmd.add_argument(
        "-e", "--engine", default="auto", choices=("auto", "prove", "topdown", "model")
    )
    answers_cmd.add_argument(
        "--trace-out",
        metavar="FILE",
        help="also record a Chrome trace_event file of the evaluation",
    )
    answers_cmd.add_argument(
        "--demand",
        default="off",
        choices=("auto", "on", "off"),
        help="goal-directed magic-sets evaluation for the bottom-up "
        "engine (docs/DEMAND.md); the top-down engines ignore it",
    )
    _compile_argument(answers_cmd)
    _budget_arguments(answers_cmd)

    model_cmd = commands.add_parser("model", help="print the perfect model")
    model_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")
    model_cmd.add_argument("-d", "--db", help="database file")
    model_cmd.add_argument(
        "--trace-out",
        metavar="FILE",
        help="also record a Chrome trace_event file of the evaluation",
    )
    _compile_argument(model_cmd)
    _budget_arguments(model_cmd)

    profile_cmd = commands.add_parser(
        "profile",
        help="run one query with tracing on; print spans and metrics",
    )
    profile_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")
    profile_cmd.add_argument(
        "-q",
        "--query",
        required=True,
        metavar="QUERY",
        help="query text, e.g. 'grad(S)' or "
        "'grad(tony)[add: take(tony, cs452)]'",
    )
    profile_cmd.add_argument("-d", "--db", help="database file")
    profile_cmd.add_argument(
        "-e", "--engine", default="auto", choices=("auto", "prove", "topdown", "model")
    )
    profile_cmd.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace_event JSON file "
        "(open in chrome://tracing or Perfetto)",
    )
    profile_cmd.add_argument(
        "--jsonl-out",
        metavar="FILE",
        help="write the trace as JSON-lines (one span/event per line)",
    )
    profile_cmd.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="clip the printed span tree at depth N (exports are full)",
    )
    profile_cmd.add_argument(
        "--no-timings",
        action="store_true",
        help="omit durations from the printed tree (stable output)",
    )
    _budget_arguments(profile_cmd)

    check_cmd = commands.add_parser(
        "check",
        help="full diagnostics: spans, binding modes, cost estimates",
    )
    check_cmd.add_argument(
        "rules", nargs="+", help="rulebase file(s) ('-' for stdin)"
    )
    check_cmd.add_argument(
        "--format",
        default="text",
        choices=("text", "json", "sarif"),
        help="output format (default: text)",
    )
    check_cmd.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include rule text and fix hints in text output",
    )
    check_cmd.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help="override a code's severity (repeatable), "
        "e.g. --severity cost-blowup=error",
    )
    check_cmd.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a diagnostic code (repeatable)",
    )
    check_cmd.add_argument(
        "--fail-on",
        default="error",
        choices=("none", "info", "warning", "error"),
        help="mildest severity that fails the run (default: error)",
    )
    check_cmd.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        metavar="PATTERN",
        help="entry-point query seeding the binding-mode analysis "
        "(repeatable); defaults to all output predicates, all-free",
    )

    explain_cmd = commands.add_parser(
        "explain",
        help="explain a query: derivation, why-not witness, assumptions",
    )
    explain_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")
    explain_cmd.add_argument("premise", help="query text")
    explain_cmd.add_argument("-d", "--db", help="database file")
    explain_mode = explain_cmd.add_mutually_exclusive_group()
    explain_mode.add_argument(
        "--why",
        action="store_true",
        help="replay a proof from recorded provenance edges (no "
        "re-search) and certify it with the independent verifier; "
        "exit 1 when the query is not derivable",
    )
    explain_mode.add_argument(
        "--why-not",
        dest="why_not",
        action="store_true",
        help="print a failure witness for an underivable query (the "
        "first unsupported premise per candidate rule); exit 1 when "
        "the query actually holds",
    )
    explain_mode.add_argument(
        "--assumptions",
        action="store_true",
        help="report the hypothetical [add: ...] facts the derivation "
        "actually used; exit 1 when the query is not derivable",
    )
    explain_mode.add_argument(
        "--show-rewrite",
        dest="show_rewrite",
        action="store_true",
        help="print the query's adorned/demand-rewritten program "
        "instead of a derivation (docs/DEMAND.md); exit 1 when the "
        "rewrite rejects the query",
    )
    explain_mode.add_argument(
        "--plan",
        dest="show_plan",
        action="store_true",
        help="print the generated join-kernel source for the rules "
        "defining the query's predicate (docs/PERFORMANCE.md); exit 1 "
        "when no rule compiles",
    )
    explain_cmd.add_argument(
        "--demand",
        default="off",
        choices=("auto", "on", "off"),
        help="evaluation mode for the recording engine behind "
        "--why/--assumptions, consistent with 'query' "
        "(docs/DEMAND.md)",
    )
    _budget_arguments(explain_cmd)

    graph_cmd = commands.add_parser(
        "graph", help="emit the predicate dependency graph as Graphviz DOT"
    )
    graph_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")

    repl_cmd = commands.add_parser("repl", help="interactive console")
    repl_cmd.add_argument("rules", nargs="?", help="rulebase file to preload")
    repl_cmd.add_argument("-d", "--db", help="database file to preload")

    serve_cmd = commands.add_parser(
        "serve",
        help="serve hypothetical queries over the JSON-lines protocol "
        "(docs/SERVER.md)",
    )
    serve_cmd.add_argument("rules", help="rulebase file ('-' for stdin)")
    serve_cmd.add_argument("-d", "--db", help="base database file (shared, read-only)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=7878, help="0 picks an ephemeral port"
    )
    serve_cmd.add_argument(
        "-e", "--engine", default="auto", choices=("auto", "prove", "topdown", "model"),
        help="default engine for sessions that don't choose one",
    )
    serve_cmd.add_argument(
        "--demand", default="off", choices=("auto", "on", "off"),
        help="default demand mode for sessions (docs/DEMAND.md)",
    )
    _compile_argument(serve_cmd)
    robustness = serve_cmd.add_argument_group(
        "robustness limits (docs/SERVER.md)"
    )
    robustness.add_argument(
        "--max-connections", type=int, default=256,
        help="simultaneous connections before fast 'overloaded' rejection",
    )
    robustness.add_argument(
        "--max-pending", type=int, default=64,
        help="admission gate: evaluating requests in flight server-wide",
    )
    robustness.add_argument(
        "--eval-concurrency", type=int, default=4,
        help="worker threads evaluating concurrently",
    )
    robustness.add_argument(
        "--max-frame-bytes", type=int, default=1 << 20,
        help="longest accepted request line",
    )
    robustness.add_argument(
        "--max-rps", type=float, default=0.0, metavar="N",
        help="per-connection requests/second (0 = unlimited)",
    )
    robustness.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace period for in-flight requests on shutdown",
    )
    ceilings = serve_cmd.add_argument_group(
        "per-request budget ceilings (clients may tighten, never loosen; "
        "exceeded budgets return code 'exhausted' with partial results)"
    )
    ceilings.add_argument(
        "--max-budget-timeout", type=float, default=30.0, metavar="SECONDS",
        help="wall-clock ceiling per request (0 = unlimited)",
    )
    ceilings.add_argument(
        "--max-budget-steps", type=int, default=0, metavar="N",
        help="inference-step ceiling per request (0 = unlimited)",
    )
    ceilings.add_argument(
        "--max-budget-atoms", type=int, default=0, metavar="N",
        help="derived-atom ceiling per request (0 = unlimited)",
    )
    ceilings.add_argument(
        "--max-budget-depth", type=int, default=0, metavar="N",
        help="proof-depth ceiling per request (0 = unlimited)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Errors from the :class:`HypotheticalDatalogError` hierarchy map to
    stable codes (parse/validation 2, stratification 3, evaluation 4,
    budget exhausted 5) and are rendered through the diagnostics
    formatter rather than as raw tracebacks.
    """
    options = _build_parser().parse_args(argv)
    try:
        return _dispatch(options)
    except ResourceExhausted as error:
        _print_partial(error)
        _print_error(error, "resource-exhausted")
        print(f"partial results: {error.partial.describe()}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (ParseError, ValidationError) as error:
        _print_error(
            error,
            "parse-error" if isinstance(error, ParseError) else "invalid-program",
        )
        return EXIT_PARSE
    except StratificationError as error:
        _print_error(error, "stratification-error")
        return EXIT_STRATIFICATION
    except HypotheticalDatalogError as error:
        _print_error(error, "evaluation-error")
        return EXIT_EVALUATION
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE


def _print_error(error: Exception, code: str) -> None:
    """Render one fatal error in the diagnostics formatter's shape
    (``location: severity[code] message``)."""
    from .analysis.diagnostics import Diagnostic, render_text
    from .core.spans import Span

    span = getattr(error, "span", None)
    if span is None and getattr(error, "line", None) is not None:
        span = Span(error.line, error.column or 1)
    diag = Diagnostic(code=code, message=str(error), severity="error", span=span)
    print(render_text([diag]), file=sys.stderr)


def _print_partial(error: ResourceExhausted) -> None:
    """Print whatever an exhausted query had already established."""
    partial = error.partial
    if partial.answers:
        for row in sorted(partial.answers, key=str):
            if isinstance(row, tuple):
                print(", ".join(str(value) for value in row))
            else:
                print(row)


def _dispatch(options: argparse.Namespace) -> int:
    if options.command == "repl":
        from .repl import run

        rulebase = (
            parse_program(_read(options.rules)) if options.rules else None
        )
        return run(rulebase, _load_db(options.db))
    if options.command == "check":
        return _run_check(options)
    label = "<stdin>" if options.rules == "-" else options.rules
    rulebase = parse_program(_read(options.rules), label)
    if options.command == "classify":
        report = classify(rulebase)
        print(report)
        for note in report.notes:
            print(f"  note: {note}")
        return 0
    if options.command == "stratify":
        print(format_stratification(linear_stratification(rulebase)))
        return 0
    if options.command == "query":
        tracer, metrics = _trace_targets(options)
        session = Session(
            rulebase,
            options.engine,
            metrics=metrics,
            tracer=tracer,
            demand=options.demand,
            compile=options.compile,
        )
        db = _load_db(options.db)
        budget = _budget_from(options)
        result = session.ask(db, options.premise, budget=budget)
        _write_trace_out(options, tracer, metrics)
        print("yes" if result else "no")
        if options.explain:
            _query_explanation(session, rulebase, db, options, result, budget)
        return 0 if result else 1
    if options.command == "answers":
        tracer, metrics = _trace_targets(options)
        session = Session(
            rulebase,
            options.engine,
            metrics=metrics,
            tracer=tracer,
            demand=options.demand,
            compile=options.compile,
        )
        rows = session.answers(
            _load_db(options.db), options.pattern, budget=_budget_from(options)
        )
        _write_trace_out(options, tracer, metrics)
        for row in sorted(rows, key=str):
            print(", ".join(str(value) for value in row))
        return 0
    if options.command == "model":
        tracer, metrics = _trace_targets(options)
        engine = PerfectModelEngine(
            rulebase, metrics=metrics, tracer=tracer, compile=options.compile
        )
        model = engine.model(_load_db(options.db), budget=_budget_from(options))
        _write_trace_out(options, tracer, metrics)
        print(format_database(Database(model)))
        return 0
    if options.command == "profile":
        return _run_profile(options, rulebase)
    if options.command == "graph":
        from .analysis.depgraph import DependencyGraph

        print(DependencyGraph.from_rulebase(rulebase).to_dot())
        return 0
    if options.command == "explain":
        return _run_explain(options, rulebase)
    if options.command == "serve":
        return _run_serve(options, rulebase)
    raise AssertionError(f"unhandled command {options.command!r}")


def _run_serve(options: argparse.Namespace, rulebase) -> int:
    """The ``serve`` command (docs/SERVER.md).

    Startup failures use the standard exit-code ladder (bad rulebase:
    2/3, bind failure: 2 via OSError).  Once listening, SIGTERM/SIGINT
    trigger a graceful drain; exit 0 when every in-flight request
    finished inside ``--drain-timeout``, 1 when stragglers had to be
    cancelled (they still received ``exhausted`` responses).
    """
    import asyncio
    import signal

    from .server.server import HypoDatalogServer, ServerConfig
    from .server.sessions import SharedRulebase

    shared = SharedRulebase(
        rulebase,
        _load_db(options.db),
        engine=options.engine,
        demand=options.demand,
        compile=options.compile,
    )
    config = ServerConfig(
        host=options.host,
        port=options.port,
        max_connections=options.max_connections,
        max_pending=options.max_pending,
        eval_concurrency=options.eval_concurrency,
        max_frame_bytes=options.max_frame_bytes,
        max_requests_per_second=options.max_rps,
        drain_timeout=options.drain_timeout,
        max_timeout=options.max_budget_timeout or None,
        max_steps=options.max_budget_steps or None,
        max_atoms=options.max_budget_atoms or None,
        max_depth=options.max_budget_depth or None,
    )

    async def amain() -> int:
        server = HypoDatalogServer(shared, config)
        await server.start()
        host, port = server.address
        print(f"listening on {host}:{port}", flush=True)
        print(
            f"rulebase: {shared.describe()['rules']} rules, "
            f"{shared.describe()['facts']} base facts, "
            f"engine={shared.engine_name}",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        drain: dict[str, bool] = {}

        def _request_shutdown() -> None:
            if not drain:
                drain["requested"] = True
                loop.create_task(server.shutdown())

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without signal support: Ctrl-C raises
        await server.serve_until_shutdown()
        clean = not server.metrics.counter("server.drain.cancelled").value
        print(
            "drained cleanly" if clean else "drain timeout: stragglers cancelled",
            file=sys.stderr,
        )
        return 0 if clean else 1

    return asyncio.run(amain())


def _provenance_session(options: argparse.Namespace, rulebase):
    """A recording bottom-up session for ``explain``'s provenance
    modes, or ``None`` when the rulebase is outside the bottom-up
    engine's fragment (e.g. hypothetical deletions)."""
    try:
        return Session(
            rulebase, "model", demand=options.demand, provenance=True
        )
    except EvaluationError as error:
        print(f"note: {error}", file=sys.stderr)
        return None


def _run_plan(options: argparse.Namespace, rulebase) -> int:
    """``explain --plan``: generated kernel source for the rules
    defining the query's predicate.  Mirrors what the engines execute
    with compilation on (default order, full fire; semi-naive variants
    differ only in which premise reads the delta)."""
    from .core.parser import parse_premise
    from .engine.kernels import KernelProgram

    premise = parse_premise(options.premise)
    goal = getattr(premise, "atom", premise)
    rules = list(rulebase.definition(goal.predicate))
    if not rules:
        print(f"no rules define {goal.predicate!r}")
        return 1
    program = KernelProgram()
    shown = 0
    for item in rules:
        print(f"-- {item}")
        source = program.preview(item)
        if source is None:
            print("   (not compilable: interpreted fallback)")
        else:
            print(source)
            shown += 1
    return 0 if shown else 1


def _run_explain(options: argparse.Namespace, rulebase) -> int:
    if options.show_plan:
        return _run_plan(options, rulebase)
    if options.show_rewrite:
        from .analysis.magic import format_rewrite, magic_rewrite

        result = magic_rewrite(rulebase, options.premise)
        print(format_rewrite(result))
        return 0 if result.ok else 1
    db = _load_db(options.db)
    budget = _budget_from(options)
    if options.why or options.assumptions:
        session = _provenance_session(options, rulebase)
        if options.assumptions:
            if session is None:
                print("error: --assumptions needs the bottom-up engine")
                return EXIT_EVALUATION
            from .obs.provenance import format_assumptions

            assumed = session.assumptions(db, options.premise, budget=budget)
            print(format_assumptions(assumed))
            return 0 if assumed is not None else 1
        if session is not None:
            from .engine.proofs import format_proof, verify_proof

            proof = session.why(db, options.premise, budget=budget)
            if proof is None:
                print("not provable")
                return 1
            if not verify_proof(rulebase, proof):
                print("error: replayed proof failed verification")
                return EXIT_EVALUATION
            print(format_proof(proof))
            return 0
        # Without the bottom-up engine, --why degrades to the top-down
        # proof search below.
    elif options.why_not:
        from .obs.provenance import format_why_not

        session = _provenance_session(options, rulebase)
        if session is None:
            print("error: --why-not needs the bottom-up engine")
            return EXIT_EVALUATION
        report = session.why_not(db, options.premise, budget=budget)
        print(format_why_not(report))
        return 0 if report.kind != "holds" else 1
    from .engine.proofs import format_proof

    proof = Session(rulebase, "topdown", budget=budget).explain(
        db, options.premise
    )
    if proof is None:
        print("not provable")
        return 1
    print(format_proof(proof))
    return 0


def _query_explanation(
    session: Session,
    rulebase,
    db: Database,
    options: argparse.Namespace,
    result: bool,
    budget,
) -> None:
    """``query --explain``: a derivation after a yes, a why-not
    witness after a no.  Best-effort — explanation failures never
    change the query's exit status."""
    try:
        if result:
            from .engine.proofs import format_proof

            try:
                proof = session.why(db, options.premise, budget=budget)
            except EvaluationError:
                proof = None  # e.g. deletions: replay unavailable
            if proof is None:
                proof = session.explain(db, options.premise, budget=budget)
            if proof is not None:
                print(format_proof(proof))
        else:
            from .obs.provenance import format_why_not

            report = session.why_not(db, options.premise, budget=budget)
            print(format_why_not(report))
    except EvaluationError as error:
        print(f"note: no explanation available: {error}", file=sys.stderr)


def _trace_targets(options: argparse.Namespace):
    """A (tracer, metrics) pair: live when ``--trace-out`` was given,
    the no-op tracer (and no registry) otherwise, so untraced runs pay
    nothing."""
    if getattr(options, "trace_out", None):
        from .obs.metrics import MetricsRegistry
        from .obs.trace import Tracer

        return Tracer(), MetricsRegistry()
    return None, None


def _write_trace_out(options: argparse.Namespace, tracer, metrics) -> None:
    if tracer is None:
        return
    from .obs.export import write_chrome_trace

    tracer.finish()
    write_chrome_trace(options.trace_out, tracer.root, metrics=metrics)
    print(f"trace written to {options.trace_out}", file=sys.stderr)


def _run_profile(options: argparse.Namespace, rulebase) -> int:
    """The ``profile`` command: one traced query, three outputs.

    Always prints the human report (span tree + metrics table);
    ``--trace-out`` adds a Chrome trace_event file and ``--jsonl-out``
    a JSON-lines trace.  Exit status is 0 whenever evaluation
    succeeded — a "no" answer is still a successful profile.
    """
    from .obs.export import to_jsonl, write_chrome_trace
    from .obs.profile import profile_query

    report = profile_query(
        rulebase,
        _load_db(options.db),
        options.query,
        engine=options.engine,
        budget=_budget_from(options),
    )
    print(
        report.render(
            max_depth=options.max_depth, timings=not options.no_timings
        )
    )
    if options.trace_out:
        write_chrome_trace(options.trace_out, report.root, metrics=report.metrics)
        print(f"trace written to {options.trace_out}", file=sys.stderr)
    if options.jsonl_out:
        with open(options.jsonl_out, "w", encoding="utf-8") as handle:
            handle.write(to_jsonl(report.root, metrics=report.metrics))
        print(f"trace written to {options.jsonl_out}", file=sys.stderr)
    return 0


def _run_check(options: argparse.Namespace) -> int:
    """The ``check`` command: diagnostics over one or more rule files.

    Exit status: 0 when no surviving diagnostic reaches ``--fail-on``,
    1 when one does, 2 on usage errors (bad code names, unreadable
    files).  Parse failures are diagnostics, not crashes, so a broken
    file fails the gate rather than aborting the run.
    """
    from .analysis.diagnostics import (
        DiagnosticConfig,
        check_source,
        render_text,
        severity_rank,
        to_json,
        to_sarif,
        worst_severity,
    )

    overrides: dict[str, str] = {}
    for pair in options.severity:
        code, _, level = pair.partition("=")
        if not level:
            print(
                f"error: --severity needs CODE=LEVEL, got {pair!r}",
                file=sys.stderr,
            )
            return 2
        overrides[code] = level
    try:
        config = DiagnosticConfig(
            severities=overrides,
            disabled=frozenset(options.disable),
            fail_on="error" if options.fail_on == "none" else options.fail_on,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    diagnostics = []
    for path in options.rules:
        label = "<stdin>" if path == "-" else path
        _, found = check_source(
            _read(path), label, config, queries=options.query
        )
        diagnostics.extend(found)

    if options.format == "json":
        print(to_json(diagnostics))
    elif options.format == "sarif":
        print(to_sarif(diagnostics))
    else:
        print(render_text(diagnostics, verbose=options.verbose))

    if options.fail_on == "none":
        return 0
    gate = severity_rank(options.fail_on)
    worst = worst_severity(diagnostics)
    return 1 if worst != "none" and severity_rank(worst) >= gate else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
