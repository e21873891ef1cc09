"""``lattice``: the bottom-up engine on Theorem 1's hard queries.

One caller keeps a long-lived ``Session(rulebase, engine="model")`` per
rulebase and drives it through a list of distinct instances: Example
7 (Hamiltonian path) on graphs of 6-8 nodes and Example 6 (relation
parity) on 5-7 rows.  The shapes are fixed; the seed names the nodes
and rows.  Each instance is one read (``ask``) and one write: a
standing query on the same goal is brought up to date after one fact
is added or removed, which the engine answers by seeding from, or
deletion-propagating over, its cached models.
Answering builds one model per hypothetical database, so the engine,
its generated kernels and the lattice reuse do nearly all the work;
parsing and analysis happen in set-up.

The sessions are never reset and ``max_databases`` keeps its default,
as for a shipped caller: ``model.cached_databases`` reports how close
the run came to the engine's lifetime cap.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass

from common import (
    RULEBASES,
    Result,
    Samples,
    Spans,
    median,
    peak_rss_mb,
    ratio,
    trace_layers,
    untraced_read_p50,
    OUT,
)
from oracles import has_hamiltonian_path, is_even

#: One round, in this order: the cheap ``par 5``, ``par 6`` and
#: ``ham 6``, then ``par 7``, three ``ham 7`` and four dear ``ham 8``.
#: Both medians then fall in the middle of the ``ham 7`` latencies,
#: which spread with graph density (a ``par 7`` read costs about as
#: much as a cheap ``ham 7``, a ``par 7`` write as a ``ham 6``).  A
#: median on a kind of one fixed cost, such as a parity size, would
#: jump between that kind's fast and slow value as the host's speed
#: swings.
KINDS = (
    ("ham", 6), ("ham", 8), ("par", 5), ("ham", 7), ("ham", 8), ("par", 6),
    ("ham", 7), ("ham", 8), ("par", 7), ("ham", 7), ("ham", 8),
)
GOALS = {"ham": "yes", "par": "even"}
FILES = {"ham": "hamiltonian.dl", "par": "parity.dl"}
ROUNDS_PER_SECOND = 0.52
READ_PERCENT = 90
WRITE_PERCENT = 90
SETUPS = 11
ROW_POOL = 40
SHAPE_SEED = "lattice-shapes"


@dataclass(frozen=True)
class Instance:
    """One generated database, the fact that changes it, and the
    expected answers before and after the change."""

    kind: str
    relations: tuple
    change: tuple  # ("add" | "del", predicate, args)
    before: bool
    after: bool


def _graph(shapes: random.Random, rng: random.Random, n: int, seen: set) -> Instance:
    """A graph and the edge that changes it drawn from ``shapes``, its
    nodes named by ``rng``."""
    density = shapes.uniform(0.2, 0.5)
    arcs = [(a, b) for a in range(n) for b in range(n) if a != b and shapes.random() < density]
    deleting = has_hamiltonian_path(range(n), arcs)
    absent = [(a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in arcs]
    arc = shapes.choice(arcs if deleting else absent)
    nodes = tuple(f"v{index}" for index in range(n))
    while True:
        names = rng.sample(nodes, n)
        edges = tuple(sorted((names[a], names[b]) for a, b in arcs))
        edge = (names[arc[0]], names[arc[1]])
        if deleting:
            changed = tuple(e for e in edges if e != edge)
        else:
            changed = tuple(sorted(edges + (edge,)))
        if not {(n, edges), (n, changed)} & seen:
            seen.update({(n, edges), (n, changed)})
            break
    change = ("del" if deleting else "add", "edge", edge)
    return Instance(
        "ham",
        (("node", nodes), ("edge", edges)),
        change,
        has_hamiltonian_path(nodes, edges),
        has_hamiltonian_path(nodes, changed),
    )


def _rows(shapes: random.Random, rng: random.Random, n: int, seen: set) -> Instance:
    """``n`` rows named by ``rng``; whether a row is added or removed
    is drawn from ``shapes``."""
    adding = shapes.random() < 0.5
    while True:
        rows = tuple(sorted(f"r{index}" for index in rng.sample(range(ROW_POOL), n)))
        if adding:
            row = rng.choice([f"r{i}" for i in range(ROW_POOL) if f"r{i}" not in rows])
            changed = tuple(sorted(rows + (row,)))
        else:
            row = rng.choice(rows)
            changed = tuple(r for r in rows if r != row)
        if not {rows, changed} & seen:
            seen.update({rows, changed})
            break
    change = ("add" if adding else "del", "a", (row,))
    return Instance("par", (("a", rows),), change, is_even(rows), is_even(changed))


def plan(seed: int, seconds: int) -> tuple[list[Instance], list[Instance]]:
    """Warm-up instances and the timed instance list for a seed.

    The shapes (graph structure, row count, which fact changes) come
    from ``SHAPE_SEED``; the seed names the nodes and rows.  Every seed
    so runs the same lattice sizes in the same order, and the medians
    move with the program and the host, not with how many dense graphs
    a seed drew.  No instance, before or after its change, repeats a
    database of another, so no read is a cache hit by chance.
    """
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(f"lattice-{seed}")
    seen: set = set()
    make = {"ham": _graph, "par": _rows}
    warmups = [make["ham"](shapes, rng, 6, seen), make["par"](shapes, rng, 5, seen)]
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    timed = [make[kind](shapes, rng, n, seen) for _ in range(rounds) for kind, n in KINDS]
    return warmups, timed


def _databases(instance: Instance):
    from repro.core.database import Database
    from repro.core.terms import atom

    db = Database.from_relations({name: list(rows) for name, rows in instance.relations})
    mode, predicate, args = instance.change
    fact = atom(predicate, *args)
    changed = db.with_facts(fact) if mode == "add" else db.without_facts(fact)
    return db, changed


def _expected_diff(instance: Instance) -> tuple:
    """``(added, removed)`` of the goal's answer set across the change."""
    before = {()} if instance.before else set()
    after = {()} if instance.after else set()
    return (after - before, before - after)


def _setup(texts: dict, warmups: list, registry, spans: Spans):
    from repro.core.parser import parse_program
    from repro.engine.query import Session

    sessions = {}
    for kind, text in texts.items():
        rulebase = spans.timed("parser", "parse_program", lambda: parse_program(text))
        sessions[kind] = spans.timed(
            "session",
            "Session",
            lambda: Session(rulebase, engine="model", metrics=registry),
        )
    for instance in warmups:
        db, _ = _databases(instance)
        if sessions[instance.kind].ask(db, GOALS[instance.kind]) != instance.before:
            return sessions, False
    return sessions, True


def run(seed: int, seconds: int, traced: bool) -> Result:
    from repro.engine.model import PerfectModelEngine
    from repro.obs.metrics import MetricsRegistry

    warmups, timed = plan(seed, seconds)
    texts = {kind: (RULEBASES / name).read_text() for kind, name in FILES.items()}
    prepared = [(instance, *_databases(instance), _expected_diff(instance)) for instance in timed]
    spans = Spans(traced)
    reads = Samples("instances read", READ_PERCENT)
    writes = Samples("instances changed", WRITE_PERCENT)
    setup_times = []
    setup_failures = 0
    for _ in range(SETUPS):
        registry = MetricsRegistry()
        started = time.perf_counter()
        sessions, ok = _setup(texts, warmups, registry, spans)
        setup_times.append(time.perf_counter() - started)
        setup_failures += not ok

    answers = []
    with spans.span("phase", "timed"):
        phase_start = time.perf_counter()
        for instance, db, changed, (added, removed) in prepared:
            session = sessions[instance.kind]
            goal = GOALS[instance.kind]
            started = time.perf_counter()
            try:
                with spans.span("model", "ask"):
                    answer = session.ask(db, goal)
            except Exception as error:  # a failed request is counted, not fatal
                answer = repr(error)
            elapsed = time.perf_counter() - started
            answers.append(answer)
            reads.add(elapsed, answer == instance.before)
            started = time.perf_counter()
            try:
                with spans.span("model", "refresh"):
                    watch = session.watch(goal)
                    watch.refresh(db)
                    diff = watch.refresh(changed)
                got = (set(diff.added), set(diff.removed))
            except Exception as error:
                got = repr(error)
            elapsed = time.perf_counter() - started
            answers.append(got)
            writes.add(elapsed, got == (added, removed))
        phase_s = time.perf_counter() - phase_start

    result = Result(
        reads=reads,
        writes=writes,
        phase_s=phase_s,
        setup_s=setup_times,
        peak_rss_mb=peak_rss_mb(),
        extra_failures=setup_failures,
        answers=answers,
    )
    cached = sum(session.engine.cached_databases for session in sessions.values())
    cap = inspect.signature(PerfectModelEngine).parameters["max_databases"].default
    result.notes.append(
        f"model.cached_databases = {cached} at run end, beside peak_rss_mb "
        f"(each engine fails once it holds max_databases = {cap})"
    )
    if traced:
        result.layers = _layers(seed, seconds, texts, spans, registry, cached, result)
    return result


def _layers(seed, seconds, texts, spans, registry, cached, result) -> dict:
    """Per-layer numbers of a traced run: public analysis calls on the
    two rulebases, the engines' counters, and the layer spans."""
    from analysis_calls import analysis_layers, engine_counters

    layers = analysis_layers(
        spans,
        {kind: (text, [GOALS[kind]]) for kind, text in texts.items()},
        facts=[],
    )
    layers.update(engine_counters(registry.snapshot()))
    ask_ms = [
        node.duration_ns / 1e6
        for phase in spans.tracer.root.children
        if phase.is_span and phase.kind == "phase"
        for node in phase.children
        if node.is_span and node.kind == "model"
    ]
    layers["model.ask_p50_ms"] = median(ask_ms)
    layers["model.ask_total_ms"] = sum(ask_ms)
    layers["model.cached_databases"] = cached
    layers["session.build_ms"] = median(spans.durations.get("Session", []))
    untraced = untraced_read_p50("lattice", seed, seconds)
    layers["obs.trace_overhead_ratio"] = ratio(
        result.reads.p50(result.phase_s * 1e3), untraced
    )
    layers.update(
        trace_layers(spans, OUT / f"lattice-seed{seed}-trace.json", registry)
    )
    return layers
