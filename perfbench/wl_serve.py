"""``serve``: ``hypodatalog serve`` with reads beside standing-query writes.

The server runs the Example 1/2 graduation policy, with ``within_one``
guarded by ``course(C)``, over a few hundred generated students, on
its default engine (PROVE here).  One benchmark thread drives two
connections in a fixed interleaving, one request outstanding at a
time (closed loop):

* connection A reads on its default session: ``grad(s)``, an
  ``[add:]`` what-if, an ``assume`` what-if, ``within_one(s)`` and
  ``answers grad(S)``;
* connection B opens a ``{"engine": "model", "demand": "on"}`` session
  (with demand off the full model grounds ``within_one`` for every
  student), subscribes to ``grad(S)``, then asserts and retracts
  ``take`` facts.  Each write is sent together with a ``ping``: the
  server answers the write, pushes the watch diff, then answers the
  ping, so a write is timed until its ping returns.

Set-up (spawn to ``listening on``, both connections open, B
subscribed) repeats on fresh servers and reports the median; the last
server serves the timed phase, then drains on SIGTERM and must exit 0.
A traced run replays the same script in-process through
``SharedRulebase``/``ClientSession`` to split each round trip into
engine time and server/wire time.  It also measures the interpreter
and ``repro.cli`` layer that every server start pays: a bare
interpreter, ``import repro.cli``, and in-process ``repro.cli.main``
on one-shot commands.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    OUT,
    REPLY_TIMEOUT_S,
    RULEBASES,
    BenchError,
    LineReader,
    Result,
    Samples,
    Spans,
    child_env,
    median,
    peak_rss_mb,
    ratio,
    stop,
    trace_layers,
    untraced_read_p50,
    work_dir,
)
from oracles import REQUIRED, graduates, within_one

#: Enough that the timed phase lasts about as long as ``--seconds``
#: while each kind of request stays under 1000 samples.
STUDENTS = 300
#: Required courses each student holds, in turn, so every seed starts
#: from the same number of facts and graduates.
HELD = (0, 1, 2, 2, 3, 3)
REQUIRED_SET = frozenset(REQUIRED)
ELECTIVES = ("mat110", "phy120", "art130", "bio140")
RULES = (
    "grad(S) :- take(S, his101), take(S, eng201), take(S, cs250).\n"
    "within_one(S) :- student(S), course(C), grad(S)[add: take(S, C)].\n"
)
#: 188 rounds at the default 25 seconds: 940 reads and 940 writes.
#: Below 1000 samples the tail rule picks p95, which sits where the
#: read latencies are still dense; their p99 falls among a few cold
#: ``within_one`` searches and collector pauses and jumps run to run.
ROUNDS_PER_SECOND = 7.5
READ_PERCENT = 95
WRITE_PERCENT = 95
SETUPS = 5
#: ``within_one`` asks round-robin about this many students, so after
#: the first pass its searches are warm and reads fall into three
#: dense groups: plain (``grad``), warm (``within_one``, ``answers``)
#: and cold what-ifs.  Both percentiles then land inside a group.
WITHIN_POOL = 12
#: Launches of a bare interpreter and of ``import repro.cli`` each,
#: alternated, in a traced run.
LAUNCHES = 7
SESSION = {"op": "session.open", "session": "w", "engine": "model", "demand": "on"}
SUBSCRIBE = {"op": "subscribe", "session": "w", "pattern": "grad(S)", "watch": "g"}


@dataclass(frozen=True)
class Step:
    """One request: the connection, the frame, what must come back."""

    conn: str  # "A" reads, "B" writes
    frame: dict
    expect: object  # reads: the result dict; writes: (result, event diff)


def plan(seed: int, seconds: int):
    """The database text, the initial ``grad(S)`` rows and the request
    script: per round, five reads on A, each followed by a write on B."""
    rng = random.Random(f"serve-{seed}")
    taken = {}
    for index in range(STUDENTS):
        count = HELD[index % len(HELD)]
        taken[f"s{index}"] = set(rng.sample(REQUIRED, count)) | set(
            rng.sample(ELECTIVES, index % 3)
        )
    lines = [f"course({course})." for course in REQUIRED + ELECTIVES]
    for student, have in taken.items():
        lines.append(f"student({student}).")
        lines.extend(f"take({student}, {course})." for course in sorted(have))
    students = sorted(taken)
    grads = sorted([[s] for s in students if graduates(taken[s])], key=str)
    pool = [
        student
        for held in range(len(HELD))
        for student in rng.sample(
            [f"s{index}" for index in range(held, STUDENTS, len(HELD))],
            WITHIN_POOL // len(HELD),
        )
    ]
    view = {student: set(have) for student, have in taken.items()}

    def plain(_):
        student = rng.choice(students)
        return {"query": f"grad({student})"}, graduates(taken[student])

    def what_if(_, assume=False):
        student = rng.choice(students)
        missing = [course for course in REQUIRED if course not in taken[student]]
        course = rng.choice(missing) if missing else rng.choice(ELECTIVES)
        fact = f"take({student}, {course})"
        frame = (
            {"query": f"grad({student})", "assume": [fact]}
            if assume
            else {"query": f"grad({student})[add: {fact}]"}
        )
        return frame, graduates(taken[student] | {course})

    def within(round_index):
        student = pool[round_index % WITHIN_POOL]
        return {"query": f"within_one({student})"}, within_one(taken[student])

    def write():
        # Two one-fact asserts, then a two-fact retract: every seed makes
        # the same mix, the view keeps its size, and the write median
        # falls inside the asserts' latencies rather than in the gap
        # between them and the dearer retracts, where it would jump.
        if next(written) % 3 < 2:
            op, result = "assert", {"added": 1, "session": "w"}
            student = rng.choice([s for s in students if not REQUIRED_SET <= view[s]])
            courses = [rng.choice([c for c in REQUIRED if c not in view[student]])]
        else:
            op, result = "retract", {"removed": 2, "session": "w"}
            student = rng.choice([s for s in students if len(REQUIRED_SET & view[s]) >= 2])
            courses = rng.sample(sorted(REQUIRED_SET & view[student]), 2)
        before = graduates(view[student])
        if op == "assert":
            view[student].update(courses)
        else:
            view[student].difference_update(courses)
        diff = None
        if graduates(view[student]) != before:
            diff = ([], [[student]]) if before else ([[student]], [])
        facts = [f"take({student}, {course})" for course in courses]
        return Step("B", {"op": op, "session": "w", "facts": facts}, (result, diff))

    written = itertools.count()
    reads = (plain, what_if, lambda index: what_if(index, assume=True), within)
    steps = []
    for round_index in range(max(1, round(seconds * ROUNDS_PER_SECOND))):
        for read in reads:
            frame, answer = read(round_index)
            steps.append(Step("A", {"op": "query", **frame}, {"answer": answer}))
            steps.append(write())
        steps.append(Step("A", {"op": "answers", "pattern": "grad(S)"}, {"rows": grads}))
        steps.append(write())
    return "\n".join(lines) + "\n", grads, steps


class Connection:
    """One client connection: JSON lines out, JSON lines back."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = LineReader(self.sock.fileno())
        self.next_id = 0
        self.received: list[bytes] = []

    def send(self, *frames: dict) -> list[int]:
        ids, data = [], b""
        for frame in frames:
            self.next_id += 1
            ids.append(self.next_id)
            data += json.dumps({"v": 1, "id": self.next_id, **frame}).encode() + b"\n"
        self.sock.sendall(data)
        return ids

    def until(self, request_id: int) -> list[dict]:
        """Frames read up to and including the response to an id."""
        frames = []
        while True:
            line = self.reader.readline()
            self.received.append(line)
            frame = json.loads(line)
            frames.append(frame)
            if frame.get("id") == request_id and "ok" in frame:
                return frames

    def close(self) -> None:
        self.sock.close()


class Server:
    """One ``python -m repro.cli serve`` process."""

    def __init__(self, rules_path, db_path, log_path) -> None:
        self.log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(rules_path),
             "-d", str(db_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(),
        )
        try:
            line = LineReader(self.process.stdout.fileno()).readline().decode()
            if not line.startswith("listening on "):
                raise BenchError(f"server printed {line!r}")
        except BenchError:
            self.close()
            raise
        self.port = int(line.rsplit(":", 1)[1])

    def drain(self) -> bool:
        """SIGTERM, wait, and report whether it drained cleanly."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            code = None
        self.close()
        return code == 0

    def close(self) -> None:
        stop(self.process)
        self.process.stdout.close()
        self.log.close()


def _start(rules_path, db_path, log_path, initial):
    """Spawn a server, open both connections and subscribe B."""
    server = Server(rules_path, db_path, log_path)
    try:
        reader, writer = Connection(server.port), Connection(server.port)
        [opened] = writer.send(SESSION)
        ok = writer.until(opened)[-1].get("ok", False)
        [subscribed] = writer.send(SUBSCRIBE)
        reply = writer.until(subscribed)[-1]
        ok = ok and reply.get("ok") and reply["result"]["rows"] == initial
    except BaseException:
        server.close()
        raise
    return server, reader, writer, bool(ok)


def _events_match(events, diff) -> bool:
    """Watch events equal the expected ``(added, removed)`` diff, or
    none when the write changed no answer."""
    return [(event["added"], event["removed"]) for event in events] == (
        [] if diff is None else [diff]
    )


def _check_write(frames, expect) -> bool:
    result, diff = expect
    response, *events, pong = frames
    return (
        response.get("ok") is True
        and response["result"] == result
        and pong.get("ok") is True
        and _events_match(events, diff)
    )


def run(seed: int, seconds: int, traced: bool) -> Result:
    db_text, initial, steps = plan(seed, seconds)
    folder = work_dir("serve")
    rules_path, db_path = folder / "graduation.dl", folder / "students.dl"
    rules_path.write_text(RULES)
    db_path.write_text(db_text)
    spans = Spans(traced)
    reads = Samples("reads", READ_PERCENT)
    writes = Samples("writes (to the ping barrier)", WRITE_PERCENT)
    setup_times, extra_failures = [], 0
    answers, round_trips = [], {"A": [], "B": []}
    server = None
    try:
        for attempt in range(SETUPS):
            started = time.perf_counter()
            server, conn_a, conn_b, ok = _start(rules_path, db_path, folder / "server.log", initial)
            setup_times.append(time.perf_counter() - started)
            extra_failures += not ok
            if attempt < SETUPS - 1:
                conn_a.close()
                conn_b.close()
                extra_failures += not server.drain()
        conns = {"A": conn_a, "B": conn_b}
        with spans.span("phase", "timed"):
            phase_start = time.perf_counter()
            for step in steps:
                conn = conns[step.conn]
                started = time.perf_counter()
                try:
                    with spans.span("server", step.frame["op"]):
                        if step.conn == "A":
                            [request] = conn.send(step.frame)
                        else:
                            [_, request] = conn.send(step.frame, {"op": "ping"})
                        frames = conn.until(request)
                except BenchError:
                    frames = []
                elapsed = time.perf_counter() - started
                round_trips[step.conn].append(elapsed * 1e3)
                answers.append(frames)
                if step.conn == "A":
                    reads.add(elapsed, len(frames) == 1 and frames[0].get("ok") is True
                              and frames[0]["result"] == step.expect)
                else:
                    writes.add(elapsed, len(frames) >= 2 and _check_write(frames, step.expect))
            phase_s = time.perf_counter() - phase_start
        rss = peak_rss_mb(server.process.pid)
        received = conn_a.received + conn_b.received
        conn_a.close()
        conn_b.close()
        extra_failures += not server.drain()
        server = None
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(folder, ignore_errors=True)

    result = Result(
        reads=reads,
        writes=writes,
        phase_s=phase_s,
        setup_s=setup_times,
        peak_rss_mb=rss,
        extra_failures=extra_failures,
        answers=answers,
    )
    if traced:
        result.layers = _layers(seed, seconds, db_text, initial, steps, spans, result, round_trips, received)
    return result


def _replay(db_text, initial, steps, spans):
    """The same script in-process: engine time per request, and the
    engines' counters."""
    from repro.core.parser import parse_database, parse_program
    from repro.server.sessions import ClientSession, SharedRulebase

    engine_ms = {"A": [], "B": []}
    failures = 0
    with spans.span("phase", "replay"):
        rulebase = spans.timed("parser", "parse_program", lambda: parse_program(RULES))
        base = spans.timed("parser", "parse_database", lambda: parse_database(db_text))
        shared = spans.timed("session", "SharedRulebase", lambda: SharedRulebase(rulebase, base))
        reader = spans.timed("session", "ClientSession", lambda: ClientSession(shared, "default"))
        writer = spans.timed(
            "session", "ClientSession",
            lambda: ClientSession(shared, "w", engine="model", demand="on"),
        )
        _, rows = spans.timed("model", "watch", lambda: writer.watch("grad(S)", name="g"))
        failures += sorted([list(row) for row in rows], key=str) != initial
        for step in steps:
            frame = step.frame
            started = time.perf_counter()
            if step.conn == "A":
                with spans.span("prove", frame["op"]):
                    if frame["op"] == "answers":
                        rows = reader.answers(frame["pattern"])
                        got = {"rows": sorted([list(row) for row in rows], key=str)}
                    else:
                        got = {"answer": reader.ask(frame["query"], assume=frame.get("assume"))}
            else:
                with spans.span("model", frame["op"]):
                    if frame["op"] == "assert":
                        writer.assert_facts(frame["facts"])
                    else:
                        writer.retract_facts(frame["facts"])
                    events = writer.refresh_watches()
                got = step.expect if _events_match(events, step.expect[1]) else events
            engine_ms[step.conn].append((time.perf_counter() - started) * 1e3)
            failures += got != step.expect
    engine = writer._session.engine
    delegates = getattr(engine, "_demand_cache", {}).values()
    cached = engine.cached_databases + sum(
        entry.engine.cached_databases for entry in delegates if entry is not None
    )
    return engine_ms, failures, shared.metrics, cached


def _layers(seed, seconds, db_text, initial, steps, spans, result, round_trips, received):
    from analysis_calls import analysis_layers, engine_counters, merge_snapshots
    from repro.server import protocol

    engine_ms, failures, registry, cached = _replay(db_text, initial, steps, spans)
    result.extra_failures += failures
    queries = [
        step.frame.get("query", step.frame.get("pattern")) for step in steps[:10] if step.conn == "A"
    ]
    layers = analysis_layers(spans, {"graduation": (RULES, ["grad(S)"] + queries)}, [db_text])
    front, snapshots = _front_end(spans, db_text)
    layers.update(front)
    layers["cli.residual_ms"] = (
        median(result.setup_s) * 1e3 - front["cli.interp_start_ms"] - front["cli.import_ms"]
    )
    layers.update(engine_counters(merge_snapshots([registry.snapshot()] + snapshots)))
    layers["model.cached_databases"] = cached
    model_ms = engine_ms["B"]
    layers["model.ask_p50_ms"] = median(model_ms)
    layers["model.ask_total_ms"] = sum(model_ms)
    layers["session.build_ms"] = median(
        spans.durations["SharedRulebase"] + spans.durations["ClientSession"]
    )
    layers["server.read_engine_ms"] = median(engine_ms["A"])
    layers["server.write_engine_ms"] = median(engine_ms["B"])
    layers["server.read_overhead_ms"] = median(round_trips["A"]) - median(engine_ms["A"])
    layers["server.write_overhead_ms"] = median(round_trips["B"]) - median(engine_ms["B"])
    requests = [
        json.dumps({"v": 1, "id": index, **step.frame}).encode() for index, step in enumerate(steps)
    ]
    responses = [json.loads(line) for line in received]
    for line in requests:
        spans.timed("server", "decode_frame", lambda: protocol.decode_frame(line))
    for frame in responses:
        spans.timed("server", "encode_frame", lambda: protocol.encode_frame(frame))
    replies = [line for line, frame in zip(received, responses) if "ok" in frame]
    events = sum("event" in frame for frame in responses)
    write_count = sum(step.conn == "B" for step in steps)
    layers["server.decode_us"] = median(spans.durations["decode_frame"]) * 1e3
    layers["server.encode_us"] = median(spans.durations["encode_frame"]) * 1e3
    layers["server.bytes_per_response"] = statistics.fmean(len(line) for line in replies)
    layers["server.watch_events"] = events
    layers["server.events_per_write"] = ratio(events, write_count)
    layers["server.error_frames"] = sum(frame.get("ok") is False for frame in responses)
    untraced = untraced_read_p50("serve", seed, seconds)
    layers["obs.trace_overhead_ratio"] = ratio(result.reads.p50(result.phase_s * 1e3), untraced)
    layers.update(trace_layers(spans, OUT / f"serve-seed{seed}-trace.json", registry))
    return layers


def _front_end(spans, db_text) -> tuple[dict, list]:
    """The interpreter and ``repro.cli`` layer: bare interpreter and
    ``import repro.cli`` launches, alternated so both see the same host
    speed, then in-process ``repro.cli.main`` on one-shot commands over
    the workload's policy and database and over Example 3, which the
    top-down engine serves.  Returns the layer metrics and the
    commands' counter snapshots."""
    from repro.cli import main

    interp, imports = [], []
    for _ in range(LAUNCHES):
        for label, code, times in (("interp", "pass", interp), ("import", "import repro.cli", imports)):
            started = time.perf_counter()
            spans.timed("cli", label, lambda: subprocess.run(
                [sys.executable, "-c", code], env=child_env(), check=True, timeout=REPLY_TIMEOUT_S,
            ))
            times.append((time.perf_counter() - started) * 1e3)
    folder = work_dir("serve-cli")
    snapshots = []
    try:
        rules, db, degree = folder / "graduation.dl", folder / "students.dl", folder / "degree.dl"
        rules.write_text(RULES)
        db.write_text(db_text)
        degree.write_text("take(d0, alg1).\ntake(d0, mech1).\ntake(d1, anal1).\ntake(d1, em1).\n")
        commands = [
            ["query", str(rules), "-d", str(db), "grad(s0)"],
            ["answers", str(rules), "-d", str(db), "grad(S)"],
            ["answers", str(RULEBASES / "degree.dl"), "-d", str(degree), "grad(S, mathphys)"],
            ["check", str(rules)],
        ]
        trace_file = folder / "command-trace.json"
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                spans.timed("cli", "main", lambda: main(argv))
                if argv[0] != "check":
                    main(argv + ["--trace-out", str(trace_file)])
                    snapshots.append(json.loads(trace_file.read_text())["otherData"]["metrics"])
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    return {
        "cli.interp_start_ms": median(interp),
        "cli.import_ms": median(imports) - median(interp),
        "cli.main_ms": median(spans.durations["main"]),
    }, snapshots
