"""Scripted client session against a running server (CI smoke).

Drives one end-to-end conversation — control ops, session state,
what-ifs, budgets, a deliberately malformed frame, and the write path
of a bottom-up session with a standing query — and exits non-zero on
the first wrong response.  CI starts ``hypodatalog
serve`` against the graduation rulebase, runs this module, then sends
SIGTERM and asserts the clean-drain exit code (docs/SERVER.md):

    hypodatalog serve examples/rulebases/graduation.dl --port 7979 &
    python -m repro.server.smoke --port 7979
    kill -TERM %1; wait %1   # exit 0 = drained clean
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time

from .protocol import encode_frame

_TONY = [
    "take(tony, his101)",
    "take(tony, eng201)",
    "take(tony, cs250)",
]


def wait_for_port(host: str, port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection((host, port), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def run_session(host: str, port: int) -> list[str]:
    """The scripted conversation; returns a list of failure messages."""
    failures: list[str] = []
    sock = socket.create_connection((host, port), timeout=10.0)
    stream = sock.makefile("rwb")
    counter = 0

    def call(frame_bytes: bytes) -> dict:
        stream.write(frame_bytes)
        stream.flush()
        return read_frame()

    def read_frame() -> dict:
        line = stream.readline()
        if not line:
            raise OSError("server closed the connection")
        return json.loads(line)

    def step(name: str, op: str, check, **params) -> None:
        nonlocal counter
        counter += 1
        frame = {"v": 1, "id": counter, "op": op}
        frame.update(params)
        response = call(encode_frame(frame))
        problem = None
        if response.get("id") != counter:
            problem = f"id {response.get('id')!r} != {counter}"
        else:
            problem = check(response)
        if problem:
            failures.append(f"{name}: {problem} in {response!r}")
        print(f"{'FAIL' if problem else 'ok':4} {name}")

    def expect_ok(key, value):
        def check(response):
            if not response.get("ok"):
                return f"expected ok, got {response.get('error')}"
            if response["result"].get(key) != value:
                return f"result[{key}] != {value!r}"
            return None
        return check

    def expect_error(code):
        def check(response):
            if response.get("ok"):
                return f"expected error {code}, got ok"
            if response["error"]["code"] != code:
                return f"error code != {code}"
            return None
        return check

    step("ping", "ping", expect_ok("pong", True))
    step("assert tony's courses", "assert", expect_ok("added", 3),
         facts=_TONY)
    step("query yes", "query", expect_ok("answer", True),
         query="grad(tony)")
    step("query no", "query", expect_ok("answer", False),
         query="grad(ann)")
    step("one-shot what-if", "query", expect_ok("answer", True),
         query="grad(ann)", assume=[f.replace("tony", "ann") for f in _TONY])
    step("what-if did not stick", "query", expect_ok("answer", False),
         query="grad(ann)")
    step("inline hypothetical", "query", expect_ok("answer", True),
         query="within_one(tony)[add: student(tony)]")
    step("answers", "answers",
         expect_ok("rows", [["tony"]]), pattern="grad(S)")
    step("budgeted query", "query", expect_ok("answer", True),
         query="grad(tony)", budget={"max_steps": 1_000_000, "timeout": 10})
    step("parse error is stable", "query", expect_error("parse"),
         query="grad(")

    # A malformed frame poisons one request, never the connection.
    counter += 1
    response = call(b"this is not json\n")
    if response.get("ok") or response["error"]["code"] != "invalid-request":
        failures.append(f"malformed frame: {response!r}")
    print(f"{'FAIL' if failures and 'malformed' in failures[-1] else 'ok':4} "
          "malformed frame tolerated")
    step("connection survived", "ping", expect_ok("pong", True))

    # The write path: a bottom-up, demand-driven session watching
    # grad(S).  Each write is followed by a ping, and the server pushes
    # a write's watch events before it answers the next frame, so the
    # events sit between the write's response and the pong.
    step("open model session", "session.open", expect_ok("engine", "model"),
         session="m", engine="model", demand="on")
    step("subscribe grad(S)", "subscribe", expect_ok("rows", []),
         session="m", pattern="grad(S)", watch="g")

    def write(name: str, op: str, facts: list, count: int, added, removed):
        nonlocal counter
        key = "added" if op == "assert" else "removed"
        counter += 2
        frames = [
            {"v": 1, "id": counter - 1, "op": op, "session": "m", "facts": facts},
            {"v": 1, "id": counter, "op": "ping"},
        ]
        stream.write(b"".join(encode_frame(frame) for frame in frames))
        stream.flush()
        received = [read_frame()]
        while received[-1].get("id") != counter:
            received.append(read_frame())
        response, *events, pong = received
        want = [{"watch": "g", "added": added, "removed": removed}]
        got = [
            {field: event.get(field) for field in ("watch", "added", "removed")}
            for event in events
        ]
        problem = None
        if not response.get("ok") or response["result"].get(key) != count:
            problem = f"write response {response!r}"
        elif not pong.get("ok"):
            problem = f"ping response {pong!r}"
        elif got != want:
            problem = f"watch events {got!r} != {want!r}"
        if problem:
            failures.append(f"{name}: {problem}")
        print(f"{'FAIL' if problem else 'ok':4} {name}")

    write("model session assert", "assert", _TONY, 3, [["tony"]], [])
    write("model session retract", "retract", _TONY[2:], 1, [], [["tony"]])
    write("model session re-assert", "assert", _TONY, 1, [["tony"]], [])

    stream.close()
    sock.close()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scripted smoke session against hypodatalog serve"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--wait", type=float, default=15.0,
        help="seconds to wait for the port to start listening",
    )
    options = parser.parse_args(argv)
    wait_for_port(options.host, options.port, options.wait)
    failures = run_session(options.host, options.port)
    for failure in failures:
        print(f"smoke failure: {failure}", file=sys.stderr)
    print("smoke passed" if not failures else "smoke FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
