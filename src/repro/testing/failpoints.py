"""Fault injection at the evaluators' guarded sites.

Every budget check inside the engines names its *site* (a dotted
string, usually matching the metric the site already increments —
``"topdown.goals"``, ``"delta.firings"``, ...).  This module lets a
test arm a failpoint at any such site so the check raises on demand:

    from repro.testing import failpoints

    with failpoints.armed("topdown.goals", reason="deadline", skip=10):
        engine.ask(db, "yes", budget=Budget())   # 11th goal trips

The failure surfaces exactly as a real budget trip would — a
:class:`~repro.core.errors.ResourceExhausted` with the given reason —
so the same graceful-degradation paths (partial results, cache
hygiene, CLI exit codes) are exercised without constructing a workload
that organically exhausts the budget.  ``kind="invariant"`` raises
:class:`~repro.core.errors.InvariantViolation` instead, which drives
the differential engine's naive-fallback path.

Failpoints only fire for *enabled* budgets: a site is reached through
``Budget.charge``/``poll``/``check_depth``, which the engines skip
entirely when no budget is configured, so production hot paths pay a
single module-level boolean read only while a budget is active — and
nothing at all otherwise.

:data:`KNOWN_SITES` is the canonical registry of guarded sites; the
fault-injection matrix (``tests/test_failpoints.py``) iterates it to
prove every site degrades gracefully.  Add new sites there when adding
new budget checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from ..core.errors import InvariantViolation, ResourceExhausted

__all__ = [
    "KNOWN_SITES",
    "NETWORK_SITES",
    "armed",
    "enabled",
    "reset",
    "trigger",
]

#: Guarded sites at the network layer (repro.server): unlike the engine
#: sites these are reached per connection/frame rather than per budget
#: charge, and the server converts a trip into a degraded single
#: request/connection, never a dead process (docs/SERVER.md).  The
#: fault-injection matrix for them lives in tests/test_server.py; the
#: engine matrix in tests/test_failpoints.py skips them.
NETWORK_SITES: frozenset[str] = frozenset(
    {
        "server.accept",
        "server.read_frame",
        "server.evaluate",
        "server.write_response",
    }
)

# The canonical guarded sites, grouped by evaluator.  Keep in sync with
# the engines' budget checks and docs/ROBUSTNESS.md.
KNOWN_SITES: frozenset[str] = NETWORK_SITES | frozenset(
    {
        # the paper's PROVE cascade (repro.engine.prove)
        "prove.sigma_goals",
        "prove.delta_models",
        "prove.exists",
        # tabled top-down search (repro.engine.topdown)
        "topdown.goals",
        "topdown.exists",
        # bottom-up model engine (repro.engine.model)
        "model.models_computed",
        "model.exists",
        "model.invariant",
        # shared differential stratum closure (repro.engine.delta),
        # reached from the model engine and from PROVE_Delta
        "delta.round",
        "delta.firings",
        "delta.derived",
    }
)

#: Fast-path flag read by ``Budget`` on every charge; True only while
#: at least one failpoint is armed.
enabled = False

_armed: Dict[str, "_Failpoint"] = {}


class _Failpoint:
    """One armed site: what to raise, after how many hits."""

    __slots__ = ("site", "kind", "reason", "skip", "hits")

    def __init__(self, site: str, kind: str, reason: str, skip: int) -> None:
        self.site = site
        self.kind = kind
        self.reason = reason
        self.skip = skip
        self.hits = 0

    def fire(self) -> None:
        if self.skip > 0:
            self.skip -= 1
            return
        self.hits += 1
        if self.kind == "invariant":
            raise InvariantViolation(
                f"failpoint {self.site!r}: injected invariant violation"
            )
        raise ResourceExhausted(
            f"failpoint {self.site!r}: injected {self.reason}",
            reason=self.reason,
            site=self.site,
        )


def trigger(site: str) -> None:
    """Fire the failpoint armed at ``site``, if any.

    Called by :meth:`repro.engine.budget.Budget.charge` and friends;
    a no-op unless a matching failpoint is armed.
    """
    failpoint = _armed.get(site)
    if failpoint is not None:
        failpoint.fire()


@contextmanager
def armed(
    site: str,
    *,
    kind: str = "exhaustion",
    reason: str = "injected",
    skip: int = 0,
) -> Iterator[_Failpoint]:
    """Arm one failpoint for the duration of the ``with`` block.

    ``kind`` is ``"exhaustion"`` (raise :class:`ResourceExhausted` with
    ``reason``; use reason ``"cancelled"`` to simulate Ctrl-C) or
    ``"invariant"`` (raise :class:`InvariantViolation`).  ``skip``
    lets the first N hits through, so mid-evaluation failures can be
    staged deterministically.  The yielded handle's ``hits`` counts
    how many times the site actually fired.
    """
    if site not in KNOWN_SITES:
        raise ValueError(
            f"unknown failpoint site {site!r}; registered sites: "
            f"{', '.join(sorted(KNOWN_SITES))}"
        )
    if kind not in ("exhaustion", "invariant"):
        raise ValueError(f"unknown failpoint kind {kind!r}")
    global enabled
    failpoint = _Failpoint(site, kind, reason, skip)
    _armed[site] = failpoint
    enabled = True
    try:
        yield failpoint
    finally:
        _armed.pop(site, None)
        enabled = bool(_armed)


def reset() -> None:
    """Disarm every failpoint (test-suite hygiene)."""
    global enabled
    _armed.clear()
    enabled = False
