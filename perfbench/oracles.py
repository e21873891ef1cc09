"""Expected answers, computed without the program.

Each function decides what one of the benchmark's rulebases should
answer by a different algorithm than any engine uses: Held-Karp
dynamic programming for Example 7, a row count for Example 6, and set
arithmetic for the graduation policy.  The benchmark computes every
expected answer with these before its timed phase.
"""

from __future__ import annotations

REQUIRED = ("his101", "eng201", "cs250")


def has_hamiltonian_path(nodes, edges) -> bool:
    """Held-Karp over (visited set, endpoint) pairs."""
    index = {name: position for position, name in enumerate(nodes)}
    successors: list[list[int]] = [[] for _ in nodes]
    for source, target in edges:
        successors[index[source]].append(index[target])
    full = (1 << len(nodes)) - 1
    layer = {(1 << position, position) for position in range(len(nodes))}
    for _ in range(len(nodes) - 1):
        layer = {
            (visited | (1 << target), target)
            for visited, endpoint in layer
            for target in successors[endpoint]
            if not visited & (1 << target)
        }
    return bool(nodes) and any(visited == full for visited, _ in layer)


def is_even(rows) -> bool:
    """Example 6: ``even`` iff the ``a`` relation has an even count."""
    return len(rows) % 2 == 0


def graduates(taken) -> bool:
    """``grad(S)``: every required course taken."""
    return all(course in taken for course in REQUIRED)


def within_one(taken) -> bool:
    """``within_one(S)``: at most one required course missing (every
    required course is a known course, so one more take suffices)."""
    return sum(course not in taken for course in REQUIRED) <= 1
