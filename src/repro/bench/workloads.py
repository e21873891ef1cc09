"""Seeded synthetic workloads for the benchmark harness.

The paper has no datasets; every bench runs on generated inputs shaped
after the paper's own examples.  All generators take an explicit seed
so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.ast import Rulebase
from ..core.database import Database
from ..core.parser import parse_program

__all__ = [
    "random_graph",
    "path_graph",
    "cycle_graph",
    "transitive_closure_rules",
    "chain_edges_db",
    "random_database",
    "random_layered_rulebase",
]


def random_graph(
    n: int, edge_probability: float, seed: int
) -> tuple[list[str], list[tuple[str, str]]]:
    """A directed G(n, p) graph with nodes ``v0 .. v{n-1}``."""
    rng = random.Random(seed)
    nodes = [f"v{index}" for index in range(n)]
    edges = [
        (source, target)
        for source in nodes
        for target in nodes
        if source != target and rng.random() < edge_probability
    ]
    return nodes, edges


def path_graph(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """A directed path ``v0 -> v1 -> ... -> v{n-1}`` (Hamiltonian by
    construction — the easy positive instance)."""
    nodes = [f"v{index}" for index in range(n)]
    return nodes, list(zip(nodes, nodes[1:]))


def cycle_graph(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """A directed cycle on ``n`` nodes."""
    nodes = [f"v{index}" for index in range(n)]
    edges = list(zip(nodes, nodes[1:]))
    if n > 1:
        edges.append((nodes[-1], nodes[0]))
    return nodes, edges


def transitive_closure_rules() -> Rulebase:
    """The canonical linear-recursive Horn program (naive vs semi-naive, E12)."""
    return parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """
    )


def chain_edges_db(n: int) -> Database:
    """``edge`` facts for a length-``n`` chain."""
    _, edges = path_graph(n)
    return Database.from_relations({"edge": edges})


def random_database(
    predicates: Sequence[tuple[str, int]],
    domain_size: int,
    facts_per_predicate: int,
    seed: int,
) -> Database:
    """Random facts over a fresh domain ``c0 .. c{n-1}``."""
    rng = random.Random(seed)
    domain = [f"c{index}" for index in range(domain_size)]
    relations: dict = {}
    for name, arity in predicates:
        rows = set()
        attempts = 0
        while len(rows) < facts_per_predicate and attempts < 20 * facts_per_predicate:
            rows.add(tuple(rng.choice(domain) for _ in range(arity)))
            attempts += 1
        relations[name] = sorted(rows)
    return Database.from_relations(relations)


def random_layered_rulebase(
    predicates: int, strata: int, seed: int, rules_per_predicate: int = 2
) -> Rulebase:
    """A random linearly stratified rulebase for the Lemma 1 bench (E7).

    Predicates are assigned to strata round-robin.  Each predicate gets
    ``rules_per_predicate`` rules mixing (i) a linear hypothetical
    self-recursion triggered by an EDB guard, (ii) positive references
    to earlier predicates of the same stratum, and (iii) a
    negation-by-failure step down to the stratum below — the Example 9
    shape, scaled up and randomized.  The result is linearly
    stratifiable by construction; its size (not its meaning) is what
    the bench measures.
    """
    if predicates < strata:
        raise ValueError("need at least one predicate per stratum")
    rng = random.Random(seed)
    names = [f"p{index}" for index in range(predicates)]
    stratum_of = {name: index % strata + 1 for index, name in enumerate(names)}
    lines: list[str] = []
    for index, name in enumerate(names):
        stratum = stratum_of[name]
        if stratum == index + 1:
            # The first predicate of each stratum anchors the layering:
            # a linear hypothetical rule pins it to the Sigma segment,
            # and (above stratum 1) a negation of the previous anchor
            # forces a genuinely new stratum.
            lines.append(f"{name} :- e{index}, {name}[add: h{index}].")
            if stratum > 1:
                lines.append(f"{name} :- d{index}, ~p{index - 1}.")
        lower_same = [
            other
            for other in names[:index]
            if stratum_of[other] == stratum
        ]
        below = [other for other in names if stratum_of[other] < stratum]
        for _ in range(rules_per_predicate):
            shape = rng.randrange(3)
            if shape == 0:
                lines.append(f"{name} :- e{index}, {name}[add: h{index}].")
            elif shape == 1 and lower_same:
                lines.append(f"{name} :- {rng.choice(lower_same)}, e{index}.")
            elif shape == 2 and below:
                lines.append(f"{name} :- d{index}, ~{rng.choice(below)}.")
            else:
                lines.append(f"{name} :- e{index}.")
    return parse_program("\n".join(lines))
