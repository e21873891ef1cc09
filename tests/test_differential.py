"""Differential evaluation cross-checks (PR 3).

The semi-naive strata, lattice model reuse, and indexed joins of the
model engine are all meant to be *semantics-neutral*: every strategy
and every reuse setting must produce exactly the naive reference model.
These tests pin that on every shipped library rulebase, on random
add-only rulebases, and on the metric counters (traced and untraced
runs must count identically).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.monotone import is_add_monotone, monotone_layer_prefix
from repro.analysis.stratify import negation_strata
from repro.core.ast import Hypothetical, Negated, Positive, Rule, Rulebase
from repro.core.database import Database
from repro.core.parser import parse_program
from repro.core.terms import Atom, Constant, Variable, atom
from repro.engine.model import PerfectModelEngine
from repro.library.chains import (
    addition_chain_rulebase,
    order_db,
    order_iteration_rulebase,
)
from repro.library.coloring import coloring_db, coloring_rulebase
from repro.library.hamiltonian import (
    graph_db,
    hamiltonian_rulebase,
    has_hamiltonian_path,
)
from repro.library.parity import parity_db, parity_rulebase
from repro.library.university import graduation_db, graduation_rulebase
from repro.obs.trace import Tracer


def _engines(rulebase, **kwargs):
    """The three configurations whose models must coincide."""
    return {
        "naive": PerfectModelEngine(rulebase, strategy="naive", **kwargs),
        "seminaive": PerfectModelEngine(
            rulebase, strategy="seminaive", reuse_models=False, **kwargs
        ),
        "seeded": PerfectModelEngine(
            rulebase, strategy="seminaive", reuse_models=True, **kwargs
        ),
    }


LIBRARY_WORKLOADS = [
    pytest.param(parity_rulebase(), parity_db(["x1"]), id="parity-1"),
    pytest.param(parity_rulebase(), parity_db(["x1", "x2"]), id="parity-2"),
    pytest.param(
        parity_rulebase(), parity_db(["x1", "x2", "x3"]), id="parity-3"
    ),
    pytest.param(
        hamiltonian_rulebase(),
        graph_db(["n1", "n2", "n3"], [("n1", "n2"), ("n2", "n3")]),
        id="hamiltonian-path",
    ),
    pytest.param(
        hamiltonian_rulebase(),
        graph_db(["n1", "n2", "n3"], [("n1", "n2")]),
        id="hamiltonian-no-path",
    ),
    pytest.param(graduation_rulebase(), graduation_db(), id="graduation"),
    pytest.param(addition_chain_rulebase(3), Database(), id="addition-chain"),
    pytest.param(
        order_iteration_rulebase(), order_db(3), id="order-iteration"
    ),
    pytest.param(
        coloring_rulebase(),
        coloring_db(["u", "v"], [("u", "v")], ["red", "blue"]),
        id="coloring",
    ),
]


class TestLibraryCrossCheck:
    """Naive, semi-naive, and seeded evaluation agree on every shipped
    rulebase (the acceptance criterion's reference-model assertion)."""

    @pytest.mark.parametrize("rulebase, db", LIBRARY_WORKLOADS)
    def test_models_identical(self, rulebase, db):
        engines = _engines(rulebase)
        models = {name: engine.model(db) for name, engine in engines.items()}
        assert models["seminaive"] == models["naive"]
        assert models["seeded"] == models["naive"]

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_parity_answers_match_cardinality(self, size):
        rulebase = parity_rulebase()
        db = parity_db([f"x{index}" for index in range(size)])
        for name, engine in _engines(rulebase).items():
            assert engine.ask(db, "even") is (size % 2 == 0), name

    def test_hamiltonian_answers_match_oracle(self):
        rulebase = hamiltonian_rulebase()
        nodes = ["n1", "n2", "n3", "n4"]
        for edges in [
            [("n1", "n2"), ("n2", "n3"), ("n3", "n4")],
            [("n1", "n2"), ("n3", "n4")],
            [("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n1")],
        ]:
            expected = has_hamiltonian_path(nodes, edges)
            db = graph_db(nodes, edges)
            for name, engine in _engines(rulebase).items():
                assert engine.ask(db, "yes") is expected, (name, edges)


def _random_rulebase(rng: random.Random, negation: bool = False) -> Rulebase:
    """A random add-only hypothetical rulebase.

    IDB predicates p/1, q/1, r/2 defined by rules whose bodies mix
    positive premises over IDB/EDB predicates and hypothetical premises
    whose additions touch the EDB predicate e/1 — the fragment where
    lattice reuse is always on, so seeding gets exercised hard.  With
    ``negation=True`` bodies may also carry negated premises (samples
    whose negation happens to be recursive are skipped by callers).
    """
    variables = [Variable("X"), Variable("Y")]
    constants = [Constant("c0"), Constant("c1"), Constant("c2")]
    idb = [("p", 1), ("q", 1), ("r", 2)]
    edb = [("e", 1), ("g", 2)]

    def random_term():
        return rng.choice(variables + constants)

    def random_atom(candidates):
        predicate, arity = rng.choice(candidates)
        return Atom(predicate, tuple(random_term() for _ in range(arity)))

    rules = []
    for _ in range(rng.randint(3, 6)):
        predicate, arity = rng.choice(idb)
        head = Atom(predicate, tuple(random_term() for _ in range(arity)))
        body = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if negation and roll < 0.2:
                body.append(Negated(random_atom(idb + edb)))
            elif roll < 0.35:
                goal = random_atom(idb + edb)
                addition = Atom("e", (random_term(),))
                body.append(Hypothetical(goal, (addition,)))
            else:
                body.append(Positive(random_atom(idb + edb)))
        rules.append(Rule(head, tuple(body)))
    return Rulebase(rules)


def _random_database(rng: random.Random) -> Database:
    constants = ["c0", "c1", "c2"]
    facts = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.5:
            facts.append(atom("e", rng.choice(constants)))
        else:
            facts.append(
                atom("g", rng.choice(constants), rng.choice(constants))
            )
    return Database(facts)


class TestRandomizedCrossCheck:
    """Differential + seeded evaluation equals the naive reference on
    random add-only rulebases (monotone fragment, reuse always fires)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_add_only_rulebases(self, seed):
        rng = random.Random(seed)
        rulebase = _random_rulebase(rng)
        db = _random_database(rng)
        assert is_add_monotone(rulebase)
        engines = _engines(rulebase, max_databases=50_000)
        models = {name: engine.model(db) for name, engine in engines.items()}
        assert models["seminaive"] == models["naive"], str(rulebase)
        assert models["seeded"] == models["naive"], str(rulebase)
        seeded = engines["seeded"].metrics
        assert (
            seeded.counter("model.models_seeded").value
            + seeded.counter("model.models_fresh").value
            == seeded.counter("model.models_computed").value
        )


class TestSeedingMetrics:
    """The new ``model.*`` reuse metrics mean what the docs say."""

    def test_parity_lattice_counts_seeded_models(self):
        # Example 6's first rule-bearing stratum (select) is negation
        # guarded, so the monotone prefix stops at the rule-less EDB
        # strata: children enter the incremental path (seeded models
        # counted) but can inherit no derived atoms.
        rulebase = parity_rulebase()
        prefix = monotone_layer_prefix(negation_strata_rules(rulebase))
        assert all(
            not rules for rules in negation_strata_rules(rulebase)[:prefix]
        )
        engine = PerfectModelEngine(rulebase)
        assert engine.ask(parity_db(["x1", "x2"]), "even")
        metrics = engine.metrics
        assert metrics.counter("model.models_seeded").value > 0
        assert metrics.counter("model.models_fresh").value > 0
        histogram = metrics.histogram("model.atoms_seeded")
        assert histogram.count > 0
        assert histogram.total == 0

    def test_monotone_lattice_inherits_derived_atoms(self):
        # Example 2's rulebase is negation-free: children really reuse
        # the parent's ``grad`` stratum.
        engine = PerfectModelEngine(graduation_rulebase())
        assert engine.answers(graduation_db(), "within_one(S)") == {
            ("tony",),
            ("sue",),
        }
        assert engine.metrics.histogram("model.atoms_seeded").total > 0

    def test_incremental_recomputation_seeds_from_cache(self):
        rules = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."
        )
        base = Database.from_relations(
            {"edge": [("a", "b"), ("b", "c"), ("c", "d")]}
        )
        engine = PerfectModelEngine(rules)
        engine.model(base)
        grown = base.with_facts(atom("edge", "d", "e"))
        incremental = engine.model(grown)
        metrics = engine.metrics
        assert metrics.counter("model.models_seeded").value == 1
        assert metrics.histogram("model.atoms_seeded").total > 0
        assert incremental == PerfectModelEngine(rules).model(grown)

    def test_seeding_does_not_depend_on_cache_size(self):
        # The seed source is the engine's previous query, not a search
        # of the cache, so 10,000 unrelated cached databases change
        # nothing.
        rules = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."
        )
        engine = PerfectModelEngine(rules)
        for index in range(10_000):
            engine.model(Database([atom("noise", f"x{index}")]))
        base = Database.from_relations(
            {"edge": [("a", "b"), ("b", "c"), ("c", "d")]}
        )
        engine.model(base)
        grown = base.with_facts(atom("edge", "d", "e"))
        assert engine.model(grown) == PerfectModelEngine(rules).model(grown)
        assert engine.metrics.counter("model.models_seeded").value == 1

    def test_no_seed_across_a_new_constant_for_unbound_heads(self):
        # node(X) ranges over dom(R, DB): a seeded closure would never
        # derive node(d) for the new constant d, since no new atom
        # meets the rule's body.
        rules = parse_program("node(X) :- edge(a, b).")
        base = Database.from_relations({"edge": [("a", "b")]})
        engine = PerfectModelEngine(rules)
        engine.model(base)
        grown = base.with_facts(atom("edge", "a", "d"))
        assert atom("node", "d") in engine.model(grown)
        assert engine.metrics.counter("model.models_seeded").value == 0

    def test_seminaive_fires_fewer_rules_than_naive(self):
        rulebase = parity_rulebase()
        db = parity_db(["x1", "x2", "x3"])
        firings = {}
        for name, engine in _engines(rulebase).items():
            engine.ask(db, "even")
            firings[name] = engine.metrics.counter("model.rule_firings").value
        assert firings["seminaive"] < firings["naive"]
        assert firings["seeded"] <= firings["seminaive"]

    def test_reuse_disabled_counts_everything_fresh(self):
        engine = PerfectModelEngine(parity_rulebase(), reuse_models=False)
        engine.ask(parity_db(["x1", "x2"]), "even")
        assert engine.metrics.counter("model.models_seeded").value == 0
        assert engine.metrics.counter("model.models_fresh").value > 0

    def test_index_probes_counted(self):
        engine = PerfectModelEngine(graduation_rulebase())
        engine.answers(graduation_db(), "within_one(S)")
        assert engine.metrics.counter("interp.index_probes").value > 0


def negation_strata_rules(rulebase):
    """Per-stratum rule partition, the input monotone_layer_prefix wants."""
    return [
        [
            item
            for predicate in layer
            for item in rulebase.definition(predicate)
        ]
        for layer in negation_strata(rulebase)
    ]


class TestTracedCounterParity:
    """Tracing must be observational only: the same evaluation traced
    and untraced produces identical ``model.*`` counters."""

    @pytest.mark.parametrize(
        "rulebase, db, query",
        [
            pytest.param(
                parity_rulebase(), parity_db(["x1", "x2"]), "even", id="parity"
            ),
            pytest.param(
                graduation_rulebase(),
                graduation_db(),
                "within_one(tony)",
                id="graduation",
            ),
            pytest.param(
                hamiltonian_rulebase(),
                graph_db(["n1", "n2", "n3"], [("n1", "n2"), ("n2", "n3")]),
                "yes",
                id="hamiltonian",
            ),
        ],
    )
    def test_model_counters_identical(self, rulebase, db, query):
        untraced = PerfectModelEngine(rulebase)
        untraced.ask(db, query)
        traced = PerfectModelEngine(rulebase, tracer=Tracer())
        traced.ask(db, query)
        untraced_counts = {
            name: value
            for name, value in untraced.metrics.snapshot().items()
            if name.startswith(("model.", "interp."))
        }
        traced_counts = {
            name: value
            for name, value in traced.metrics.snapshot().items()
            if name.startswith(("model.", "interp."))
        }
        assert untraced_counts == traced_counts
        assert untraced_counts["model.rule_firings"] > 0


class TestStrategyValidation:
    def test_unknown_strategy_rejected(self):
        from repro.core.errors import EvaluationError

        with pytest.raises(EvaluationError):
            PerfectModelEngine(parity_rulebase(), strategy="magic")

    def test_unknown_demand_mode_rejected(self):
        from repro.core.errors import EvaluationError

        with pytest.raises(EvaluationError):
            PerfectModelEngine(parity_rulebase(), demand="always")


def _all_free_patterns(rulebase):
    """One all-free query pattern per defined predicate."""
    patterns = []
    for predicate in sorted(rulebase.defined_predicates()):
        arity = rulebase.arity(predicate) or 0
        patterns.append(
            Atom(
                predicate,
                tuple(Variable(f"V{index}") for index in range(arity)),
            )
        )
    return patterns


class TestDemandParity:
    """Demand-on evaluation is answer-identical to demand-off — on
    shipped rulebases, on random add-only programs, and on random
    negation-bearing programs.  Rejections degrade through the counted
    fallback, so parity must hold unconditionally."""

    @pytest.mark.parametrize("rulebase, db", LIBRARY_WORKLOADS)
    def test_library_answers_identical(self, rulebase, db):
        off = PerfectModelEngine(rulebase)
        on = PerfectModelEngine(rulebase, demand="on")
        for pattern in _all_free_patterns(rulebase):
            expected = off.answers(db, pattern)
            assert on.answers(db, pattern) == expected, str(pattern)
            assert on.ask(db, pattern) is off.ask(db, pattern)
            # Ground probes: every answer, plus one guaranteed miss.
            for row in sorted(expected, key=str)[:3]:
                ground = Atom(
                    pattern.predicate, tuple(Constant(value) for value in row)
                )
                assert on.ask(db, ground) is True, str(ground)
            if pattern.args:
                miss = Atom(
                    pattern.predicate,
                    (Constant("no_such"),) * len(pattern.args),
                )
                assert on.ask(db, miss) is off.ask(db, miss)

    @pytest.mark.parametrize("rulebase, db", LIBRARY_WORKLOADS)
    def test_library_counters_sound(self, rulebase, db):
        engine = PerfectModelEngine(rulebase, demand="on")
        for pattern in _all_free_patterns(rulebase):
            engine.answers(db, pattern)
        snapshot = engine.metrics.snapshot()
        fallbacks = snapshot.get("engine.demand_fallbacks", 0)
        rewritten = snapshot.get("demand.rules_rewritten", 0)
        # Every query either rewrote (guarded rules counted) or fell
        # back (counted); nothing disappears silently.
        assert fallbacks + rewritten > 0
        if rewritten:
            assert snapshot.get("demand.magic_facts", 0) > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_add_only_parity(self, seed):
        rng = random.Random(seed)
        rulebase = _random_rulebase(rng)
        db = _random_database(rng)
        off = PerfectModelEngine(rulebase, max_databases=50_000)
        on = PerfectModelEngine(
            rulebase, demand="on", max_databases=50_000
        )
        for pattern in _all_free_patterns(rulebase):
            assert on.answers(db, pattern) == off.answers(db, pattern), (
                str(rulebase),
                str(pattern),
            )
        for goal in [
            atom("p", "c0"),
            atom("q", "c2"),
            atom("r", "c0", "c1"),
        ]:
            if rulebase.definition(goal.predicate):
                assert on.ask(db, goal) is off.ask(db, goal), (
                    str(rulebase),
                    str(goal),
                )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_negation_parity(self, seed):
        from repro.core.errors import StratificationError

        rng = random.Random(1000 + seed)
        rulebase = _random_rulebase(rng, negation=True)
        db = _random_database(rng)
        try:
            off = PerfectModelEngine(rulebase, max_databases=50_000)
        except StratificationError:
            pytest.skip("random sample is not stratified")
        on = PerfectModelEngine(rulebase, demand="on", max_databases=50_000)
        for pattern in _all_free_patterns(rulebase):
            assert on.answers(db, pattern) == off.answers(db, pattern), (
                str(rulebase),
                str(pattern),
            )
