"""E23 — deletion propagation (DRed) and first-class ``[del:]``.

This PR made hypothetical deletions first-class in the bottom-up
engine and gave retracts true incremental maintenance: a cached model
is *patched* — over-delete, re-derive, re-close — instead of
refixpointed (docs/INCREMENTAL.md).  This bench pins the two claims
that justify the machinery:

* **retracts are proportional to the change** — on a multi-chain
  reachability workload, retracting one middle edge after a full
  evaluation fires at least 5x fewer rule instances (counting DRed's
  own over-deletion firings against it) than a from-scratch fixpoint
  on the smaller database, while producing the identical model — also
  after 10,000 unrelated databases were computed and evicted, since the
  patch starts from the engine's previous query rather than from a
  search of the cache;
* **``[del:]`` runs bottom-up** — the E14 redundancy-analysis workload
  that previously raised on the bottom-up engine now answers there,
  agrees with the top-down oracle exactly, and serves its
  counterfactual children by patching the parent's live model
  (``dred.models_patched`` > 0).

All shape assertions are on deterministic counters, never wall-clock,
so this file doubles as the CI perf guard (run with
``--benchmark-disable``).  Timing series — including the bottom-up vs
top-down ``[del:]`` comparison recorded for BENCH_*.json — ride along.
"""

import pytest

from repro.core.database import Database
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.topdown import TopDownEngine

CHAINS = 12
LENGTH = 10
UNRELATED = 10_000

PATH_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""

REDUNDANCY_RULES = """
alarm :- wired(S), live(S).
fragile(S) :- wired(S), ~still_alarm(S).
still_alarm(S) :- wired(S), alarm[del: live(S)].
"""

SENSOR_SIZES = [2, 4, 8]


def chain_db(chains: int, length: int) -> Database:
    facts = []
    for chain in range(chains):
        for hop in range(length - 1):
            facts.append(atom("edge", f"n{chain}_{hop}", f"n{chain}_{hop+1}"))
    return Database(facts)


def sensor_db(sensors: int) -> Database:
    names = [f"s{index}" for index in range(sensors)]
    return Database.from_relations({"wired": names, "live": names})


def total_firings(engine: PerfectModelEngine) -> int:
    """Rule firings charged to an engine, DRed's own work included —
    the ratio assertion must not hide over-deletion behind a separate
    counter."""
    return (
        engine.metrics.counter("model.rule_firings").value
        + engine.metrics.counter("dred.overdelete_firings").value
    )


# -- the acceptance criterion: 1-fact retract >= 5x fewer firings -------


@pytest.mark.parametrize("unrelated", [0, UNRELATED])
def test_retract_is_proportional_to_the_change(unrelated):
    db = chain_db(CHAINS, LENGTH)
    smaller = db.without_facts(atom("edge", "n0_4", "n0_5"))

    engine = PerfectModelEngine(parse_program(PATH_RULES))
    for index in range(unrelated):
        engine.model(Database([atom("noise", f"x{index}")]))
    engine.model(db)
    assert engine.metrics.counter("model.models_computed").value == unrelated + 1
    assert engine.metrics.counter("model.cache_evictions").value >= unrelated - 1
    before = total_firings(engine)
    patched = engine.model(smaller)
    incremental = total_firings(engine) - before
    assert engine.metrics.counter("dred.models_patched").value == 1

    scratch = PerfectModelEngine(parse_program(PATH_RULES))
    assert scratch.model(smaller) == patched
    full = total_firings(scratch)

    assert incremental * 5 <= full, (incremental, full)


def test_rederivation_is_exercised_not_bypassed():
    """The ratio must come from genuine DRed, not a degenerate
    workload: deleting a middle edge over-deletes the chain suffix
    reachabilities, and the re-derivation phase restores every path
    that still has support."""
    db = chain_db(CHAINS, LENGTH).with_facts(
        atom("edge", "n0_0", "n0_5")  # a bypass around the cut edge
    )
    engine = PerfectModelEngine(parse_program(PATH_RULES))
    engine.model(db)
    smaller = db.without_facts(atom("edge", "n0_4", "n0_5"))
    assert engine.ask(smaller, "path(n0_0, n0_9)")
    assert engine.metrics.counter("dred.atoms_rederived").value > 0


# -- [del:] premises run bottom-up, in parity with the oracle -----------


@pytest.mark.parametrize("sensors", SENSOR_SIZES)
def test_counterfactual_parity_with_topdown(sensors):
    rulebase = parse_program(REDUNDANCY_RULES)
    db = sensor_db(sensors)
    bottom_up = PerfectModelEngine(rulebase)
    expected = TopDownEngine(rulebase).answers(db, "fragile(S)")
    assert bottom_up.answers(db, "fragile(S)") == expected
    # Counterfactual children were patched from the live parent, not
    # refixpointed from scratch.
    assert bottom_up.metrics.counter("dred.models_patched").value > 0


# -- timing series (recorded, never gated) ------------------------------


@pytest.mark.parametrize("mode", ["patched", "scratch"])
def test_retract_timing(benchmark, attach_metrics, mode):
    db = chain_db(CHAINS, LENGTH)
    smaller = db.without_facts(atom("edge", "n0_4", "n0_5"))
    rulebase = parse_program(PATH_RULES)

    if mode == "patched":
        def run():
            engine = PerfectModelEngine(rulebase)
            engine.model(db)
            engine.model(smaller)
            return engine
    else:
        def run():
            engine = PerfectModelEngine(rulebase)
            engine.model(db)
            PerfectModelEngine(rulebase).model(smaller)
            return engine

    engine = benchmark(run)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["chains"] = CHAINS
    benchmark.extra_info["length"] = LENGTH
    attach_metrics(benchmark, engine.metrics)


@pytest.mark.parametrize("engine_name", ["model", "topdown"])
@pytest.mark.parametrize("sensors", SENSOR_SIZES)
def test_counterfactual_timing(benchmark, attach_metrics, engine_name, sensors):
    rulebase = parse_program(REDUNDANCY_RULES)
    db = sensor_db(sensors)
    factory = PerfectModelEngine if engine_name == "model" else TopDownEngine

    def run():
        engine = factory(rulebase)
        assert engine.answers(db, "fragile(S)") == set()
        return engine

    engine = benchmark(run)
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["sensors"] = sensors
    attach_metrics(benchmark, engine.metrics)
