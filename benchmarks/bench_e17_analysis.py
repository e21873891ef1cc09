"""E17 — the static analyzer: overhead, and the payoff of cost planning.

Two questions, one bench file:

1. **What does `check` cost?**  The diagnostics pass (binding-mode
   abstract interpretation + structure + stratification checks) runs
   over every shipped library rulebase and over generated layered
   rulebases of growing size.  It is a compile-time pass, so the bar is
   "milliseconds on real programs, low-order polynomial growth on
   synthetic ones" — asserted loosely in-bench.

2. **Does cost-aware ordering beat greedy where it matters?**  E16's
   workload only shows both planners beating *textual* order.  Here the
   adversarial case for greedy itself: two premises tie on bound-count,
   and greedy's textual tie-break picks the huge relation first,
   forcing a cross product.  The cost planner reads live relation sizes
   and starts from the small guard.  Asserted: cost strictly faster
   than greedy on both the bottom-up model engine (interpreted joins,
   ``compile="off"``) and the top-down engine.
"""

import time

import pytest

import repro.library as library
from repro.analysis.diagnostics import check
from repro.analysis.modes import analyze_modes
from repro.bench import random_layered_rulebase
from repro.core.database import Database
from repro.core.parser import parse_program
from repro.engine.model import PerfectModelEngine
from repro.engine.topdown import TopDownEngine

LIBRARY_RULEBASES = {
    "graduation": lambda: library.graduation_rulebase(),
    "hamiltonian": lambda: library.hamiltonian_rulebase(),
    "parity": lambda: library.parity_rulebase(),
    "coloring": lambda: library.coloring_rulebase(),
    "degree": lambda: library.degree_rulebase(),
    "example9": lambda: library.example9_rulebase(),
    "example10": lambda: library.example10_rulebase(),
    "order_iteration": lambda: library.order_iteration_rulebase(),
}


# ----------------------------------------------------------------------
# 1. Analyzer overhead
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LIBRARY_RULEBASES))
def test_check_library_rulebase(benchmark, name):
    rb = LIBRARY_RULEBASES[name]()

    def run():
        return check(rb)

    diags = benchmark(run)
    benchmark.extra_info["rules"] = len(rb.rules)
    benchmark.extra_info["findings"] = len(diags)


@pytest.mark.parametrize("predicates", [40, 160, 320])
def test_check_layered_rulebase(benchmark, predicates):
    rb = random_layered_rulebase(predicates, 4, seed=7)

    def run():
        return check(rb)

    diags = benchmark(run)
    benchmark.extra_info["rules"] = len(rb.rules)
    benchmark.extra_info["findings"] = len(diags)


@pytest.mark.parametrize("predicates", [40, 160, 320])
def test_analyze_modes_layered_rulebase(benchmark, predicates):
    rb = random_layered_rulebase(predicates, 4, seed=7)

    def run():
        return analyze_modes(rb)

    report = benchmark(run)
    benchmark.extra_info["rules"] = len(rb.rules)
    benchmark.extra_info["adorned_predicates"] = len(report.adornments)


def test_analysis_scales_polynomially():
    """Doubling predicates must stay far under a cubic blowup."""

    def seconds(predicates: int) -> float:
        rb = random_layered_rulebase(predicates, 4, seed=7)
        start = time.perf_counter()
        check(rb)
        return time.perf_counter() - start

    small = min(seconds(80) for _ in range(3))
    large = min(seconds(160) for _ in range(3))
    assert large <= max(small, 1e-4) * 16  # 2x size, << 8x cubic + slack


# ----------------------------------------------------------------------
# 2. Cost-aware ordering vs greedy: the tie-break trap
# ----------------------------------------------------------------------

# blowup and guard tie on bound variables (none); greedy's textual
# tie-break joins blowup first — a 200 x 50 cross product before link
# filters anything.  Cost ordering sees |guard| << |blowup| and anchors
# on the guard.
CROSS_TRAP = parse_program(
    """
    hit(X) :- blowup(Y), guard(X), link(X, Y).
    """
)


def trap_db(n_blow: int = 200, n_guard: int = 50) -> Database:
    return Database.from_relations(
        {
            "blowup": [f"b{index}" for index in range(n_blow)],
            "guard": [f"g{index}" for index in range(n_guard)],
            "link": [
                (f"g{index}", f"b{index % n_blow}")
                for index in range(n_guard)
            ],
        }
    )


EXPECTED = {(f"g{index}",) for index in range(50)}


def bottom_up_model(mode, db):
    engine = PerfectModelEngine(CROSS_TRAP, optimize_joins=mode, compile="off")
    return engine.model(db)


@pytest.mark.parametrize("mode", ["cost", "greedy"], ids=["cost", "greedy"])
def test_stratified_cross_trap(benchmark, mode):
    db = trap_db()

    def run():
        model = bottom_up_model(mode, db)
        return sum(1 for item in model if item.predicate == "hit")

    assert benchmark(run) == 50


@pytest.mark.parametrize("mode", ["cost", "greedy"], ids=["cost", "greedy"])
def test_topdown_cross_trap(benchmark, mode):
    db = trap_db()

    def run():
        return TopDownEngine(CROSS_TRAP, optimize_joins=mode).answers(
            db, "hit(X)"
        )

    assert benchmark(run) == EXPECTED


def test_cost_beats_greedy(benchmark):
    """The who-wins assertion, measured inline on one instance."""
    db = trap_db()

    def bottom_up_seconds(mode) -> float:
        start = time.perf_counter()
        bottom_up_model(mode, db)
        return time.perf_counter() - start

    def topdown_seconds(mode) -> float:
        start = time.perf_counter()
        TopDownEngine(CROSS_TRAP, optimize_joins=mode).answers(db, "hit(X)")
        return time.perf_counter() - start

    def run():
        return (
            bottom_up_seconds("cost"),
            bottom_up_seconds("greedy"),
            topdown_seconds("cost"),
            topdown_seconds("greedy"),
        )

    s_cost, s_greedy, t_cost, t_greedy = benchmark(run)
    assert s_cost < s_greedy
    assert t_cost < t_greedy
    benchmark.extra_info["stratified_speedup"] = round(
        s_greedy / max(s_cost, 1e-9), 1
    )
    benchmark.extra_info["topdown_speedup"] = round(
        t_greedy / max(t_cost, 1e-9), 1
    )
