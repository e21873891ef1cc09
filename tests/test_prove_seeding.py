"""PROVE_Delta seeding: a what-if costs its change, not the database.

A Delta model that misses at ``DB'`` starts from the segment's model
held at the current or the previous public call's database ``S ⊆ DB'``:
the segment's positive layer prefix copies ``S``'s rows and closes on
``DB' − S`` alone, and the layers above close fresh
(``engine/prove.py``, ``analysis/monotone.py``).  A delta-restricted
round joins its target premise first, and ``answers`` reads the model
instead of deciding every grounding.  These tests pin that no answer
changes, that the shapes a seed cannot cover are not seeded, that a
seeded what-if's work does not grow with the database, and that
``answers`` agrees with the top-down engine's grounding loop.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis.stratify import LinearStratification, is_linearly_stratified
from repro.core.ast import Hypothetical
from repro.core.errors import EvaluationError, ResourceExhausted
from repro.core.parser import parse_database, parse_program
from repro.core.terms import Atom, Constant, Variable
from repro.engine.budget import Budget
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine
from repro.obs.trace import Tracer
from repro.server.sessions import ClientSession, SharedRulebase
from tests.test_properties import SETTINGS, edb_databases, stratified_rulebases

_RULEBASES = Path(__file__).resolve().parent.parent / "examples" / "rulebases"


def _seeded(prover):
    return prover.metrics.counter("prove.delta_seeded").value


def _delta_spans(tracer):
    """Every ``delta`` span of a trace, as ``(label, args)``."""
    found = []
    stack = [tracer.root]
    while stack:
        node = stack.pop()
        if node.is_span:
            if node.kind == "delta":
                found.append((node.label, dict(node.args)))
            stack.extend(node.children)
    return found


def _seeded_segments(tracer):
    return {label for label, args in _delta_spans(tracer) if "seeded" in args}


# ----------------------------------------------------------------------
# Agreement along sequences of additions
# ----------------------------------------------------------------------

_FACTS = [Atom(name, (Constant(value),)) for name in ("e0", "e1") for value in "abcd"]


@SETTINGS
@given(
    stratified_rulebases(),
    edb_databases(),
    st.lists(
        st.lists(st.sampled_from(_FACTS), min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    ),
)
def test_long_lived_prover_agrees_along_additions(rulebase, db, steps):
    """At each database of a growing sequence, a prover that keeps its
    caches (and so seeds from the previous step's models and from the
    call's own) answers every IDB pattern as a prover that holds no
    model and as the model engine do."""
    assume(is_linearly_stratified(rulebase))
    prover = LinearStratifiedProver(rulebase)
    model = PerfectModelEngine(rulebase, max_databases=3000)
    patterns = [
        Atom(name, (Variable("X"),) * (rulebase.arity(name) or 0))
        for name in sorted(rulebase.defined_predicates())
    ]
    for additions in [()] + steps:
        db = db.with_facts(*additions)
        unseeded = LinearStratifiedProver(rulebase, memoize=False)
        for pattern in patterns:
            try:
                expected = model.answers(db, pattern)
            except EvaluationError:
                return  # the model engine's per-call cap, not a disagreement
            assert prover.answers(db, pattern) == expected
            assert unseeded.answers(db, pattern) == expected
        assert _seeded(unseeded) == 0


#: Facts over ``x`` and ``y`` bring constants no generated rule names:
#: asserting one grows ``dom(R, DB)``, retracting the last one shrinks it.
_WIDE = [
    Atom(name, (Constant(value),)) for name in ("e0", "e1") for value in "abxy"
]


@SETTINGS
@given(
    stratified_rulebases(),
    edb_databases(),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(_WIDE), max_size=2),
            st.lists(st.sampled_from(_WIDE), max_size=2),
            st.sampled_from(_WIDE),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_long_lived_engines_agree_across_domains(rulebase, db, steps):
    """Along databases that gain and lose constants, a PROVE and a
    top-down engine that keep their tables answer every IDB pattern as
    fresh engines and the model engine do; so they do after a what-if
    (``[add:]`` or ``[del:]``) of one fact, and at the world that
    what-if imagined.  A what-if bringing a constant outside the
    query's ``dom(R, DB)`` is compared with a fresh engine of the same
    kind only: the top-down engine grounds a premise's unbound
    variables over the query's domain, so it does not see a derived
    atom naming the new constant, which the model engine's join
    does."""
    linear = is_linearly_stratified(rulebase)
    long_lived = {"topdown": TopDownEngine(rulebase)}
    if linear:
        long_lived["prove"] = LinearStratifiedProver(rulebase)
    model = PerfectModelEngine(rulebase, max_databases=3000)
    patterns = [
        Atom(name, (Variable("X"),) * (rulebase.arity(name) or 0))
        for name in sorted(rulebase.defined_predicates())
    ]

    def fresh(kind):
        if kind == "prove":
            return LinearStratifiedProver(rulebase)
        return TopDownEngine(rulebase)

    def agree(at, query, with_model=True):
        ask = isinstance(query, Hypothetical)
        run = (lambda engine: engine.ask(at, query)) if ask else (
            lambda engine: engine.answers(at, query)
        )
        expected = None
        if with_model:
            try:
                expected = run(model)
            except EvaluationError:
                return False  # the model engine's per-call cap
        for kind, engine in long_lived.items():
            answer = run(engine)
            assert answer == run(fresh(kind)), (kind, at, query)
            if expected is not None:
                assert answer == expected, (kind, at, query)
        return True

    for asserted, retracted, fact, adds in steps:
        db = db.without_facts(*retracted).with_facts(*asserted)
        change = ((fact,), ()) if adds else ((), (fact,))
        inside = set(fact.args) <= set(model.domain(db))
        world = db.child(*change)
        for pattern in patterns:
            if not agree(db, pattern):
                return
            if not agree(db, Hypothetical(pattern, *change), with_model=inside):
                return
            if not agree(world, pattern):
                return


def test_agreement_property_reaches_seeded_models():
    """The property above exercises seeding: a generated shape with a
    positive Delta layer under a hypothetical rule seeds from the
    call's database and from the previous call's."""
    rulebase = parse_program(
        "p0(X) :- e0(X).\n"
        "p1(X) :- e1(X), p0(X).\n"
        "p1(X) :- e1(X), p1(X)[add: e0(a)].\n"
    )
    assert is_linearly_stratified(rulebase)
    prover = LinearStratifiedProver(rulebase)
    db = parse_database("e1(a). e1(b).")
    assert prover.answers(db, "p0(X)") == set()
    assert prover.answers(db, "p1(X)") == {("a",)}
    in_call = _seeded(prover)
    assert in_call >= 1  # Delta_1 at db + {e0(a)} from Delta_1 at db
    grown = db.with_facts(Atom("e0", (Constant("b"),)))
    assert prover.answers(grown, "p0(X)") == {("b",)}
    assert _seeded(prover) == in_call + 1  # from the previous call's db
    assert prover.answers(grown, "p1(X)") == {("a",), ("b",)}


# ----------------------------------------------------------------------
# Shapes a seed cannot cover
# ----------------------------------------------------------------------


class TestShapesThatMustNotSeed:
    def test_negation_inside_the_segment(self):
        """The seed's delta holds added facts only: it cannot retract
        ``p(x)`` when the what-if adds ``b(x)``."""
        prover = LinearStratifiedProver(parse_program("p(X) :- a(X), ~b(X)."))
        db = parse_database("a(x).")
        assert prover.ask(db, "p(x)") is True
        assert prover.ask(db, "p(x)[add: b(x)]") is False
        assert prover.ask(db.with_facts(Atom("b", (Constant("x"),))), "p(x)") is False
        assert _seeded(prover) == 0

    def test_delta_rule_reading_a_growing_lower_sigma_predicate(self):
        """``d`` reads the Sigma predicate ``s``, decided by the lower
        oracle; adding ``e(x)`` makes ``s(x)`` true, which no added
        fact of the seed's delta shows.  The least stratification puts
        ``d`` in Sigma_1 (there a Delta_2 predicate is forced up by a
        negation in its own or a lower layer, which ends the prefix
        first), but a caller may pass any valid one."""
        rulebase = parse_program(
            "r(X) :- m(X), e(X).\n"
            "s(X) :- f(X), r(X)[add: m(X)].\n"
            "d(X) :- f(X), s(X).\n"
        )
        stratification = LinearStratification(rulebase, {"r": 1, "s": 2, "d": 3})
        tracer = Tracer()
        prover = LinearStratifiedProver(rulebase, stratification, tracer=tracer)
        db = parse_database("f(x).")
        assert prover.ask(db, "r(x)") is False  # holds Delta_1 at db
        assert prover.ask(db, "d(x)") is False  # holds Delta_2 at db
        assert prover.ask(db, "d(x)[add: e(x)]") is True
        assert prover.answers(db.with_facts(Atom("e", (Constant("x"),))), "d(X)") == {
            ("x",)
        }
        # Delta_1 (r: positive, EDB only) seeds; Delta_2 never does.
        assert _seeded_segments(tracer) == {"Delta_1"}

    def test_unsafe_head_under_an_assumed_new_constant(self):
        """``u(X, Y)`` grounds ``Y`` over the domain: a constant the
        assumed fact brings meets no delta, so the seed is refused
        while the domain grows, and taken while it stays the same."""
        shared = SharedRulebase(parse_program("u(X, Y) :- a(X)."), parse_database("a(x)."))
        reader = ClientSession(shared, "default")
        seeded = shared.metrics.counter("prove.delta_seeded")
        assert reader.answers("u(X, Y)") == {("x", "x")}
        assert reader.answers("u(X, Y)", assume=["b(new)"]) == {("x", "x"), ("x", "new")}
        assert seeded.value == 0
        assert reader.answers("u(X, Y)") == {("x", "x")}
        assert reader.answers("u(X, Y)", assume=["b(x)"]) == {("x", "x")}
        assert seeded.value == 1


def test_seedable_layer_below_a_non_seedable_one():
    """``q`` closes from the held model; ``p`` negates an EDB
    predicate, so its layer is recomputed at the new database."""
    tracer = Tracer()
    prover = LinearStratifiedProver(
        parse_program("q(X) :- a(X).\np(X) :- q(X), ~b(X).\n"), tracer=tracer
    )
    db = parse_database("a(x).")
    assert prover.ask(db, "p(x)") is True
    assert prover.ask(db, "p(x)[add: b(x)]") is False
    assert prover.ask(db, "q(x)[add: b(x)]") is True
    assert prover.ask(db, "p(y)[add: a(y)]") is True  # q(y) from the seeded layer
    assert prover.ask(db, "p(y)[add: b(y)]") is False
    assert _seeded(prover) == 3
    seeded = [args for label, args in _delta_spans(tracer) if "seeded" in args]
    assert [args["seeded"] for args in seeded] == [1, 1, 1]  # one layer each


# ----------------------------------------------------------------------
# A what-if costs its change
# ----------------------------------------------------------------------

_GRADUATION = (_RULEBASES / "graduation.dl").read_text()


def _what_if_firings(students):
    """``prove.delta_firings`` of one ``[add:]`` read and one
    ``assume`` read after ``grad(s1)``, over ``students`` students
    (every even-numbered one graduates; a fresh model at the
    what-if's database would fire once per graduate)."""
    lines = []
    for index in range(students):
        lines += [f"student(s{index}).", f"take(s{index}, his101).", f"take(s{index}, eng201)."]
        if index % 2 == 0:
            lines.append(f"take(s{index}, cs250).")
    shared = SharedRulebase(parse_program(_GRADUATION), parse_database("\n".join(lines)))
    reader = ClientSession(shared, "default")
    firings = shared.metrics.counter("prove.delta_firings")
    assert reader.ask("grad(s1)") is False
    before = firings.value
    assert reader.ask("grad(s1)[add: take(s1, cs250)]") is True
    what_if = firings.value - before
    before = firings.value
    # Another student: the what-if's database is cached, so assuming
    # the same fact would be a cache hit.
    assert reader.ask("grad(s3)", assume=["take(s3, cs250)"]) is True
    assumed = firings.value - before
    assert shared.metrics.counter("prove.delta_seeded").value == 2
    return what_if, assumed


def test_what_if_firings_do_not_grow_with_the_database():
    assert _what_if_firings(50) == _what_if_firings(300) == (1, 1)


def test_delta_target_is_joined_first_and_traced_so():
    """A seeded round joins the premise it restricts to the delta
    first, although the planner would start from the smaller
    relation, and the traced plan reports that order."""
    tracer = Tracer()
    prover = LinearStratifiedProver(
        parse_program("r(X, Y) :- big(X, Y), small(Y)."), tracer=tracer
    )
    db = parse_database(
        "small(k).\n" + "\n".join(f"big(b{index}, k)." for index in range(20))
    )
    assert prover.ask(db, "r(b0, k)") is True
    assert prover.ask(db, "r(n, k)[add: big(n, k)]") is True
    plans = []
    stack = [tracer.root]
    while stack:
        node = stack.pop()
        if node.kind == "plan":
            plans.append(node.label)
        if node.is_span:
            stack.extend(node.children)
    assert "small big" in plans  # the full first round at db
    assert "big small" in plans  # the seeded round at db + {big(n, k)}


# ----------------------------------------------------------------------
# answers reads the model
# ----------------------------------------------------------------------

_SHIPPED = {
    "addition_chain.dl": "b2.",
    "coloring.dl": "node(a). node(b). node(c). edge(a, b). edge(b, c). color(r). color(g).",
    "example9.dl": "b1. d1. b2. d3.",
    "graduation.dl": (
        "student(tony). student(sue). take(tony, his101). take(tony, eng201). "
        "take(sue, his101). take(sue, eng201). take(sue, cs250)."
    ),
    "hamiltonian.dl": "node(a). node(b). node(c). edge(a, b). edge(b, c). edge(c, a).",
    "order_iteration.dl": "first(o1). next(o1, o2). next(o2, o3). last(o3).",
    "parity.dl": "a(x). a(y). a(z).",
}


def _patterns(rulebase, constants):
    """Every predicate with distinct variables, with a constant in the
    first position, and with its first two positions repeated."""
    for name in sorted(rulebase.mentioned_predicates()):
        arity = rulebase.arity(name) or 0
        free = tuple(Variable(f"V{index}") for index in range(arity))
        yield Atom(name, free)
        if arity >= 1:
            for constant in constants:
                yield Atom(name, (constant,) + free[1:])
        if arity >= 2:
            yield Atom(name, (free[0], free[0]) + free[2:])


@pytest.mark.parametrize("name", sorted(_SHIPPED))
def test_answers_match_the_grounding_loop(name):
    rulebase = parse_program((_RULEBASES / name).read_text())
    assert is_linearly_stratified(rulebase)
    db = parse_database(_SHIPPED[name])
    prover = LinearStratifiedProver(rulebase)
    topdown = TopDownEngine(rulebase)
    constants = sorted(db.constants(), key=str)[:2]
    for pattern in _patterns(rulebase, constants):
        assert prover.answers(db, pattern) == topdown.answers(db, pattern), pattern


def test_shipped_patterns_cover_edb_delta_and_sigma():
    kinds = set()
    for name in _SHIPPED:
        rulebase = parse_program((_RULEBASES / name).read_text())
        stratification = LinearStratifiedProver(rulebase).stratification
        for predicate in rulebase.mentioned_predicates():
            segment = stratification.segment_of(predicate)
            kinds.add("edb" if segment == 0 else ("delta", "sigma")[1 - segment % 2])
    assert kinds == {"edb", "delta", "sigma"}


def test_delta_pattern_answers_from_one_model_lookup():
    rulebase = parse_program(_GRADUATION)
    db = parse_database(_SHIPPED["graduation.dl"])
    prover = LinearStratifiedProver(rulebase)
    hits = prover.metrics.counter("prove.delta_cache_hits")
    assert prover.answers(db, "grad(S)") == {("sue",)}
    assert hits.value == 0  # the first call computes the model
    assert prover.answers(db, "grad(S)") == {("sue",)}
    assert hits.value == 1


def test_budgeted_answers_attach_a_subset():
    rulebase = parse_program((_RULEBASES / "hamiltonian.dl").read_text())
    db = parse_database(
        "node(a). node(b). node(c). node(d). "
        "edge(a, b). edge(b, c). edge(c, d). edge(d, a). edge(b, d)."
    )
    full = LinearStratifiedProver(rulebase).answers(db, "path(X)")
    counting = Budget()
    LinearStratifiedProver(rulebase).answers(db, "path(X)", budget=counting)
    assert counting.steps >= 2
    prover = LinearStratifiedProver(rulebase)
    with pytest.raises(ResourceExhausted) as exc:
        prover.answers(db, "path(X)", budget=Budget(max_steps=counting.steps // 2))
    assert exc.value.partial.answers is not None
    assert exc.value.partial.answers <= full
    assert prover.answers(db, "path(X)") == full
