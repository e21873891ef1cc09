"""Property-based tests (hypothesis) for the core invariants.

The properties mirror the paper's structural claims:

* monotonicity of negation-free inference (Section 3.1 motivates
  negation exactly because the base system is monotonic);
* order independence / genericity of constant-free rulebases
  (Sections 6.1 and 6.2.3);
* the parity rulebase computes parity on arbitrary relations
  (Example 6);
* the three engines agree wherever they all apply;
* parser/printer and serializer round trips;
* matching really grounds patterns to stored facts.
"""

import string

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.ast import Hypothetical, Negated, Positive, Rule, Rulebase
from repro.core.database import Database
from repro.core.errors import EvaluationError
from repro.core.parser import parse_rule
from repro.core.terms import Atom, Constant, Variable
from repro.core.unify import match
from repro.engine.interpretation import Interpretation
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine
from repro.io.serialize import (
    dumps_database,
    dumps_rulebase,
    loads_database,
    loads_rulebase,
)
from repro.library import parity_db, parity_rulebase

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

constants = st.sampled_from([Constant(name) for name in "abcd"])
variables = st.sampled_from([Variable(name) for name in "XYZ"])
predicates = st.sampled_from(["p", "q", "r", "s"])


@st.composite
def atoms(draw, max_arity=2, ground=False):
    predicate = draw(predicates)
    arity = draw(st.integers(0, max_arity))
    pool = constants if ground else st.one_of(constants, variables)
    args = tuple(draw(pool) for _ in range(arity))
    return Atom(f"{predicate}{arity}", args)  # arity-tag avoids clashes


@st.composite
def ground_databases(draw):
    facts = draw(st.lists(atoms(ground=True), max_size=12))
    return Database(facts)


@st.composite
def relation_rows(draw, ragged=False):
    """Up to 30 rows of one relation: binary, or of ragged arity."""
    arity = st.sampled_from([1, 2, 2, 2, 3]) if ragged else st.just(2)
    return draw(
        st.lists(
            arity.flatmap(lambda n: st.tuples(*[constants] * n)), max_size=30
        )
    )


@st.composite
def layered_patterns(draw):
    """Patterns over ``r`` (arity 0-3, constants and repeatable
    variables) or the 0-ary ``z``."""
    if draw(st.integers(0, 5)) == 0:
        return Atom("z", ())
    arity = draw(st.integers(0, 3))
    pool = st.one_of(constants, variables)
    return Atom("r", tuple(draw(pool) for _ in range(arity)))


@st.composite
def positive_rules(draw):
    """Random negation-free rules (positive + hypothetical premises)."""
    head = draw(atoms())
    body = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind < 2:
            body.append(Positive(draw(atoms())))
        else:
            goal = draw(atoms())
            additions = tuple(
                draw(atoms()) for _ in range(draw(st.integers(1, 2)))
            )
            body.append(Hypothetical(goal, additions))
    return Rule(head, tuple(body))


@st.composite
def positive_rulebases(draw):
    return Rulebase(draw(st.lists(positive_rules(), max_size=4)))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestRoundTrips:
    @SETTINGS
    @given(positive_rulebases())
    def test_print_parse_identity(self, rulebase):
        for item in rulebase:
            assert parse_rule(str(item)) == item

    @SETTINGS
    @given(positive_rulebases())
    def test_json_rulebase_round_trip(self, rulebase):
        assert loads_rulebase(dumps_rulebase(rulebase)) == rulebase

    @SETTINGS
    @given(ground_databases())
    def test_json_database_round_trip(self, db):
        assert loads_database(dumps_database(db)) == db


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------


class TestMatching:
    @SETTINGS
    @given(ground_databases(), atoms())
    def test_matches_ground_to_stored_facts(self, db, pattern):
        for binding in db.matches(pattern):
            grounded = pattern.substitute(binding)
            assert grounded.is_ground
            assert grounded in db

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        relation_rows(ragged=True),
        relation_rows(),
        relation_rows(),
        st.sampled_from(["database", "derived", None]),
        layered_patterns(),
        st.data(),
    )
    def test_an_interpretation_matches_what_a_flat_atom_set_matches(
        self, stored, early, late, nullary, pattern, data
    ):
        # Relations of 0-30 rows per layer take both the scan and the
        # position-map path (8 rows and up); the late rows arrive after
        # the interpretation's first (possibly indexed) match.
        facts = [Atom("r", args) for args in stored]
        if nullary == "database":
            facts.append(Atom("z", ()))
        db = Database(facts)
        interp = Interpretation(db)
        interp.update(Atom("r", args) for args in early)
        if nullary == "derived":
            interp.add(Atom("z", ()))
        binding = {
            var: data.draw(constants)
            for var in dict.fromkeys(pattern.variables())
            if data.draw(st.booleans())
        }
        for more in ((), late):
            interp.update(Atom("r", args) for args in more)
            found = list(interp.matches(pattern, binding))
            assert _multiset(found) == _multiset(
                _flat_matches(interp, pattern, binding)
            )
            stored_first = [pattern.substitute(b) in db for b in found]
            assert stored_first == sorted(stored_first, reverse=True)
            assert _multiset(db.matches(pattern, binding)) == _multiset(
                _flat_matches(db, pattern, binding)
            )


def _flat_matches(atoms_, pattern, binding):
    """A brute-force match of ``pattern`` against every atom."""
    found = (match(pattern, item, binding) for item in atoms_)
    return [extended for extended in found if extended is not None]


def _multiset(bindings):
    return sorted(
        tuple(sorted((var.name, str(value)) for var, value in b.items()))
        for b in bindings
    )


# ----------------------------------------------------------------------
# Monotonicity of the negation-free fragment
# ----------------------------------------------------------------------


class TestMonotonicity:
    @SETTINGS
    @given(positive_rulebases(), ground_databases(), atoms(ground=True))
    def test_adding_facts_never_removes_inferences(self, rulebase, db, extra):
        engine = TopDownEngine(rulebase)
        bigger = db.with_facts(extra)
        goals = [Atom(f"p{a}", tuple(Constant(c) for c in "ab"[:a])) for a in (0, 1)]
        for goal in goals:
            if engine.ask(db, goal):
                assert engine.ask(bigger, goal)

    @SETTINGS
    @given(positive_rulebases(), ground_databases())
    def test_model_contains_database(self, rulebase, db):
        # A rare draw combines hypothetical premises into a program
        # whose database lattice exceeds any reasonable budget —
        # Theorem 1 says such programs exist, so reject them quickly
        # (small budget) rather than grinding through the default one.
        engine = PerfectModelEngine(rulebase, max_databases=2_000)
        try:
            model = engine.model(db)
        except EvaluationError:
            assume(False)
        assert db.facts <= model


# ----------------------------------------------------------------------
# Engine agreement
# ----------------------------------------------------------------------


class TestEngineAgreement:
    @SETTINGS
    @given(positive_rulebases(), ground_databases())
    def test_three_engines_agree_on_positive_programs(self, rulebase, db):
        from repro.analysis.stratify import is_linearly_stratified

        model = PerfectModelEngine(rulebase, max_databases=3000)
        top = TopDownEngine(rulebase)
        engines = [model, top]
        if is_linearly_stratified(rulebase):
            engines.append(LinearStratifiedProver(rulebase))
        goals = [
            Atom("p0", ()),
            Atom("q0", ()),
            Atom("p1", (Constant("a"),)),
            Atom("q2", (Constant("a"), Constant("b"))),
        ]
        from repro.core.errors import EvaluationError

        for goal in goals:
            try:
                expected = model.ask(db, goal)
            except EvaluationError:
                # Blew the database budget.  Every goal is read off the
                # one model at db: the next ask would only resume that
                # lattice under a fresh per-call budget.
                break
            for engine in engines[1:]:
                assert engine.ask(db, goal) == expected


# ----------------------------------------------------------------------
# Engine agreement on random programs WITH stratified negation
# ----------------------------------------------------------------------


@st.composite
def stratified_rulebases(draw):
    """Random layered programs mixing positives, hypotheticals, and
    negation, stratified by construction: predicate ``p{i}`` may negate
    only strictly lower predicates (or EDB), reference lower-or-equal
    predicates positively, and recurse hypothetically on itself.
    Arities are fixed per predicate so rulebases always validate."""
    from repro.core.ast import Negated as Neg

    layers = draw(st.integers(1, 3))
    arity_of = {f"p{index}": draw(st.integers(0, 1)) for index in range(layers)}
    edb = ["e0", "e1"]  # unary EDB predicates
    rules = []

    def idb_atom(name):
        if arity_of[name] == 0:
            return Atom(name, ())
        return Atom(name, (draw(st.one_of(constants, variables)),))

    for index in range(layers):
        name = f"p{index}"
        head_args = (Variable("X"),) if arity_of[name] else ()
        head = Atom(name, head_args)
        for _ in range(draw(st.integers(1, 2))):
            body = []
            if head_args:
                body.append(
                    Positive(Atom(draw(st.sampled_from(edb)), (Variable("X"),)))
                )
            for _ in range(draw(st.integers(0, 2))):
                kind = draw(st.integers(0, 2))
                use_edb = draw(st.booleans())
                target_layer = draw(st.integers(0, index))
                if use_edb:
                    target = Atom(
                        draw(st.sampled_from(edb)),
                        (draw(st.one_of(constants, variables)),),
                    )
                else:
                    target = idb_atom(f"p{target_layer}")
                if kind == 0:
                    body.append(Positive(target))
                elif kind == 1 and (use_edb or target_layer < index):
                    body.append(Neg(target))
                else:
                    body.append(
                        Hypothetical(
                            Atom(name, head_args),
                            (
                                Atom(
                                    draw(st.sampled_from(edb)),
                                    (Constant(draw(st.sampled_from("ab"))),),
                                ),
                            ),
                        )
                    )
            rules.append(Rule(head, tuple(body)))
    return Rulebase(rules)


@st.composite
def edb_databases(draw):
    """Facts over the unary EDB predicates the stratified strategy uses."""
    facts = []
    for predicate in ("e0", "e1"):
        for payload in draw(st.sets(st.sampled_from("abc"), max_size=3)):
            facts.append(Atom(predicate, (Constant(payload),)))
    return Database(facts)


class TestStratifiedAgreement:
    @SETTINGS
    @given(stratified_rulebases(), edb_databases())
    def test_engines_agree_with_negation(self, rulebase, db):
        from repro.analysis.stratify import is_linearly_stratified
        from repro.core.errors import EvaluationError, StratificationError

        try:
            top = TopDownEngine(rulebase)
            model = PerfectModelEngine(rulebase, max_databases=3000)
        except StratificationError:
            return  # hypothesis generated recursion through negation? skip
        engines = [top]
        if is_linearly_stratified(rulebase):
            engines.append(LinearStratifiedProver(rulebase))
        goals = [Atom("p0", ()), Atom("p1", ()), Atom("p2", ())]
        for goal in goals:
            try:
                expected = model.ask(db, goal)
            except EvaluationError:
                break  # blew the budget; every goal needs the same model
            for engine in engines:
                assert engine.ask(db, goal) == expected


# ----------------------------------------------------------------------
# Proof round trips
# ----------------------------------------------------------------------


class TestProofProperties:
    @SETTINGS
    @given(positive_rulebases(), ground_databases())
    def test_provable_goals_have_verifiable_proofs(self, rulebase, db):
        from repro.engine.proofs import Explainer, verify_proof

        engine = TopDownEngine(rulebase)
        explainer = Explainer(rulebase)
        for goal in (Atom("p0", ()), Atom("q1", (Constant("a"),))):
            if engine.ask(db, goal):
                proof = explainer.explain(db, goal)
                assert proof is not None, f"{goal} provable but unexplained"
                assert verify_proof(rulebase, proof)
            else:
                assert explainer.explain(db, goal) is None


# ----------------------------------------------------------------------
# Example 6 as a property: parity of arbitrary relations
# ----------------------------------------------------------------------


class TestParityProperty:
    @SETTINGS
    @given(st.sets(st.sampled_from(list(string.ascii_lowercase[:8])), max_size=8))
    def test_even_iff_cardinality_even(self, items):
        engine = LinearStratifiedProver(parity_rulebase())
        db = parity_db(sorted(items))
        assert engine.ask(db, "even") == (len(items) % 2 == 0)

    @SETTINGS
    @given(
        st.sets(st.sampled_from(list(string.ascii_lowercase[:6])), max_size=6),
        st.permutations(list(string.ascii_lowercase[:6])),
    )
    def test_genericity_under_permutations(self, items, shuffled):
        # Section 6.2.3: renaming the domain never changes a
        # constant-free rulebase's yes/no answer.
        mapping = dict(zip(string.ascii_lowercase[:6], shuffled))
        engine = LinearStratifiedProver(parity_rulebase())
        db = parity_db(sorted(items))
        renamed = db.rename(mapping)
        assert engine.ask(db, "even") == engine.ask(renamed, "even")


# ----------------------------------------------------------------------
# The intuitionistic laws on random tiny programs (footnote 3)
# ----------------------------------------------------------------------


@st.composite
def tiny_positive_rulebases(draw):
    """Negation-free propositional programs over a 5-atom vocabulary —
    small enough to enumerate the full Kripke world lattice."""
    names = ["u", "v", "w", "y"]
    prop = st.sampled_from([Atom(name, ()) for name in names])
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(prop)
        body = []
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                body.append(Positive(draw(prop)))
            else:
                body.append(Hypothetical(draw(prop), (draw(prop),)))
        rules.append(Rule(head, tuple(body)))
    return Rulebase(rules)


class TestKripkeProperty:
    @settings(max_examples=10, deadline=None)
    @given(tiny_positive_rulebases())
    def test_intuitionistic_laws_hold(self, rulebase):
        from repro.semantics.kripke import KripkeStructure

        structure = KripkeStructure.build(rulebase, Database())
        assert structure.check_persistence() is None
        assert structure.check_implication_law() is None


# ----------------------------------------------------------------------
# Stratification invariants
# ----------------------------------------------------------------------


class TestStratificationProperty:
    @SETTINGS
    @given(st.integers(1, 6), st.integers(0, 100))
    def test_layered_rulebases_round_trip_strata(self, strata, seed):
        from repro.analysis.stratify import linear_stratification
        from repro.bench.workloads import random_layered_rulebase

        rulebase = random_layered_rulebase(3 * strata, strata, seed)
        stratification = linear_stratification(rulebase)
        assert stratification.k == strata
        # Every rule is assigned to exactly one segment, and the
        # H-stratification constraints hold by construction.
        assigned = sum(
            len(stratification.segment_rules(segment))
            for segment in range(1, stratification.n_segments + 1)
        )
        assert assigned == len(rulebase)
