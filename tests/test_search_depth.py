"""How deep a linear proof the goal search answers.

Theorem 3 bounds the proofs of Examples 4 and 5, so what limits a long
chain is Python's stack: each hypothetical level costs the goal search
a fixed number of frames (the goal, one ``extend`` per premise joined
before the hypothetical, and the hypothetical expander; three on
Example 4, four on Example 5).  The top-down engine and the Explainer
also decide Example 5's ``covered`` recursion top-down, five frames a
level.  Each engine must answer both chains at about 90% of the
deepest one it answered under pytest at recursion limit 1000 when this
test was written (PROVE 234 and 236, the top-down engine and the
Explainer 104 and 237), so a change that adds one frame per level
fails here.  On Example 5 the top-down engine and the Explainer must
reach 93%: one more frame on the hypothetical level alone takes them
to 94.
"""

import sys

import pytest

from repro.core.database import Database
from repro.engine.proofs import Explainer
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine
from repro.library.chains import (
    addition_chain_rulebase,
    order_db,
    order_iteration_rulebase,
)

#: (example, engine) -> the chain length that must be answered.
CHAINS = {
    (5, "prove"): 211,
    (5, "topdown"): 97,
    (5, "explain"): 97,
    (4, "prove"): 212,
    (4, "topdown"): 213,
    (4, "explain"): 213,
}


@pytest.fixture
def recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


@pytest.mark.parametrize(
    "example, engine", list(CHAINS), ids=[f"example{e}-{n}" for e, n in CHAINS]
)
def test_answers_a_long_chain(recursion_limit, example, engine):
    n = CHAINS[example, engine]
    if example == 5:
        rulebase, db, query = order_iteration_rulebase(), order_db(n), "a"
    else:
        rulebase, db, query = addition_chain_rulebase(n), Database(), "a1"
    if engine == "explain":
        proof = Explainer(rulebase).explain(db, query)
        assert proof is not None and proof.depth() >= n
    elif engine == "prove":
        assert LinearStratifiedProver(rulebase).ask(db, query) is True
    else:
        assert TopDownEngine(rulebase).ask(db, query) is True
