"""Evaluation engines.

* :mod:`repro.engine.model` — the bottom-up evaluator: reference
  perfect models for the full hypothetical language (memoized per
  database); plain and stratified Datalog are its hypothesis-free
  special cases.
* :mod:`repro.engine.delta` — the one semi-naive stratum closure loop,
  shared by the model engine and PROVE_Delta.
* :mod:`repro.engine.prove` — the paper's PROVE_Sigma / PROVE_Delta
  cascade for linearly stratified rulebases.
* :mod:`repro.engine.topdown` — tabled goal-directed evaluation for the
  full (PSPACE) language.
* :mod:`repro.engine.proofs` — proof objects: explanations with an
  independent Definition 3 checker.
* :mod:`repro.engine.query` — engine-agnostic session API.

All engines accept ``metrics=`` (a
:class:`~repro.obs.metrics.MetricsRegistry`, where their work counters
are read) and ``tracer=`` (a :class:`~repro.obs.trace.Tracer`) keyword
arguments; see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``.  They also accept
``budget=`` (a :class:`~repro.engine.budget.Budget`) bounding
evaluation by wall-clock deadline, inference steps, derived atoms,
proof depth, and cooperative cancellation; see
:mod:`repro.engine.budget` and ``docs/ROBUSTNESS.md``.
"""

from .budget import Budget, CancellationToken, NULL_BUDGET
from .interpretation import Interpretation
from .model import PerfectModelEngine
from .proofs import Explainer, PremiseStep, Proof, format_proof, verify_proof
from .prove import LinearStratifiedProver
from .query import Session, answers, ask
from .topdown import TopDownEngine

__all__ = [
    "Budget",
    "CancellationToken",
    "NULL_BUDGET",
    "Interpretation",
    "PerfectModelEngine",
    "LinearStratifiedProver",
    "TopDownEngine",
    "Explainer",
    "Proof",
    "PremiseStep",
    "verify_proof",
    "format_proof",
    "Session",
    "ask",
    "answers",
]
