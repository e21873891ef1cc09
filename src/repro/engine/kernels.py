"""Generated join kernels: compiled rule bodies for the bottom-up engines.

The interpreted hot path evaluates a rule body by recursive generator
composition (:func:`repro.engine.body.satisfy_body`): every premise
visit allocates substitution dicts, re-walks pattern atoms, and
re-dispatches on premise kind.  This module compiles each *planned*
rule body — the premise order PR 1's cost planner fixes, including the
delta-keyed semi-naive variants of :mod:`repro.engine.delta` — into a
generated Python closure of specialized bind/probe/filter loops over
interned int tuples (:mod:`repro.core.interning`,
:mod:`repro.core.columns`), with constant tests hoisted and
negation/hypothetical premises inlined in int space (the hypothetical
*recursion* case stays a guarded call back into the engine).

Counter parity is the contract.  The semi-naive driver still counts
firings, charges budgets, runs tracer spans, and deduplicates heads —
kernels only replace the body enumeration, and they replicate its
observable behavior exactly:

* each head the interpreted path would yield is yielded (same
  multiset, so ``model.rule_firings`` matches firing for firing);
* negation tests bump the engine's ``model.negation_tests`` counter at
  the same structural points;
* hypothetical recursion-case instances call back into the engine
  (same child-model construction, trace spans, and lattice memo
  behavior), while the collapse case — "additions already present,
  test the goal in the current fixpoint" — runs entirely in int
  space.  The engine memoizes recursion-case *decisions* per
  (premise shape up to variable renaming, database, grounding): truth
  there is fixed once the child model exists, so
  ``model.hypothesis_expansions`` counts distinct instances on the
  compiled path rather than one per semi-naive re-fire or per premise
  that spells the same instance — that collapse of repeated work is a
  deliberate part of the speedup, not a parity bug;
* in provenance mode the generated code reconstructs the exact binding
  dict the interpreted path would hand the ``record`` sink.

Anything outside the compilable fragment (hypothetical deletions) and
any rule whose plan raises falls back to the interpreted path per
firing — kernels are an optimization, never a semantics gate.

Caching is three-leveled: generated *source* is cached globally per
source string (identical rule shapes across engines share one
``exec``); instantiated kernels are cached per engine keyed by
(rule, premise order, delta position, record mode); encoded relations
are cached per engine keyed by the copy-on-write frozenset object, so
one encode pass serves every lattice child that shares the relation.
Encodings keep what the engine's last two calls used.  Join orders are
the engine's :class:`~repro.analysis.planner.JoinPlanner`'s: a run asks
its ``plan`` once per rule per model, at the rule's stratum's sizes, so
the planner's memo serves the kernels and the interpreted closures
alike.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..analysis.planner import (
    KernelPlan,
    KernelUnsupported,
    kernel_plan,
    nonlocal_variables,
    ordered_premises,
)
from ..core.ast import Hypothetical, Positive, Rule
from ..core.columns import ColumnStore, RelationView
from ..core.errors import EvaluationError
from ..core.interning import SymbolTable
from ..core.terms import Constant, Variable
from ..obs.metrics import Counter

__all__ = [
    "COMPILE_MODES",
    "KernelProgram",
    "KernelRun",
    "compile_mode",
    "generate_source",
]

COMPILE_MODES = ("auto", "on", "off")

_MISSING = object()

# source text -> compiled _factory; shared across every engine in the
# process, so identical rule shapes are exec'd exactly once.
_SOURCE_FACTORIES: dict[str, Callable] = {}


def compile_mode(value) -> str:
    """Normalize a ``compile=`` argument to ``"auto"|"on"|"off"``."""
    if value is True or value == "on":
        return "on"
    if value is False or value == "off":
        return "off"
    if value is None or value == "auto":
        return "auto"
    raise EvaluationError(
        f"unknown compile mode {value!r}; use one of {COMPILE_MODES}"
    )


def _tuple_expr(parts: Sequence[str]) -> str:
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _unpack(names: Sequence[str], source: str) -> str:
    if len(names) == 1:
        return f"{names[0]}, = {source}"
    return ", ".join(names) + f" = {source}"


def generate_source(
    plan: KernelPlan, target_index: int, record: bool
) -> tuple[str, tuple[Constant, ...], tuple[Variable, ...]]:
    """Render one access plan to kernel source.

    Returns ``(source, constants, variables)``: the factory text plus
    the constants/variable objects its ``CONSTS``/``VARS`` parameters
    must be bound to (ids per engine, so the source itself is
    engine-neutral and globally cacheable).
    """
    consts: dict[Constant, str] = {}
    var_objs: dict[Variable, str] = {}
    env: dict[Variable, str] = {}
    prelude: list[str] = []
    body: list[tuple[int, str]] = []
    flags = {"view": False, "dom": False, "dec": False, "neg": False,
             "prb": False, "empty": False}
    counter = iter(range(1 << 30))

    def const_name(item: Constant) -> str:
        name = consts.get(item)
        if name is None:
            name = f"K{len(consts)}"
            consts[item] = name
        return name

    def var_obj(item: Variable) -> str:
        name = var_objs.get(item)
        if name is None:
            name = f"W{len(var_objs)}"
            var_objs[item] = name
        return name

    def slot_expr(kind: str, payload) -> str:
        if kind == "const":
            return const_name(payload)
        return env[payload]

    def emit(depth: int, line: str) -> None:
        body.append((depth, line))

    def emit_domain_loops(depth: int, variables) -> int:
        flags["dom"] = flags["dom"] or bool(variables)
        for item in variables:
            name = f"x{next(counter)}"
            env[item] = name
            emit(depth, f"for {name} in DOM:")
            depth += 1
        return depth

    depth = 0
    for position, step in enumerate(plan.steps):
        if position == plan.ground_at:
            depth = emit_domain_loops(depth, plan.ground_vars)
        k = position
        access = step.atoms[0]
        pred = access.atom.predicate
        arity = access.arity
        is_target = target_index >= 0 and step.index == target_index

        if step.kind == "positive":
            if access.is_ground:
                flags["prb"] = True
                parts = [slot_expr(kind, p) for kind, p in access.slots]
                emit(depth, "PRB.value += 1")
                emit(depth, f"t{k} = {_tuple_expr(parts) if parts else '()'}")
                if is_target:
                    prelude.append(f"DS{k} = ctx.delta_rowset({pred!r})")
                    emit(depth, f"if t{k} in DS{k}:")
                else:
                    flags["view"] = True
                    prelude.append(f"RB{k}, RO{k} = _view({pred!r}).rowsets()")
                    emit(depth, f"if t{k} in RB{k} or t{k} in RO{k}:")
                depth += 1
                continue
            # Row enumeration: probe the per-position index when a
            # position is known, else scan the relation.
            if access.probe is not None:
                flags["prb"] = True
                flags["empty"] = True
                kind, payload = access.slots[access.probe]
                key = slot_expr(kind, payload)
                if is_target:
                    prelude.append(
                        f"I{k} = ctx.delta_index({pred!r}, {arity}, {access.probe})"
                    )
                else:
                    flags["view"] = True
                    prelude.append(
                        f"I{k} = _view({pred!r}).index({arity}, {access.probe})"
                    )
                emit(depth, "PRB.value += 1")
                emit(depth, f"for r{k} in I{k}.get({key}, _E):")
            else:
                if is_target:
                    prelude.append(f"T{k} = ctx.delta_tuples({pred!r}, {arity})")
                else:
                    flags["view"] = True
                    prelude.append(f"T{k} = _view({pred!r}).tuples({arity})")
                emit(depth, f"for r{k} in T{k}:")
            depth += 1
            names = []
            checks: list[str] = []
            for i, (kind, payload) in enumerate(access.slots):
                if kind == "bind":
                    name = f"a{k}_{i}"
                    env[payload] = name
                    names.append(name)
                elif kind == "check":
                    name = f"a{k}_{i}"
                    names.append(name)
                    checks.append(f"if {name} != {env[payload]}: continue")
                elif i == access.probe:
                    names.append("_")
                else:
                    name = f"a{k}_{i}"
                    names.append(name)
                    checks.append(
                        f"if {name} != {slot_expr(kind, payload)}: continue"
                    )
            if any(name != "_" for name in names):
                emit(depth, _unpack(names, f"r{k}"))
            for check in checks:
                emit(depth, check)
            continue

        if step.kind == "negated":
            flags["neg"] = True
            emit(depth, "NEG.value += 1")
            if access.is_ground:
                flags["view"] = True
                flags["prb"] = True
                prelude.append(f"RB{k}, RO{k} = _view({pred!r}).rowsets()")
                parts = [slot_expr(kind, p) for kind, p in access.slots]
                emit(depth, "PRB.value += 1")
                emit(depth, f"t{k} = {_tuple_expr(parts) if parts else '()'}")
                emit(depth, f"if t{k} not in RB{k} and t{k} not in RO{k}:")
                depth += 1
                continue
            constrained = any(
                kind in ("const", "bound", "check") for kind, _ in access.slots
            )
            if not constrained:
                # Any row of the right arity matches a free pattern.
                flags["view"] = True
                prelude.append(f"TOT{k} = _view({pred!r}).total({arity})")
                emit(depth, f"if not TOT{k}:")
                depth += 1
                continue
            local: dict[Variable, str] = {}
            if access.probe is not None:
                flags["view"] = True
                flags["prb"] = True
                flags["empty"] = True
                kind, payload = access.slots[access.probe]
                key = slot_expr(kind, payload)
                prelude.append(
                    f"I{k} = _view({pred!r}).index({arity}, {access.probe})"
                )
                emit(depth, "PRB.value += 1")
                emit(depth, f"for r{k} in I{k}.get({key}, _E):")
            else:
                flags["view"] = True
                prelude.append(f"T{k} = _view({pred!r}).tuples({arity})")
                emit(depth, f"for r{k} in T{k}:")
            names = []
            checks = []
            for i, (kind, payload) in enumerate(access.slots):
                if kind == "bind":
                    name = f"a{k}_{i}"
                    local[payload] = name
                    names.append(name)
                elif kind == "check":
                    name = f"a{k}_{i}"
                    names.append(name)
                    checks.append(f"if {name} != {local[payload]}: continue")
                elif i == access.probe:
                    names.append("_")
                else:
                    name = f"a{k}_{i}"
                    names.append(name)
                    checks.append(
                        f"if {name} != {slot_expr(kind, payload)}: continue"
                    )
            if checks and any(name != "_" for name in names):
                emit(depth + 1, _unpack(names, f"r{k}"))
            for check in checks:
                emit(depth + 1, check)
            emit(depth + 1, "break")
            emit(depth, "else:")
            depth += 1
            continue

        # Hypothetical premise: enumerate Definition 3 instances over
        # the domain, split collapse (all additions already stored ->
        # test goal in the current fixpoint, fully in int space) from
        # recursion (guarded call back into the engine's child-model
        # machinery).
        depth = emit_domain_loops(depth, step.ground_vars)
        goal_parts = [slot_expr(kind, p) for kind, p in access.slots]
        emit(depth, f"t{k} = {_tuple_expr(goal_parts) if goal_parts else '()'}")
        conds = []
        for j, added in enumerate(step.atoms[1:]):
            parts = [slot_expr(kind, p) for kind, p in added.slots]
            emit(depth, f"u{k}_{j} = {_tuple_expr(parts) if parts else '()'}")
            prelude.append(
                f"AD{k}_{j} = ctx.db_rowset({added.atom.predicate!r})"
            )
            conds.append(f"u{k}_{j} in AD{k}_{j}")
        collapse = " and ".join(conds) if conds else "True"
        if is_target:
            prelude.append(f"DS{k} = ctx.delta_rowset({pred!r})")
            emit(depth, f"if t{k} in DS{k}:")
            depth += 1
            emit(depth, f"if {collapse}:")
            depth += 1
            continue
        flags["view"] = True
        prelude.append(f"GB{k}, GO{k} = _view({pred!r}).rowsets()")
        pvars = tuple(dict.fromkeys(step.premise.variables()))
        prelude.append(f"HY{k}, HM{k} = ctx.hypothesis(PREMS[{step.index}])")
        # Raw interned ids, in ``dict.fromkeys(premise.variables())``
        # order: recursion-case decisions of the model being closed are
        # memoized per premise shape right here in int space — the
        # engine call-back (which grounds the instance and decides it at
        # the enlarged database) runs once per distinct instance and
        # stores the verdict in HM.
        values = _tuple_expr([env[v] for v in pvars]) if pvars else "()"
        emit(depth, f"if {collapse}:")
        emit(depth + 1, f"h{k} = t{k} in GB{k} or t{k} in GO{k}")
        emit(depth, "else:")
        emit(depth + 1, f"v{k} = {values}")
        emit(depth + 1, f"h{k} = HM{k}.get(v{k})")
        emit(depth + 1, f"if h{k} is None:")
        emit(depth + 2, f"h{k} = HY{k}(v{k})")
        emit(depth, f"if h{k}:")
        depth += 1

    if plan.ground_at == len(plan.steps):
        depth = emit_domain_loops(depth, plan.ground_vars)

    head_parts = [slot_expr(kind, p) for kind, p in plan.head.slots]
    head_tuple = _tuple_expr(head_parts) if head_parts else "()"
    head_pred = plan.head.atom.predicate
    if record:
        flags["dec"] = flags["dec"] or bool(plan.bound_vars)
        binding = ", ".join(
            f"{var_obj(v)}: DEC[{env[v]}]" for v in plan.bound_vars
        )
        emit(depth, f"_h = MK({head_pred!r}, {head_tuple})")
        emit(depth, f"REC(RULE, _h, {{{binding}}})")
        emit(depth, "yield _h")
    else:
        emit(depth, f"yield MK({head_pred!r}, {head_tuple})")

    lines = ["def _factory(RULE, CONSTS, VARS, PREMS):"]
    if consts:
        lines.append("    " + _unpack(list(consts.values()), "CONSTS"))
    if var_objs:
        lines.append("    " + _unpack(list(var_objs.values()), "VARS"))
    lines.append("    def kernel(ctx):")
    lines.append("        MK = ctx.make")
    if flags["view"]:
        lines.append("        _view = ctx.view")
    if flags["dom"]:
        lines.append("        DOM = ctx.domain_ids")
    if flags["dec"]:
        lines.append("        DEC = ctx.decode")
    if flags["neg"]:
        lines.append("        NEG = ctx.neg")
    if flags["prb"]:
        lines.append("        PRB = ctx.probes")
    if record:
        lines.append("        REC = ctx.record")
    if flags["empty"]:
        lines.append("        _E = ()")
    lines.extend("        " + line for line in prelude)
    for indent, line in body:
        lines.append("        " + "    " * indent + line)
    lines.append("    return kernel")
    return "\n".join(lines) + "\n", tuple(consts), tuple(var_objs)


class _RuleSpec:
    """Static per-rule data shared by every kernel variant of one rule."""

    __slots__ = (
        "rule",
        "key",
        "positives",
        "rest",
        "default_order",
        "guards",
        "index_of",
        "has_hyp",
    )

    def __init__(self, item: Rule) -> None:
        self.rule = item
        self.key = id(item)
        ordered = ordered_premises(item.body)
        self.positives = tuple(p for p in ordered if isinstance(p, Positive))
        self.rest = [p for p in ordered if not isinstance(p, Positive)]
        self.default_order = ordered
        self.guards = nonlocal_variables(item)
        self.index_of = {id(p): i for i, p in enumerate(item.body)}
        self.has_hyp = any(isinstance(p, Hypothetical) for p in item.body)


class _Hypothesis:
    """A compiled hypothetical premise ``A[add: B...]`` as its kernel's
    call-back sees it.

    The kernel hands over the interned ids of the premise's variables
    in ``dict.fromkeys(premise.variables())`` order.  Each atom of the
    premise becomes a template: its predicate and, per argument, a
    position into ``ids + consts`` (a variable's own position, or its
    constant's after all the variables).  ``shape`` is the templates
    with the constants' ids — the premise up to renaming its variables,
    constants, repeated variables, additions and deletions kept — so
    two premises of one shape ground to the same instance from the
    same ids and may share one decision memo.  :meth:`ground` builds
    the instance's goal and additions as canonical atoms straight from
    the ids.
    """

    __slots__ = ("premise", "shape", "_consts", "_goal", "_additions", "_make")

    def __init__(self, premise: Hypothetical, symbols: SymbolTable) -> None:
        self.premise = premise
        position = {
            var: index
            for index, var in enumerate(dict.fromkeys(premise.variables()))
        }
        constants: dict[Constant, int] = {}

        def template(item):
            return item.predicate, tuple(
                position[arg]
                if isinstance(arg, Variable)
                else len(position) + constants.setdefault(arg, len(constants))
                for arg in item.args
            )

        self._goal = template(premise.atom)
        self._additions = tuple(template(item) for item in premise.additions)
        deletions = tuple(template(item) for item in premise.deletions)
        self._consts = tuple(symbols.intern(item) for item in constants)
        self.shape = (self._goal, self._additions, deletions, self._consts)
        self._make = symbols.make_atom

    def ground(self, ids: tuple[int, ...]):
        """``(goal, additions)`` of the instance at ``ids``."""
        ext = ids + self._consts if self._consts else ids
        make = self._make
        predicate, slots = self._goal
        goal = make(predicate, tuple([ext[index] for index in slots]))
        additions = tuple(
            [
                make(predicate, tuple([ext[index] for index in slots]))
                for predicate, slots in self._additions
            ]
        )
        return goal, additions


class KernelProgram:
    """Per-engine kernel state: symbols, encode cache, compiled kernels.

    One program lives as long as its engine; its :class:`SymbolTable`
    ids are therefore stable across the whole hypothesis lattice the
    engine explores, and its encoded relations keep what the engine's
    last two calls used (``store``'s
    :meth:`~repro.core.columns.ColumnStore.next_generation`).
    """

    def __init__(self, metrics=None) -> None:
        self.symbols = SymbolTable()
        self.store = ColumnStore(self.symbols)
        if metrics is not None:
            self.compiled = metrics.counter("kernel.compiled")
            self.fires = metrics.counter("kernel.fires")
            self.cache_hits = metrics.counter("kernel.cache_hits")
            self.fallbacks = metrics.counter("kernel.fallbacks")
        else:
            self.compiled = Counter("kernel.compiled")
            self.fires = Counter("kernel.fires")
            self.cache_hits = Counter("kernel.cache_hits")
            self.fallbacks = Counter("kernel.fallbacks")
        self._specs: dict[int, _RuleSpec] = {}
        self._unsupported: set[int] = set()
        # Hypothetical premises of compiled rules by id (each spec holds
        # its rule, so the ids are not recycled).
        self._hypotheses: dict[int, _Hypothesis] = {}
        self._kernels: dict[tuple, Optional[Callable]] = {}
        self._sources: dict[int, dict[tuple, str]] = {}
        self._domain_ids: Optional[tuple] = None

    def domain_ids(self, domain) -> list[int]:
        """Interned ids for a domain sequence, cached by identity.

        One evaluation passes the same domain list down through every
        lattice child, so a single-slot identity cache removes
        re-interning from the per-model setup (the slot keeps the list
        alive, so the id cannot be recycled).
        """
        cached = self._domain_ids
        if cached is not None and cached[0] is domain:
            return cached[1]
        ids = [self.symbols.intern(item) for item in domain]
        self._domain_ids = (domain, ids)
        return ids

    def spec(self, item: Rule) -> Optional[_RuleSpec]:
        key = id(item)
        found = self._specs.get(key)
        if found is None:
            if key in self._unsupported:
                return None
            if any(
                isinstance(p, Hypothetical) and p.deletions for p in item.body
            ):
                self._unsupported.add(key)
                return None
            found = self._specs[key] = _RuleSpec(item)
            for premise in item.body:
                if isinstance(premise, Hypothetical):
                    self._hypotheses[id(premise)] = _Hypothesis(
                        premise, self.symbols
                    )
        return found

    def hypothesis(self, premise: Hypothetical) -> _Hypothesis:
        """The call-back template of a compiled rule's premise."""
        return self._hypotheses[id(premise)]

    def kernel(
        self,
        spec: _RuleSpec,
        ordered,
        order_key: tuple[int, ...],
        target_key: int,
        record: bool,
    ) -> Optional[Callable]:
        key = (spec.key, order_key, target_key, record)
        found = self._kernels.get(key, _MISSING)
        if found is not _MISSING:
            if found is not None:
                self.cache_hits.value += 1
            return found
        try:
            plan = kernel_plan(spec.rule, ordered, spec.guards)
            source, const_terms, var_terms = generate_source(
                plan, target_key, record
            )
            factory = _SOURCE_FACTORIES.get(source)
            if factory is None:
                namespace: dict = {}
                exec(compile(source, "<kernel>", "exec"), namespace)
                factory = _SOURCE_FACTORIES[source] = namespace["_factory"]
            const_ids = tuple(self.symbols.intern(c) for c in const_terms)
            kern = factory(spec.rule, const_ids, var_terms, spec.rule.body)
            self.compiled.value += 1
            self._sources.setdefault(spec.key, {})[key] = source
        except KernelUnsupported:
            kern = None
        self._kernels[key] = kern
        return kern

    def sources_for(self, item: Rule) -> list[str]:
        """Every kernel source compiled so far for one rule."""
        return list(self._sources.get(id(item), {}).values())

    def preview(self, item: Rule, record: bool = False) -> Optional[str]:
        """The rule's default-order full-fire kernel source (compiling
        it on demand), or None when the rule is not compilable."""
        spec = self.spec(item)
        if spec is None:
            return None
        ordered = spec.default_order
        order_key = tuple(spec.index_of[id(p)] for p in ordered)
        kern = self.kernel(spec, ordered, order_key, -1, record)
        if kern is None:
            return None
        return self._sources[spec.key].get((spec.key, order_key, -1, record))

    def run(self, **kwargs) -> "KernelRun":
        """A per-model execution context; see :class:`KernelRun`."""
        return KernelRun(self, **kwargs)


class KernelRun:
    """One model's kernel execution context (the generated code's ``ctx``).

    Built by an engine once per model it computes and shared by every
    :func:`repro.engine.delta.close_layer` call that closes one of the
    model's strata; carries the live interpretation/database/domain,
    the engine's ``plan`` and counters, and per-model caches of
    :class:`RelationView` objects, join orders, resolved kernels,
    hypothesis hooks and recursion-case decisions.  The closure loop
    calls :meth:`begin_round` at round headers, :meth:`fire` in
    place of its interpreted body enumeration (None return means
    "interpret this one"), and :meth:`added` for every head accepted
    into the interpretation so live views stay current across rounds
    and strata.  Sharing is sound because a stratum's rules read only
    its own and lower strata's predicates and a stratum closes once per
    model: a view is made after everything that fills its relation
    without :meth:`added` (seeding, DRed), and a rule's join order is
    planned at its own stratum's sizes.
    """

    __slots__ = (
        "program",
        "interp",
        "db",
        "domain",
        "plan",
        "record",
        "neg",
        "probes",
        "hyp_call",
        "domain_ids",
        "decode",
        "make",
        "_views",
        "_delta",
        "_delta_views",
        "_db_rowsets",
        "_orders",
        "_kerns",
        "_decisions",
        "_hooks",
    )

    def __init__(
        self,
        program: KernelProgram,
        *,
        interp,
        db=None,
        domain=(),
        plan=None,
        record=None,
        negation: Optional[Counter] = None,
        probes: Optional[Counter] = None,
        hyp_call=None,
    ) -> None:
        self.program = program
        self.interp = interp
        self.db = db
        self.domain = domain
        self.plan = plan
        self.record = record
        self.neg = negation if negation is not None else Counter("kernel.negation")
        self.probes = probes if probes is not None else Counter("kernel.probes")
        self.hyp_call = hyp_call
        symbols = program.symbols
        self.domain_ids = program.domain_ids(domain)
        self.decode = symbols.constants
        self.make = symbols.make_atom
        self._views: dict[str, RelationView] = {}
        self._delta = None
        self._delta_views: dict[str, RelationView] = {}
        self._db_rowsets: dict[str, frozenset] = {}
        # Per-model memos: join order (planned once per rule, at its
        # stratum's relation sizes, textual without a ``plan``; order
        # never changes the head multiset, only enumeration cost) and
        # resolved kernels per (rule, delta target).
        self._orders: dict[int, tuple] = {}
        self._kerns: dict[tuple, Optional[Callable]] = {}
        # Recursion-case decisions by premise shape; (hook, memo) by
        # premise id.
        self._decisions: dict[tuple, dict] = {}
        self._hooks: dict[int, tuple[Callable, dict]] = {}

    # -- driver hooks ---------------------------------------------------

    def begin_round(self) -> None:
        """Invalidate per-round delta views (called at round headers)."""
        self._delta_views.clear()

    def fire(self, item: Rule, target, delta):
        """Compiled head enumeration for one rule, or None to fall back."""
        program = self.program
        spec = program.spec(item)
        if spec is None or (spec.has_hyp and self.hyp_call is None):
            program.fallbacks.value += 1
            return None
        index_of = spec.index_of
        target_key = index_of[id(target)] if target is not None else -1
        memo_key = (spec.key, target_key)
        kern = self._kerns.get(memo_key, _MISSING)
        if kern is _MISSING:
            order = self._orders.get(spec.key)
            if order is None:
                ordered = spec.default_order
                if self.plan is not None:
                    ordered = [*self.plan(spec.positives, ()), *spec.rest]
                order = self._orders[spec.key] = (
                    ordered,
                    tuple([index_of[id(p)] for p in ordered]),
                )
            ordered, order_key = order
            kern = program.kernel(
                spec, ordered, order_key, target_key, self.record is not None
            )
            self._kerns[memo_key] = kern
        elif kern is not None:
            program.cache_hits.value += 1
        if kern is None:
            program.fallbacks.value += 1
            return None
        program.fires.value += 1
        self._delta = delta
        return kern(self)

    def added(self, head) -> None:
        """Patch live views with a head the driver just accepted."""
        view = self._views.get(head.predicate)
        if view is not None:
            view.add(self.program.symbols.encode_args(head.args))

    # -- generated-code accessors --------------------------------------

    def _make_view(self, source, predicate: str) -> RelationView:
        """An int-space view of ``source``'s relation: its database rows
        encoded once per relation version by the column store, its
        derived rows snapshotted."""
        base_rows, overlay_rows = source.layers(predicate)
        store = self.program.store
        encode = store.symbols.encode_args
        return RelationView(
            store.encoded(base_rows) if base_rows else None,
            [encode(args) for args in overlay_rows] if overlay_rows else (),
        )

    def view(self, predicate: str) -> RelationView:
        found = self._views.get(predicate)
        if found is None:
            found = self._views[predicate] = self._make_view(self.interp, predicate)
        return found

    def _dview(self, predicate: str) -> RelationView:
        found = self._delta_views.get(predicate)
        if found is None:
            found = self._delta_views[predicate] = self._make_view(
                self._delta, predicate
            )
        return found

    def delta_tuples(self, predicate: str, arity: int):
        return self._dview(predicate).tuples(arity)

    def delta_index(self, predicate: str, arity: int, pos: int):
        return self._dview(predicate).index(arity, pos)

    def delta_rowset(self, predicate: str):
        base, overlay = self._dview(predicate).rowsets()
        return (base | overlay) if base else overlay

    def db_rowset(self, predicate: str) -> frozenset:
        found = self._db_rowsets.get(predicate)
        if found is None:
            db = self.db
            rows = db.relation(predicate) if db is not None else None
            found = self._db_rowsets[predicate] = (
                self.program.store.encoded(rows).rowset if rows else frozenset()
            )
        return found

    def hypothesis(self, premise) -> tuple[Callable, dict]:
        """``(hook, memo)`` deciding a premise's recursion-case
        instances for the model being closed, read inline by kernels.

        Generated code probes ``memo`` with a tuple of *interned ids*
        in int space and calls ``hook`` only on a miss; the engine's
        ``hyp_call`` receives the premise's :class:`_Hypothesis`
        template, the ids and the memo, grounds the instance, decides
        it at the enlarged database, and stores the verdict in the
        memo.  Premises of one shape share one memo: their instances
        at equal ids are one instance.
        """
        key = id(premise)
        found = self._hooks.get(key)
        if found is None:
            template = self.program.hypothesis(premise)
            memo = self._decisions.get(template.shape)
            if memo is None:
                memo = self._decisions[template.shape] = {}
            call = self.hyp_call

            def hook(ids, _call=call, _template=template, _memo=memo):
                return _call(_template, ids, _memo)

            found = self._hooks[key] = (hook, memo)
        return found
