"""The rule families of the static checker.

Every rule consumes the harvested :class:`~repro.sancheck.model.SourceFile`
records plus the interprocedural :class:`~repro.sancheck.summaries.Summaries`
and yields :class:`Violation`s.  Scoping mirrors where each discipline
applies:

* **lock-context** — global: any harvested caller of an annotated
  function is checked.
* **failpoint**, **refcount**, **tlb** — the kernel proper
  (``repro.kernel``/``repro.smp``) plus any non-``repro`` file passed
  explicitly (the test fixtures).
* **clock-charge** — ``repro.kernel`` + ``repro.paging`` (the layers
  whose mutations must be visible to the virtual clock) + fixtures.
* **metrics** — paired-counter conservation over the kernel scope plus
  ``repro.numa`` (the replica registry), and registry resolution for
  metric namespaces and failpoint site names across the whole tree.
* **trace-registry** — every ``tracepoint()`` name, everywhere.

The path-walked families (refcount, tlb, clock-charge, metrics
conservation) share a single :func:`~repro.sancheck.engine.run_paths`
pass per function over its CFG; each family reads its own slice of the
exit states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import EXIT_FALL, EXIT_RAISE, EXIT_RETURN
from .engine import run_paths
from .events import Classifier, KernelPathDomain
from .summaries import (
    ALLOC_WRAPPERS,
    build_summaries,
    charge_scope,
    has_failpoint,
    raw_alloc_calls,
    strict_kernel_scope,
)

RULES = ("lock-context", "failpoint", "refcount", "tlb", "clock-charge",
         "metrics", "trace-registry", "ignore")

#: The families evaluated by the shared per-function path walk.
WALK_RULES = frozenset({"refcount", "tlb", "clock-charge", "metrics"})


@dataclass
class Violation:
    rule: str
    module: str
    func: str          # qualname
    lineno: int
    message: str

    @property
    def ident(self):
        """Baseline identity: stable across line-number churn."""
        return f"{self.rule}:{self.module}:{self.func}"

    def __str__(self):
        return (f"{self.module}:{self.lineno}: [{self.rule}] "
                f"{self.func}: {self.message}")


def _kernel_scope(func):
    return strict_kernel_scope(func)


def _metrics_scope(func):
    return strict_kernel_scope(func) or func.module.startswith("repro.numa")


# ------------------------------------------------------------------ #
# Classifier (name-flattened summaries for the path walk)


def build_classifier(files, summaries):
    deferred = set()
    charge_deferred = set()
    counters_deferred = {}
    releasers = {}
    for sf in files:
        for func in sf.functions:
            if func.tlb_deferred is not None:
                deferred.add(func.name)
            if func.charge_deferred is not None and not (
                    func.name.startswith("__") and func.name.endswith("__")):
                # Dunder names never flatten: ``super().__init__()`` must
                # not inherit an annotated constructor's obligation.  The
                # per-function suppression still applies via the
                # FunctionInfo attribute.
                charge_deferred.add(func.name)
            if func.counters_deferred:
                kinds = set(counters_deferred.get(func.name, ()))
                kinds.update(func.counters_deferred)
                counters_deferred[func.name] = frozenset(kinds)
            if func.releases_refs:
                kinds = set(releasers.get(func.name, ()))
                kinds.update(func.releases_refs)
                releasers[func.name] = frozenset(kinds)
    functions = summaries.graph.functions
    return Classifier(
        fallible=frozenset(functions[k].name
                           for k in summaries.fallible_keys),
        flushing=frozenset(functions[k].name
                           for k in summaries.flushing_keys),
        deferred=frozenset(deferred),
        releasers=releasers,
        charge_deferred=frozenset(charge_deferred),
        counters_deferred=counters_deferred,
        must_charge=summaries.must_charge_names(),
    )


# ------------------------------------------------------------------ #
# Rule 1: lock-context


def _inline_acquires(func):
    """Locks a generator flow takes via explicit Acquire events."""
    held = set()
    if "Acquire(" not in func.source:
        return held
    if "mmap_lock(" in func.source:
        held.add("mmap_lock")
    if "pt_lock(" in func.source:
        held.add("ptl")
    return held


def check_lock_context(files, summaries):
    violations = []
    graph = summaries.graph
    for sf in files:
        for func in sf.functions:
            held = None
            for call in func.calls:
                candidates = [c for c in graph.resolve(func, call.name)
                              if c.must_hold or c.releases]
                if not candidates:
                    continue
                required = set(candidates[0].must_hold) | set(
                    candidates[0].releases)
                for cand in candidates[1:]:
                    required &= set(cand.must_hold) | set(cand.releases)
                if not required:
                    continue
                if held is None:
                    held = (set(func.must_hold) | set(func.acquires)
                            | _inline_acquires(func))
                missing = sorted(required - held)
                if missing:
                    violations.append(Violation(
                        "lock-context", sf.module, func.qualname, call.lineno,
                        f"calls {call.name}() which requires "
                        f"{'+'.join(missing)}; caller holds "
                        f"{sorted(held) or 'nothing'} — annotate with "
                        f"@must_hold/@acquires or take the lock"))
    return violations


# ------------------------------------------------------------------ #
# Rule 2: failpoint coverage


def check_failpoints(files):
    violations = []
    for sf in files:
        if sf.module == "repro.kernel.failpoints":
            continue
        for func in sf.functions:
            if not _kernel_scope(func) or func.name in ALLOC_WRAPPERS:
                continue
            sites = raw_alloc_calls(func)
            if sites and not has_failpoint(func):
                call = sites[0]
                violations.append(Violation(
                    "failpoint", sf.module, func.qualname, call.lineno,
                    f"allocation via {call.name}() has no failpoints.hit() "
                    f"in this function — fault-injection cannot reach "
                    f"this OOM path"))
    return violations


# ------------------------------------------------------------------ #
# Rule: trace-registry


def check_trace_registry(files):
    """Every ``tracepoint()`` name must be declared in the trace registry.

    The runtime raises :class:`~repro.trace.points.UnknownTracepoint` for
    an undeclared name, but only if the site actually executes while a
    tracer is attached; this rule catches the typo at analysis time, on
    cold paths included.  Names must be string literals — the registry
    is the whole point, so a computed name defeats the check and is
    itself a violation.
    """
    import ast

    from ..trace.registry import EVENTS

    violations = []
    for sf in files:
        for func in sf.functions:
            for call in func.calls:
                if call.name != "tracepoint":
                    continue
                node = call.node
                if not node.args:
                    violations.append(Violation(
                        "trace-registry", sf.module, func.qualname,
                        call.lineno,
                        "tracepoint() called with no event name"))
                    continue
                first = node.args[0]
                if not (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)):
                    violations.append(Violation(
                        "trace-registry", sf.module, func.qualname,
                        call.lineno,
                        "tracepoint name must be a string literal so the "
                        "registry check can verify it"))
                    continue
                if first.value not in EVENTS:
                    violations.append(Violation(
                        "trace-registry", sf.module, func.qualname,
                        call.lineno,
                        f"tracepoint {first.value!r} is not declared in "
                        f"repro.trace.registry.EVENTS — declare it (name, "
                        f"kind, fields) before emitting"))
    return violations


# ------------------------------------------------------------------ #
# Rules refcount / tlb / clock-charge / metrics-conservation
# (one shared CFG path walk per function)


def walk_function(func, classifier, cfg=None, rules=WALK_RULES):
    """Run the shared path walk over one function; yield violations."""
    from .cfg import build_cfg

    if cfg is None:
        cfg = build_cfg(func.node)
    domain = KernelPathDomain(func, classifier)
    exits, overflowed = run_paths(cfg, domain)
    if overflowed:
        return []  # under-approximate rather than guess

    violations = []
    raise_states = exits[EXIT_RAISE]
    normal_states = exits[EXIT_FALL] + exits[EXIT_RETURN]

    if "refcount" in rules and _kernel_scope(func):
        seen_ref = set()
        for state in raise_states:
            if state.bug or not state.pins:
                continue
            for (kind, key), (count, line) in state.pins.items():
                if (kind, key) in seen_ref:
                    continue
                seen_ref.add((kind, key))
                violations.append(Violation(
                    "refcount", func.module, func.qualname,
                    state.raise_line or line,
                    f"{kind} reference '{key}' (taken at line "
                    f"{line}) is still held when an exception "
                    f"path leaves the function — release it in "
                    f"the unwind or transfer ownership first"))

    if ("tlb" in rules and _kernel_scope(func)
            and func.tlb_deferred is None):
        for state in normal_states:
            if state.tlb_line is not None:
                violations.append(Violation(
                    "tlb", func.module, func.qualname, state.tlb_line,
                    "PTE/PMD cleared or downgraded (line "
                    f"{state.tlb_line}) with no TLB flush before a "
                    "normal exit — flush, or mark @tlb_deferred and "
                    "flush in the caller"))
                break

    if ("clock-charge" in rules and charge_scope(func)
            and func.charge_deferred is None):
        for state in normal_states:
            if state.mut_line is not None and not state.charged:
                violations.append(Violation(
                    "clock-charge", func.module, func.qualname,
                    state.mut_line,
                    f"frame/PTE mutation (line {state.mut_line}) reaches "
                    f"a normal exit with no virtual-clock charge on the "
                    f"path — charge the cost model, or mark "
                    f"@charge_deferred and charge in the caller"))
                break

    if "metrics" in rules and _metrics_scope(func):
        declared = frozenset(func.counters_deferred)
        seen_kind = set()
        for state in raise_states:
            if state.bug or not state.counts:
                continue
            for kind, (count, line) in state.counts.items():
                if kind in declared or kind in seen_kind:
                    continue
                seen_kind.add(kind)
                violations.append(Violation(
                    "metrics", func.module, func.qualname,
                    state.raise_line or line,
                    f"counter '{kind}' (incremented at line {line}) is "
                    f"left unbalanced when an exception path leaves the "
                    f"function — decrement it in the unwind, or mark "
                    f"@counters_deferred({kind!r}, ...) and balance in "
                    f"the caller"))
    return violations


def check_walk(files, summaries, classifier, rules=WALK_RULES):
    violations = []
    walk_scope_rules = rules & WALK_RULES
    if not walk_scope_rules:
        return violations
    for sf in files:
        for func in sf.functions:
            if not (_kernel_scope(func) or charge_scope(func)
                    or _metrics_scope(func)):
                continue
            violations.extend(walk_function(
                func, classifier, cfg=summaries.cfg(func),
                rules=walk_scope_rules))
    return violations


# ------------------------------------------------------------------ #
# Rule: metrics registry resolution (the string half of the metrics
# family — MetricsRegistry namespaces and failpoint site names)


def check_metrics_registry(files):
    import ast

    violations = []
    registered = set()
    consults = []      # (sf, func, call, kind)
    for sf in files:
        if sf.module == "repro.trace.metrics":
            continue   # the registry implementation iterates itself
        for func in sf.functions:
            for call in func.calls:
                if "metrics" not in call.receiver:
                    continue
                if call.name == "register":
                    node = call.node
                    if node.args and isinstance(node.args[0], ast.Constant):
                        registered.add(node.args[0].value)
                elif call.name in ("collect", "unregister"):
                    consults.append((sf, func, call))
    for sf, func, call in consults:
        node = call.node
        if not node.args or not isinstance(node.args[0], ast.Constant):
            violations.append(Violation(
                "metrics", sf.module, func.qualname, call.lineno,
                f"metrics.{call.name}() namespace must be a string literal "
                f"so the registry check can verify it"))
            continue
        name = node.args[0].value
        if name not in registered:
            violations.append(Violation(
                "metrics", sf.module, func.qualname, call.lineno,
                f"metrics.{call.name}({name!r}) does not resolve: no "
                f"metrics.register({name!r}, ...) exists in the tree"))

    # Failpoint site names resolve against the SITES registry.
    sites_owner = next(
        (sf for sf in files if isinstance(sf.constants.get("SITES"),
                                          (set, frozenset, tuple, list))),
        None)
    if sites_owner is not None:
        sites = frozenset(sites_owner.constants["SITES"])
        used = set()
        for sf in files:
            for func in sf.functions:
                for call in func.calls:
                    if (call.name not in ("hit", "fails")
                            or "failpoints" not in call.receiver):
                        continue
                    node = call.node
                    if not node.args or not isinstance(node.args[0],
                                                       ast.Constant):
                        continue   # programmatic site (verify harness)
                    site = node.args[0].value
                    used.add(site)
                    if site not in sites:
                        violations.append(Violation(
                            "metrics", sf.module, func.qualname, call.lineno,
                            f"failpoint site {site!r} is not declared in "
                            f"{sites_owner.module}.SITES — declare it so "
                            f"the fault-injection harness can enumerate it"))
        for site in sorted(sites - used):
            violations.append(Violation(
                "metrics", sites_owner.module, "<module>", 1,
                f"SITES declares failpoint site {site!r} but no "
                f"failpoints.hit()/fails() call uses it — remove the "
                f"stale declaration"))
    return violations


# ------------------------------------------------------------------ #


def run_all_rules(files, summaries=None, rules=None):
    enabled = frozenset(rules) if rules is not None else frozenset(RULES)
    if summaries is None:
        summaries = build_summaries(files)
    violations = []
    if "lock-context" in enabled:
        violations += check_lock_context(files, summaries)
    if "failpoint" in enabled:
        violations += check_failpoints(files)
    if "trace-registry" in enabled:
        violations += check_trace_registry(files)
    if "metrics" in enabled:
        violations += check_metrics_registry(files)
    if enabled & WALK_RULES:
        classifier = build_classifier(files, summaries)
        violations += check_walk(files, summaries, classifier,
                                 rules=enabled & WALK_RULES)
    return violations
