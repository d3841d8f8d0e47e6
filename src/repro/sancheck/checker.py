"""Checker driver: harvest, build summaries, run rules, apply
suppressions and the baseline.

Suppression layers, in order:

1. ``# sancheck: ignore[rule] -- why`` inline comments.  The justification
   after ``--`` is mandatory: an unjustified ignore is itself reported
   (rule ``ignore``) and cannot be baselined away.  A *justified* ignore
   that no longer suppresses anything is stale and reported too (the
   suppression surface only ever shrinks); ``--prune-ignores`` rewrites
   the files to drop them.
2. A committed JSON baseline (``--baseline``), entries
   ``{"rule", "module", "func", "reason"}``.  Entries are keyed on the
   violation identity, not line numbers, so they survive reformatting;
   entries whose violation no longer fires are *stale* and fail
   ``--strict`` (the baseline only ever shrinks).

``check_files(..., jobs=N)`` fans the per-function path walks out over
worker processes (each worker re-harvests its file shard and receives
the pickled name-flattened classifier); the global rules — lock-context,
registry resolution — always run in the parent, where the full call
graph lives.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import IGNORE_RE, harvest
from .rules import (
    RULES,
    WALK_RULES,
    Violation,
    build_classifier,
    check_walk,
    run_all_rules,
    walk_function,
)
from .summaries import build_summaries

__all__ = ["Violation", "check_files", "check_paths", "check_repo",
           "load_baseline", "apply_baseline", "repo_src_root"]


def repo_src_root():
    """The ``src`` directory containing the installed ``repro`` package."""
    import repro
    return Path(repro.__file__).resolve().parent.parent


def repo_files(src_root=None):
    src_root = Path(src_root) if src_root else repo_src_root()
    paths = sorted(
        p for p in (src_root / "repro").rglob("*.py")
        # The checker does not check itself: the sanitizer runtimes sit
        # below the kernel discipline layer, and harvesting them would
        # pollute the name-based fixpoints (e.g. KASAN's free
        # interceptor writing poison would make every `.free()` in the
        # kernel look OOM-fallible).
        if "sancheck" not in p.parts)
    return paths, src_root


def _run_rules(files, rules, jobs):
    summaries = build_summaries(files)
    enabled = frozenset(rules) if rules is not None else frozenset(RULES)
    if jobs is None or jobs <= 1 or not (enabled & WALK_RULES):
        return run_all_rules(files, summaries=summaries, rules=enabled)
    # Parallel: global rules here, the per-function walks in workers.
    violations = run_all_rules(files, summaries=summaries,
                               rules=enabled - WALK_RULES)
    classifier = build_classifier(files, summaries)
    violations += _parallel_walk(files, classifier,
                                 enabled & WALK_RULES, jobs)
    return violations


def _parallel_walk(files, classifier, walk_rules, jobs):
    from concurrent.futures import ProcessPoolExecutor

    shards = [[] for _ in range(jobs)]
    order = sorted(files, key=lambda sf: -len(sf.functions))
    for i, sf in enumerate(order):
        shards[i % jobs].append(str(sf.path))
    shards = [s for s in shards if s]
    src_root = str(repo_src_root())
    violations = []
    try:
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            futures = [pool.submit(_walk_shard, shard, src_root,
                                   classifier, tuple(walk_rules))
                       for shard in shards]
            for future in futures:
                violations.extend(Violation(*v) for v in future.result())
    except (OSError, ImportError):
        # No usable multiprocessing (sandboxes): fall back in-process.
        summaries = build_summaries(files)
        return check_walk(files, summaries, classifier, rules=walk_rules)
    return violations


def _walk_shard(paths, src_root, classifier, walk_rules):
    """Worker: re-harvest a file shard and run the path-walk rules."""
    from .summaries import charge_scope, strict_kernel_scope

    shard = harvest(paths, src_root)
    rules = frozenset(walk_rules)
    out = []
    for sf in shard:
        for func in sf.functions:
            if not (strict_kernel_scope(func) or charge_scope(func)
                    or func.module.startswith("repro.numa")):
                continue
            for v in walk_function(func, classifier, rules=rules):
                out.append((v.rule, v.module, v.func, v.lineno, v.message))
    return out


def check_files(files, rules=None, jobs=None, collect_stale_ignores=None):
    """Run the enabled rules over harvested files; returns surviving
    violations.

    Inline-suppressed violations are dropped; unjustified ignore comments
    are appended as ``ignore``-rule violations.  With the full rule set
    enabled, justified ignore comments that suppressed nothing are stale
    and reported too; ``collect_stale_ignores`` (a list) receives
    ``(path, lineno)`` pairs for ``--prune-ignores``.
    """
    enabled = frozenset(rules) if rules is not None else frozenset(RULES)
    violations = []
    used_ignores = set()      # (path, lineno) of comments that suppressed

    for violation in _run_rules(files, enabled, jobs):
        sf = next((s for s in files if s.module == violation.module), None)
        if sf is not None:
            func = next((f for f in sf.functions
                         if f.qualname == violation.func), None)
            ig = sf.ignore_for(violation.rule, violation.lineno, func)
            if ig is not None:
                used_ignores.add((sf.path, ig.lineno))
                if not ig.justification:
                    violations.append(Violation(
                        "ignore", sf.module, violation.func, ig.lineno,
                        f"ignore[{violation.rule}] has no justification — "
                        f"append '-- <why this is safe>'"))
                continue
        violations.append(violation)

    if "ignore" in enabled:
        full_run = enabled >= frozenset(RULES) - {"ignore"}
        for sf in files:
            for ig in sf.ignores:
                if (sf.path, ig.lineno) in used_ignores:
                    continue
                if not ig.justification:
                    violations.append(Violation(
                        "ignore", sf.module, "<module>", ig.lineno,
                        "ignore comment has no justification — append "
                        "'-- <why this is safe>'"))
                elif full_run:
                    # Shrink-only: a justified ignore that suppresses
                    # nothing under the full rule set is dead weight.
                    if collect_stale_ignores is not None:
                        collect_stale_ignores.append((sf.path, ig.lineno))
                    violations.append(Violation(
                        "ignore", sf.module, "<module>", ig.lineno,
                        f"stale ignore[{','.join(sorted(ig.rules))}] "
                        f"comment: it no longer suppresses any violation "
                        f"— remove it (or run --prune-ignores)"))
    violations.sort(key=lambda v: (v.module, v.lineno))
    return violations


def check_repo(src_root=None, rules=None, jobs=None,
               collect_stale_ignores=None):
    """Check the whole ``src/repro`` tree."""
    paths, src_root = repo_files(src_root)
    return check_files(harvest(paths, src_root), rules=rules, jobs=jobs,
                       collect_stale_ignores=collect_stale_ignores)


def check_paths(paths, rules=None, jobs=None, collect_stale_ignores=None):
    """Check explicit files (fixture mode: modules named by stem)."""
    return check_files(harvest(paths, repo_src_root()), rules=rules,
                       jobs=jobs,
                       collect_stale_ignores=collect_stale_ignores)


def prune_ignores(stale):
    """Rewrite files dropping the stale ignore comments in ``stale``
    (``(path, lineno)`` pairs).  Returns the number of comments removed."""
    by_path = {}
    for path, lineno in stale:
        by_path.setdefault(Path(path), set()).add(lineno)
    removed = 0
    for path, linenos in by_path.items():
        lines = path.read_text().splitlines(keepends=True)
        for lineno in linenos:
            idx = lineno - 1
            if idx >= len(lines):
                continue
            line = lines[idx]
            stripped = IGNORE_RE.sub("", line).rstrip()
            lines[idx] = (stripped + "\n") if stripped else ""
            removed += 1
        path.write_text("".join(lines))
    return removed


# ------------------------------------------------------------------ #
# Baseline


def load_baseline(path):
    entries = json.loads(Path(path).read_text()) if Path(path).exists() else []
    problems = []
    for entry in entries:
        missing = {"rule", "module", "func"} - set(entry)
        if missing:
            problems.append(f"baseline entry {entry} missing {sorted(missing)}")
        elif entry.get("rule") not in RULES:
            problems.append(f"baseline entry has unknown rule "
                            f"{entry.get('rule')!r}")
        elif entry.get("rule") == "ignore":
            problems.append("the 'ignore' rule cannot be baselined: "
                            "justify the inline comment instead")
        elif not entry.get("reason"):
            problems.append(f"baseline entry "
                            f"{entry['rule']}:{entry['module']}:"
                            f"{entry['func']} has no reason")
    return entries, problems


def apply_baseline(violations, entries):
    """Split violations into (new, baselined) and find stale entries."""
    keys = {f"{e['rule']}:{e['module']}:{e['func']}" for e in entries}
    new = [v for v in violations if v.ident not in keys]
    baselined = [v for v in violations if v.ident in keys]
    fired = {v.ident for v in baselined}
    stale = [e for e in entries
             if f"{e['rule']}:{e['module']}:{e['func']}" not in fired]
    return new, baselined, stale


def write_baseline(violations, path, reason="baselined by --write-baseline"):
    entries = []
    seen = set()
    for v in violations:
        if v.ident in seen or v.rule == "ignore":
            continue
        seen.add(v.ident)
        entries.append({"rule": v.rule, "module": v.module,
                        "func": v.func, "reason": reason})
    Path(path).write_text(json.dumps(entries, indent=1) + "\n")
    return entries
