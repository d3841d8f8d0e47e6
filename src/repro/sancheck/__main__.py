"""CLI: ``python -m repro.sancheck [--strict] [paths...]``.

With no paths, checks the whole ``src/repro`` tree.  Exit status is 0
when no unsuppressed, unbaselined violation fires; ``--strict``
additionally fails on stale baseline entries (so the baseline only ever
shrinks) — CI runs ``--strict``.

``--rules a,b`` restricts the run to a subset of the rule families;
``--jobs N`` fans the per-function path walks out over N worker
processes; ``--json PATH`` writes a machine-readable report (CI uploads
it as an artifact); ``--prune-ignores`` rewrites source files to drop
stale ignore comments.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

from .checker import (
    apply_baseline,
    check_paths,
    check_repo,
    load_baseline,
    prune_ignores,
    repo_src_root,
    write_baseline,
)
from .rules import RULES

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _parse_rules(spec):
    if spec is None:
        return None
    rules = frozenset(r.strip() for r in spec.split(",") if r.strip())
    unknown = rules - frozenset(RULES)
    if unknown:
        raise SystemExit(f"sancheck: unknown rule(s) {sorted(unknown)}; "
                         f"known: {', '.join(RULES)}")
    return rules


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.sancheck",
        description="static lock/failpoint/refcount/TLB/clock-charge/"
                    "metrics checker")
    parser.add_argument("paths", nargs="*",
                        help="files to check (default: all of src/repro)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="committed baseline JSON (default: "
                             "src/repro/sancheck/baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current violations to the baseline "
                             "file and exit 0")
    parser.add_argument("--strict", action="store_true",
                        help="also fail on stale baseline entries")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    parser.add_argument("--rules", default=None, metavar="R1,R2",
                        help=f"comma-separated rule selection "
                             f"(default: all of {','.join(RULES)})")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the path-walk rules in N worker "
                             "processes (default: 1)")
    parser.add_argument("--json", default=None, metavar="PATH", dest="json_out",
                        help="write a JSON report (violations + summary) "
                             "to PATH")
    parser.add_argument("--prune-ignores", action="store_true",
                        help="rewrite files to drop stale ignore comments")
    args = parser.parse_args(argv)

    rules = _parse_rules(args.rules)
    started = time.monotonic()
    stale_ignores = []
    if args.paths:
        violations = check_paths(args.paths, rules=rules, jobs=args.jobs,
                                 collect_stale_ignores=stale_ignores)
    else:
        violations = check_repo(rules=rules, jobs=args.jobs,
                                collect_stale_ignores=stale_ignores)
    elapsed = time.monotonic() - started

    if args.prune_ignores:
        removed = prune_ignores(stale_ignores)
        print(f"sancheck: pruned {removed} stale ignore comment(s)")
        violations = [v for v in violations
                      if not (v.rule == "ignore"
                              and "stale ignore" in v.message)]

    entries, problems = load_baseline(args.baseline)
    if args.write_baseline:
        written = write_baseline(violations, args.baseline)
        print(f"wrote {len(written)} baseline entries to {args.baseline}")
        return 0

    new, baselined, stale = apply_baseline(violations, entries)

    if not args.quiet:
        for violation in new:
            print(violation)
        for problem in problems:
            print(f"baseline: {problem}")
        if args.strict:
            for entry in stale:
                print(f"baseline: stale entry "
                      f"{entry['rule']}:{entry['module']}:{entry['func']} "
                      f"(no longer fires — remove it)")

    counts = Counter(v.rule for v in new)
    scanned = "paths" if args.paths else f"src root {repo_src_root()}"
    summary = ", ".join(f"{rule}={counts[rule]}" for rule in sorted(counts))
    print(f"sancheck: {len(new)} violation(s) [{summary or 'clean'}], "
          f"{len(baselined)} baselined, {len(stale)} stale baseline "
          f"entries ({scanned}) in {elapsed:.2f}s")

    failed = bool(new) or bool(problems)
    if args.strict:
        failed = failed or bool(stale)

    if args.json_out:
        report = {
            "violations": [
                {"rule": v.rule, "module": v.module, "func": v.func,
                 "lineno": v.lineno, "message": v.message}
                for v in new],
            "baselined": len(baselined),
            "stale_baseline": [
                {"rule": e["rule"], "module": e["module"], "func": e["func"]}
                for e in stale],
            "counts": dict(counts),
            "rules": sorted(rules) if rules is not None else list(RULES),
            "elapsed_s": round(elapsed, 3),
            "ok": not failed,
        }
        Path(args.json_out).write_text(json.dumps(report, indent=1) + "\n")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
