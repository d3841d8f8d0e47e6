"""AST harvest: the checker's view of the source tree.

One pass of :func:`harvest` turns a set of Python files into
:class:`FunctionInfo` records — per-function decorator metadata, call
sites, and the raw AST node the dataflow rules walk — plus the per-file
``# sancheck: ignore[...]`` suppression map.

Name resolution is deliberately simple (sparse-style, not a type
checker): a call is identified by the last attribute segment
(``kernel.fault_handler.handle`` -> ``handle``) and resolved against
every harvested function of that name.  The kernel's vocabulary is
unambiguous enough that this works; where several same-name functions
carry *different* annotations the rules take the conservative
intersection, so a collision can hide a requirement but never invent
a false one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

IGNORE_RE = re.compile(
    r"#\s*sancheck:\s*ignore\[([a-z\-*,\s]+)\]\s*(?:--\s*(\S.*))?")

#: Decorator names read off ``@...`` lists (matched by last segment).
_LOCK_KEYS = {"must_hold": "must_hold", "acquires": "acquires",
              "releases": "releases"}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str          # last attribute segment ("handle", "ref_inc", ...)
    receiver: str      # source text of everything before the last segment
    lineno: int
    node: ast.Call


@dataclass
class FunctionInfo:
    """Everything the rules need to know about one function."""

    module: str        # dotted module name ("repro.kernel.fork")
    qualname: str      # "ChildTreeBuilder.pmd_for"
    name: str          # "pmd_for"
    path: Path
    lineno: int
    node: ast.FunctionDef
    must_hold: tuple = ()
    acquires: tuple = ()
    releases: tuple = ()
    tlb_deferred: str | None = None
    charge_deferred: str | None = None
    counters_deferred: tuple = ()   # (kinds...), empty when unannotated
    releases_refs: tuple = ()
    calls: list = field(default_factory=list)   # [CallSite]
    source: str = ""   # unparsed body text, for cheap substring probes

    @property
    def key(self):
        return f"{self.module}:{self.qualname}"


@dataclass
class IgnoreComment:
    """One inline ``sancheck: ignore`` suppression comment in a file."""

    lineno: int
    rules: frozenset
    justification: str | None

    def covers(self, rule):
        return "*" in self.rules or rule in self.rules


@dataclass
class SourceFile:
    """One harvested file: its functions and suppression comments."""

    path: Path
    module: str
    functions: list
    ignores: list      # [IgnoreComment]
    #: Module-level ``NAME = <literal>`` assignments (dicts, sets, tuples,
    #: strings...).  The metrics rule reads the failpoint site registry
    #: (``SITES``) out of this map.
    constants: dict = field(default_factory=dict)

    def ignore_for(self, rule, lineno, func=None):
        """The ignore comment covering ``rule`` at ``lineno``, if any.

        A comment suppresses a violation on its own line, on the line
        directly above it, or — when placed on (or immediately above) the
        enclosing ``def`` line — anywhere in that function.
        """
        lines = {lineno, lineno - 1}
        if func is not None:
            lines.update({func.lineno, func.lineno - 1})
        for ig in self.ignores:
            if ig.lineno in lines and ig.covers(rule):
                return ig
        return None


def call_name(node):
    """(last segment, receiver text) for a Call's func expression."""
    func = node.func
    if isinstance(func, ast.Attribute):
        try:
            receiver = ast.unparse(func.value)
        except Exception:
            receiver = ""
        return func.attr, receiver
    if isinstance(func, ast.Name):
        return func.id, ""
    return "", ""


def _decorator_meta(node):
    """Parse ``@must_hold(...)``-family decorators off a FunctionDef."""
    meta = {}
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name, _ = call_name(dec)
        if name in _LOCK_KEYS:
            locks = tuple(a.value for a in dec.args
                          if isinstance(a, ast.Constant))
            meta[_LOCK_KEYS[name]] = locks
        elif name in ("tlb_deferred", "charge_deferred"):
            reason = dec.args[0].value if dec.args and isinstance(
                dec.args[0], ast.Constant) else ""
            meta[name] = reason
        elif name == "counters_deferred":
            kinds = tuple(a.value for a in dec.args
                          if isinstance(a, ast.Constant))
            meta["counters_deferred"] = kinds
        elif name == "releases_refs":
            kinds = tuple(a.value for a in dec.args
                          if isinstance(a, ast.Constant))
            meta["releases_refs"] = kinds
    return meta


def _collect_calls(node):
    calls = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name, receiver = call_name(sub)
            if name:
                calls.append(CallSite(name, receiver, sub.lineno, sub))
    return calls


def _harvest_functions(tree, module, path):
    functions = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                meta = _decorator_meta(child)
                try:
                    source = ast.unparse(child)
                except Exception:
                    source = ""
                functions.append(FunctionInfo(
                    module=module, qualname=qual, name=child.name,
                    path=path, lineno=child.lineno, node=child,
                    calls=_collect_calls(child), source=source, **meta))
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}" if prefix
                      else child.name)

    visit(tree, "")
    return functions


def _literal_value(node):
    """Evaluate a constant expression, unwrapping ``frozenset({...})``."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "frozenset" and len(node.args) == 1):
        node = node.args[0]
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None


def _collect_constants(tree):
    constants = {}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            name = stmt.targets[0].id
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and isinstance(stmt.target, ast.Name)):
            name = stmt.target.id
        else:
            continue
        if not name.isupper():
            continue
        value = _literal_value(stmt.value if isinstance(stmt, ast.AnnAssign)
                               else stmt.value)
        if value is not None:
            constants[name] = value
    return constants


def _collect_ignores(text):
    ignores = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = IGNORE_RE.search(line)
        if match:
            rules = frozenset(r.strip() for r in match.group(1).split(",")
                              if r.strip())
            ignores.append(IgnoreComment(lineno, rules, match.group(2)))
    return ignores


def module_name_for(path, src_root):
    """Dotted module name for ``path`` (fixture files get their stem)."""
    path = Path(path).resolve()
    try:
        rel = path.relative_to(Path(src_root).resolve())
        return ".".join(rel.with_suffix("").parts)
    except ValueError:
        return path.stem


def harvest(paths, src_root):
    """Parse ``paths`` into :class:`SourceFile` records."""
    files = []
    for path in sorted(Path(p) for p in paths):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        module = module_name_for(path, src_root)
        files.append(SourceFile(
            path=path, module=module,
            functions=_harvest_functions(tree, module, path),
            ignores=_collect_ignores(text),
            constants=_collect_constants(tree)))
    return files
