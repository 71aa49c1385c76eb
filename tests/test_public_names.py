"""Lint: every public top-level name in ``src/repro`` is reached by the
program, not only by its own tests.

Code that only its tests call costs reading, review and test time, and
proves nothing about the system.  The rule, for every public (no leading
underscore) top-level ``def`` or ``class`` under ``src/repro``: it is
*reached* when

* another file under ``src/``, ``benchmarks/`` or ``examples/`` names it
  (``__init__.py`` re-exports do not count), or
* its own module names it in a top-level statement that is not a
  definition, or from another definition of that module that is itself
  reached (so a program's value class is reached through its program).

Otherwise it is either deleted or on :data:`ALLOWLIST` with its reason.
The allowlist holds the oracles tests judge the program against, and
nothing else.  Matching is by name only (no type inference): an
attribute or method of the same name elsewhere counts as a reference, so
the lint can miss dead code but never flags a name that has a caller.
"""

import ast
import fnmatch
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_DIRS = ("src", "benchmarks", "examples")

#: ``module:name`` pattern -> why the name stays although no program path
#: reaches it.
ALLOWLIST = {
    "repro.algorithms.*:reference_*":
        "sequential oracle a workload's results are judged against",
    "repro.streams.model:prefix_at":
        "turnstile oracle: the stream state a branch result must match",
    "repro.streams.sampling:sample_is_uniform":
        "statistical oracle for the reservoir sampler",
    "repro.live.oracle:cross_check":
        "live-vs-simulator equivalence oracle",
    "repro.datagen.graphs:degree_histogram":
        "oracle that judges the R-MAT generator's degree skew",
    "repro.core.dsl:min_label":
        "the one components program (judged by reference_components)",
}


def _names(node):
    """Every identifier ``node`` uses, as a bare name or an attribute."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def unreached(repo, package="repro", allowed=lambda qualname: False):
    """Sorted ``module:name`` of every public top-level definition under
    ``repo/src/<package>`` that nothing reaches.  Names for which
    ``allowed`` is true count as reached, and so does what they use."""
    src = repo / "src"
    users = {}
    modules = {}
    for top in REFERENCE_DIRS:
        for path in sorted((repo / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for name in _names(tree):
                users.setdefault(name, set()).add(path)
            if path.is_relative_to(src / package):
                modules[path] = tree
    dead = []
    for path, tree in modules.items():
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        uses = {}
        reached = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                uses[node.name] = _names(node)
            else:
                reached |= _names(node)
        reached = {name for name in uses
                   if name in reached or users.get(name, set()) - {path}
                   or allowed(f"{module}:{name}")}
        frontier = list(reached)
        while frontier:
            for name in uses[frontier.pop()] & uses.keys() - reached:
                reached.add(name)
                frontier.append(name)
        dead.extend(f"{module}:{name}" for name in uses
                    if name not in reached and not name.startswith("_"))
    return sorted(dead)


def allowlisted(qualname):
    return any(fnmatch.fnmatchcase(qualname, pattern)
               for pattern in ALLOWLIST)


class TestPublicNamesAreReached:
    def test_every_public_name_is_reached_or_allowlisted(self):
        found = unreached(REPO, allowed=allowlisted)
        assert not found, (
            "public names only tests reach (delete them, or allowlist an "
            "oracle with its reason):\n" + "\n".join(found))

    def test_every_allowlist_entry_is_needed(self):
        """An entry whose names gained a caller, or were deleted, keeps
        nothing alive and would silently excuse a later name."""
        bare = unreached(REPO)
        stale = [pattern for pattern in ALLOWLIST
                 if not any(fnmatch.fnmatchcase(q, pattern) for q in bare)]
        assert not stale, f"allowlist entries that match nothing: {stale}"

    def test_every_allowlist_entry_has_a_reason(self):
        assert all(reason.strip() for reason in ALLOWLIST.values())

    def test_lint_actually_bites(self, tmp_path):
        """On a synthetic tree the scanner flags the unreferenced function
        and the class only it uses, ignores the re-export and the private
        helper, and counts what an allowlisted name uses as reached."""
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from pkg.mod import Helper, unused, used\n"
            "__all__ = ['Helper', 'unused', 'used']\n")
        (package / "mod.py").write_text(
            "class Helper:\n    pass\n\n\n"
            "def used():\n    return 1\n\n\n"
            "def unused():\n    return Helper()\n\n\n"
            "def _private():\n    return 2\n")
        (package / "other.py").write_text(
            "from pkg.mod import used\n\nVALUE = used()\n")
        assert unreached(tmp_path, "pkg") == ["pkg.mod:Helper",
                                              "pkg.mod:unused"]
        assert unreached(tmp_path, "pkg",
                         allowed=lambda q: q == "pkg.mod:unused") == []
