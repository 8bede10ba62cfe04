"""What nothing reaches leaves: a reachability gate over ``src/repro``'s public names.

Every public top-level ``def``/``class`` under ``src/repro`` must be
reachable from a *root* — the ``__main__`` block of a module (``cli.py``'s
calls ``main``, which names every ``_cmd_*``; ``durability/harness.py``'s
is the SIGKILL child), or a name a file under ``benchmarks/`` or
``examples/`` imports from ``repro`` — or sit in :data:`ALLOWLIST` with a
reason of a kind the gate accepts.  A test calling it is not a reason:
tests are not roots, and ``"test"`` is not a kind.

The pass is name-level and reads source only (``ast``, no import of the
code it judges): a def *mentions* every identifier and attribute name
in its body, decorators and bases; reaching a def reaches every def of a
mentioned name, and the module-level statements of its module.  It
over-approximates (``OpsServer.render_trace`` would keep a top-level
``render_trace`` alive), never under-approximates — a name it reports has
no caller a name-level reader could find.  Strings are not mentions, so
a row in ``__all__`` keeps nothing alive, and imports are not either, so
a package ``__init__`` re-export keeps nothing alive.
"""

from __future__ import annotations

import ast
import functools
import shutil
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
USERS = (REPO / "benchmarks", REPO / "examples")

#: what counts as a reason; "a test calls it" has no kind
KINDS = ("paper", "ci", "docs")

#: name → (kind, one-line reason).  A row may not outlive its reason: naming
#: something a root reaches, or something that is gone, fails the gate.
ALLOWLIST: dict[str, tuple[str, str]] = {
    "run_child": (
        "ci", "parent half of the SIGKILL harness: the crash-recovery, control-resume and "
        "ingest-chaos jobs kill `python -m repro.durability.harness` (the rooted child) through it",
    ),
    "crash_recovery_scenario": (
        "ci", "the kill-resume-reconcile loop over run_child those same three chaos jobs drive",
    ),
    "render_reference": (
        "docs", "the docs/API.md metric-reference drift gate renders it (SKILL.md's regenerate)",
    ),
    "random_oversample": ("paper", "§4.4.2 imbalance handling; DESIGN.md's substitution table"),
    "random_undersample": ("paper", "§4.4.2 imbalance handling; DESIGN.md's substitution table"),
    "adasyn_like_oversample": (
        "paper", "§4.4.2 names ADASYN; DESIGN.md's substitution table maps it here",
    ),
    "stratified_kfold": ("paper", "§4.4.2 evaluates on stratified folds; DESIGN.md's table"),
    "MultinomialNB": (
        "paper", "the baseline Complement NB corrects (the §4.4 classifier choice); "
        "`core.serialize` loads it by the name its manifest holds, a string, not a mention",
    ),
    "Classifier": (
        "paper", "§4.4 / Figure 3: the fit/predict contract the eight compared classifiers "
        "implement — a Protocol is read, not called",
    ),
}


@dataclass(frozen=True)
class Def:
    """One top-level definition: where it is and what it mentions."""

    name: str
    path: Path
    lineno: int
    end_lineno: int
    mentions: frozenset[str]

    def describe(self, base: Path) -> str:
        span = self.end_lineno - self.lineno + 1
        return (
            f"{self.name}  {self.path.relative_to(base)}:{self.lineno}-{self.end_lineno}"
            f"  ({span} lines)"
        )


def _mentions(*nodes: ast.AST) -> frozenset[str]:
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return frozenset(found)


def _is_main_block(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


@functools.lru_cache(maxsize=None)
def _index(package: Path):
    """Parse ``package`` once: defs by name, each module's loose
    statements' mentions, and what the ``__main__`` blocks mention."""
    defs: dict[str, list[Def]] = {}
    module_level: dict[Path, frozenset[str]] = {}
    mains: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        loose = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(
                    Def(node.name, path, node.lineno, node.end_lineno, _mentions(node))
                )
            elif _is_main_block(node):
                mains |= _mentions(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose.append(node)
        module_level[path] = _mentions(*loose)
    return defs, module_level, frozenset(mains)


@functools.lru_cache(maxsize=None)
def _imported_by(users: tuple[Path, ...], package: str) -> frozenset[str]:
    """Every name a file under ``users`` imports from ``package``."""
    return frozenset(
        alias.name
        for user in users
        for path in sorted(user.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == package
        for alias in node.names
    )


def unreached(package: Path, users=()) -> list[Def]:
    """Public top-level defs under ``package`` that no root reaches."""
    defs, module_level, mains = _index(package)
    frontier = set(mains | _imported_by(tuple(users), package.name))
    reached: set[str] = set()
    modules: set[Path] = set()
    while frontier:
        name = frontier.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for found in defs[name]:
            frontier |= found.mentions
            if found.path not in modules:
                modules.add(found.path)
                frontier |= module_level[found.path]
    return [
        found
        for name, group in defs.items()
        if name not in reached and not name.startswith("_")
        for found in group
    ]


def gate(package: Path, users=(), allowlist=ALLOWLIST) -> list[str]:
    """Every way the tree breaks the rule, one line each; empty is green."""
    dead = unreached(package, users)
    dead_names = {found.name for found in dead}
    problems = [
        f"off every root and off the allowlist: {found.describe(package)}"
        for found in sorted(dead, key=lambda d: (d.path, d.lineno))
        if found.name not in allowlist
    ]
    for name, row in allowlist.items():
        kind, reason = row if len(row) == 2 else ("", "")
        if kind not in KINDS or not reason.strip() or "\n" in reason:
            problems.append(
                f"allowlist row {name!r} needs a kind from {KINDS} and a one-line reason"
            )
        if name not in dead_names:
            problems.append(
                f"allowlist row {name!r} has outlived its reason: a root reaches it, or it is gone"
            )
    return problems


# -- the gate ---------------------------------------------------------------


def test_every_public_name_is_reached_or_allowlisted():
    problems = gate(PACKAGE, USERS)
    assert not problems, "\n" + "\n".join(problems)


def test_the_roots_are_the_ones_the_rule_names():
    """Not vacuous on the real tree: the CLI and the SIGKILL child hang
    off ``__main__`` blocks, and the benches and examples hold up the
    paper-artifact surface the CLI does not reach."""
    dead = {found.name for found in unreached(PACKAGE)}  # rooted at __main__ alone
    assert dead.isdisjoint({"main", "build_parser", "child_main"})
    assert dead > {found.name for found in unreached(PACKAGE, USERS)}


# -- the gate, tested -------------------------------------------------------


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_the_pass_reports_exactly_the_dead_names(tmp_path):
    package = _write_tree(tmp_path / "pkg", {
        "__init__.py": "from pkg.a import used, via_dead, listed\n",
        "a.py": (
            "__all__ = ['used', 'via_dead', 'listed']\n"
            "def used():\n    return _helper()\n"
            "def _helper():\n    return 1\n"
            "def dead():\n    return via_dead()\n"
            "def via_dead():\n    return 2\n"
        ),
        "b.py": "def listed():\n    return 3\n",
        "entry.py": (
            "from pkg.a import used\n"
            "def main():\n    return used()\n"
            "if __name__ == '__main__':\n    main()\n"
        ),
    })
    dead = {found.name: found for found in unreached(package)}
    # `dead` has no caller; `via_dead` only a dead one; `listed` only strings and imports
    assert set(dead) == {"dead", "via_dead", "listed"}
    assert (dead["dead"].lineno, dead["dead"].end_lineno) == (6, 7)
    # a user file's import is a root; its reach is transitive
    users = _write_tree(tmp_path / "benchmarks", {"bench.py": "from pkg.a import dead\n"})
    assert {found.name for found in unreached(package, [users])} == {"listed"}


def _planted(tmp_path: Path) -> Path:
    package = tmp_path / "repro"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "textproc" / "distance.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef orphan():\n    ...\n")
    return package


def test_a_planted_orphan_is_red_and_a_reasonless_row_keeps_it_red(tmp_path):
    package = _planted(tmp_path)
    n_lines = len((package / "textproc" / "distance.py").read_text().splitlines())
    assert gate(package, USERS) == [
        "off every root and off the allowlist: "
        f"orphan  textproc/distance.py:{n_lines - 1}-{n_lines}  (2 lines)"
    ]
    for row in (("paper", ""), ("paper", "  "), ("test", "a test calls it"), ()):
        problems = gate(package, USERS, {**ALLOWLIST, "orphan": row})
        assert problems == [
            f"allowlist row 'orphan' needs a kind from {KINDS} and a one-line reason"
        ], row
    assert gate(package, USERS, {**ALLOWLIST, "orphan": ("paper", "§9 of no paper")}) == []


def test_an_allowlisted_name_a_root_reaches_is_an_error():
    for name in ("ClassificationPipeline", "no_such_name"):
        row = {name: ("paper", "§4.4: the pipeline itself")}
        assert gate(PACKAGE, USERS, {**ALLOWLIST, **row}) == [
            f"allowlist row {name!r} has outlived its reason: a root reaches it, or it is gone"
        ]
