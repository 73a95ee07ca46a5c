"""Reachability census: every module under ``src/repro/`` serves someone.

The import graph is read from the source with :mod:`ast` — imports
inside functions count, and importing ``a.b.c`` imports ``a`` and
``a.b`` — and every module must land in exactly one class:

* **product / harness** — reachable from ``repro.cli`` or
  ``repro.__main__``: a subcommand runs it.
* **evidence / tool** — declared in :data:`DECLARED` beside the
  benchmark, example, Makefile target or CI step that imports it (the
  paper evaluates by micro-benchmark plus extrapolation, so a module
  that exists to regenerate a figure is legitimate — by declaration,
  and the census checks that importer really imports it), or reachable
  from such a module.
* **library** — declared in :data:`LIBRARY` with the paper section it
  models; only tests import it, and at least one must.

Anything else fails: it gets a caller, a row, or a deletion.  A row
whose module has since become reachable from the CLI, or has vanished,
fails too, so the tables cannot rot.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

ENTRY_POINTS = ("repro.cli", "repro.__main__")

#: module -> (class, the file outside ``src/`` that imports or runs it).
DECLARED = {
    "repro.analysis.aggregator_model": (
        "evidence", "benchmarks/bench_fig9b_aggregator_compute.py"),
    "repro.analysis.extrapolate": (
        "evidence", "benchmarks/bench_user_compute.py"),
    "repro.analysis.sharding_model": (
        "evidence", "benchmarks/bench_shard_scale.py"),
    "repro.baselines.graphx": (
        "evidence", "benchmarks/bench_graphx_baseline.py"),
    "repro.core.analyst": ("evidence", "examples/epidemic_study.py"),
    "repro.mixnet.adversary": (
        "evidence", "benchmarks/bench_fig5a_anonymity.py"),
    "repro.mixnet.trafficanalysis": (
        "evidence", "benchmarks/bench_traffic_analysis.py"),
    "repro.sharding": ("evidence", "benchmarks/bench_shard_scale.py"),
    "repro.workloads.attributes": ("evidence", "examples/epidemic_study.py"),
    "repro.clidocs": ("tool", "Makefile"),
    "repro.telemetry.contract": ("tool", "Makefile"),
}

#: module -> the paper section that justifies keeping a test-only model.
LIBRARY = {
    "repro.analysis.accuracy": (
        "§1: Laplace noise is constant in N while the signal grows — the "
        "scale argument for targeting millions of devices"),
    "repro.workloads.federations": (
        "§7 Discussion: device federations and capability-biased hop and "
        "committee selection"),
}


def _module_files(src: Path) -> dict[str, Path]:
    modules = {}
    for path in src.rglob("*.py"):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: Path, package: str = "") -> set[str]:
    """Every dotted name ``path`` imports, at any nesting depth; ``from
    a import b`` yields both ``a`` and ``a.b`` (``b`` may be a module)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _with_parents(names, modules) -> set[str]:
    found = set()
    for name in names:
        parts = name.split(".")
        found.update(
            prefix
            for prefix in (".".join(parts[:i]) for i in range(1, len(parts) + 1))
            if prefix in modules
        )
    return found


def _runs_module(text: str, module: str) -> bool:
    return re.search(rf"-m {re.escape(module)}(?![\w.])", text) is not None


def census(repo: Path, declared=None, library=None) -> tuple[dict, list[str]]:
    """``(module -> class, problems)`` for the tree rooted at ``repo``."""
    declared = DECLARED if declared is None else declared
    library = LIBRARY if library is None else library
    modules = _module_files(repo / "src")
    graph = {}
    for name, path in modules.items():
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        # Importing a module imports its own parent packages as well.
        graph[name] = _with_parents({name, *_imported_names(path, package)}, modules)

    def closure(roots):
        seen, stack = set(), [r for r in roots if r in graph]
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(graph[name])
        return seen

    classes = dict.fromkeys(closure(ENTRY_POINTS), "product")
    problems = []
    for name in (*declared, *library):
        if name not in modules:
            problems.append(f"{name}: declared but does not exist")
        elif name in classes:
            problems.append(f"{name}: declared, but the CLI reaches it — drop the row")
    for name, (kind, importer) in declared.items():
        path = repo / importer
        if not path.is_file():
            problems.append(f"{name}: importer {importer} does not exist")
        elif path.suffix == ".py":
            if name not in _with_parents(_imported_names(path), modules):
                problems.append(f"{name}: {importer} does not import it")
        elif not _runs_module(path.read_text(), name):
            problems.append(f"{name}: {importer} does not run it")
        for reached in closure([name]):
            classes.setdefault(reached, kind)
    tested = set()
    for path in (repo / "tests").rglob("*.py"):
        tested |= _with_parents(_imported_names(path), modules)
    for name in library:
        if name in modules and name not in tested:
            problems.append(f"{name}: library module no test imports")
        for reached in closure([name]):
            classes.setdefault(reached, "library")
    for name in sorted(set(modules) - set(classes)):
        classes[name] = "unreached"
        problems.append(
            f"{name}: nothing reaches it — give it a caller, a census row, "
            "or delete it"
        )
    return classes, problems


def test_every_module_is_classified_and_every_row_holds():
    classes, problems = census(REPO_ROOT)
    assert not problems, "\n".join(problems)
    assert set(classes.values()) == {"product", "evidence", "tool", "library"}
    # The split the rows stand for: livesim and its layout ride in as
    # evidence behind repro.sharding; the served stack is product.
    assert classes["repro.sharding.livesim"] == "evidence"
    assert classes["repro.service.scheduler"] == "product"


def _tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


TOY = {
    "src/repro/__init__.py": "",
    "src/repro/cli.py": "def main():\n    from repro.pkg import used\n",
    "src/repro/pkg/__init__.py": "",
    "src/repro/pkg/used.py": "from . import helper\n",
    "src/repro/pkg/helper.py": "",
    "src/repro/figure.py": "import repro.model\n",
    "src/repro/model.py": "",
    "src/repro/orphan.py": "",
    "benchmarks/bench_figure.py": "from repro import figure\n",
    "Makefile": "docs:\n\tpython -m repro.figure\n",
    "tests/test_nothing.py": "",
}


def test_an_unlisted_unreachable_module_fails_the_census(tmp_path):
    repo = _tree(tmp_path, TOY)
    rows = {"repro.figure": ("evidence", "benchmarks/bench_figure.py")}
    classes, problems = census(repo, declared=rows, library={})
    assert [p.split(":")[0] for p in problems] == ["repro.orphan"]
    # Function-level and relative imports count; evidence is transitive.
    assert classes["repro.pkg.helper"] == "product"
    assert classes["repro.model"] == "evidence"
    assert classes["repro.orphan"] == "unreached"


def test_rows_that_rotted_fail_the_census(tmp_path):
    repo = _tree(tmp_path, TOY)
    rows = {
        "repro.figure": ("evidence", "tests/test_nothing.py"),  # no import
        "repro.orphan": ("tool", "Makefile"),  # the Makefile runs figure only
        "repro.pkg.used": ("evidence", "benchmarks/bench_figure.py"),  # product
        "repro.gone": ("evidence", "benchmarks/bench_missing.py"),
    }
    _, problems = census(repo, declared=rows, library={"repro.model": "§0"})
    text = "\n".join(problems)
    assert "repro.figure: tests/test_nothing.py does not import it" in text
    assert "repro.orphan: Makefile does not run it" in text
    assert "repro.pkg.used: declared, but the CLI reaches it" in text
    assert "repro.gone: declared but does not exist" in text
    assert "repro.gone: importer benchmarks/bench_missing.py does not exist" in text
    assert "repro.model: library module no test imports" in text
