"""Independence promises checked on the source text, without importing it.

The bundled solver is a standalone program, the validator is the trust
anchor that rests on the model operations alone, the dense oracle is the
yardstick the belief kernel is measured against, and the reference term
evaluator is the one the bundled solver's compiled closures are measured
against; each promise holds only while the imports (and calls) below stay
out.  Neither the validator nor the dense oracle reads the support
abstraction that the smtlib backend's lemmas are built from, and no solver
backend reads a block: the lemma learned with it implies it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "safereach"
KERNEL = {"successors", "available_actions"}
KERNEL_READERS = {"belief_update", "observation_probability", "unnormalized_update"}
SUPPORT_TABLE = {"support_successors", "wins", "mass_class"}


def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """``(level, dotted name)`` of every module an import statement names;
    ``from . import x`` names the module ``x``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                out.extend((node.level, alias.name) for alias in node.names)
            else:
                out.append((node.level, node.module))
    return out


def test_refsolver_imports_only_the_standard_library():
    modules = imported_modules(tree_of(PACKAGE / "refsolver.py"))
    assert modules
    outside = [(level, name) for level, name in modules
               if level or name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_validator_imports_nothing_from_the_package_but_core():
    modules = imported_modules(tree_of(PACKAGE / "validate.py"))
    ours = {(level, name) for level, name in modules
            if level or name.split(".")[0] == "safereach"}
    assert ours == {(1, "core")}


def test_dense_oracle_never_reads_the_belief_kernel():
    tree = tree_of(ROOT / "tests" / "oracles.py")
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not attributes & KERNEL
    assert not imported & (KERNEL | KERNEL_READERS)


def test_term_reference_borrows_only_the_solvers_error_and_conflict_marker():
    """Reading more of the solver would test its compiler against itself."""
    borrowed = set()
    for node in ast.walk(tree_of(ROOT / "tests" / "oracles.py")):
        if isinstance(node, ast.Import):
            borrowed |= {alias.name for alias in node.names if "refsolver" in alias.name}
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            borrowed |= names if node.module == "safereach.refsolver" else names & {"refsolver"}
    assert borrowed == {"SmtSyntaxError", "CONFLICT"}


def names_used(tree: ast.Module) -> set[str]:
    """Every attribute, bare name and imported name in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def test_support_table_names_are_seen():
    tree = ast.parse("from safereach.core import mass_class\nrun.wins(s, 2)\n"
                     "model.support_successors(s)")
    assert names_used(tree) >= SUPPORT_TABLE


@pytest.mark.parametrize("path", [PACKAGE / "validate.py", ROOT / "tests" / "oracles.py",
                                  PACKAGE / "synthesis.py"],
                         ids=["validator", "dense oracle", "bps"])
def test_trust_anchors_read_no_support_table(path):
    """The trust anchors, the validator and the dense oracle, judge no
    belief by its support; nor does ``bps``, which sends a session only the
    goal: each backend reads the support game from the run itself."""
    assert not names_used(tree_of(path)) & SUPPORT_TABLE


def test_no_solver_backend_names_a_block():
    modules = sorted((PACKAGE / "solver").glob("*.py"))
    assert len(modules) >= 4
    assert [path.name for path in modules if "Blocking" in names_used(tree_of(path))] == []
