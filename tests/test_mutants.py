"""Every entry of tests/mutants.py still applies to the package, changes
it into a module that still parses, and names tests that exist, so a
stale or broken entry shows in Tier-1, not only when the mutant script
runs."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def defined_tests(path) -> set[str]:
    """The node ids, after the path, of a test module's test functions:
    `test_*` at module level and `Class::test_*` in its `Test*` classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and item.name.startswith("test_"))
    return names


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once_in_its_module(mutant):
    text = (ROOT / "src" / "circulant_clt" / mutant.module).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_changes_its_module_into_one_that_parses(mutant):
    # a mutant that breaks the syntax would fail every test it selects, or
    # none could be collected, whatever the tests check
    assert mutant.new != mutant.old
    text = (ROOT / "src" / "circulant_clt" / mutant.module).read_text(encoding="utf-8")
    ast.parse(text.replace(mutant.old, mutant.new))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_selection_names_existing_tests(mutant):
    assert mutant.tests
    for selection in mutant.tests:
        path, _, name = selection.partition("::")
        assert name in defined_tests(ROOT / path), selection
