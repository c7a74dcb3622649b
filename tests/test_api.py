"""The package namespace is the supported API: the names the CLI and the
README use, the records they return, EnsembleSpec and the errors.
Everything else the package defines is reached from there."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import circulant_clt

SUPPORTED = [
    "ConfigError",
    "EnsembleSpec",
    "ExperimentConfig",
    "ExperimentSummary",
    "SmoothnessRequiredError",
    "SteinEstimate",
    "TestPolynomial",
    "__version__",
    "estimate_kappas",
    "limiting_variance",
    "run_clt_experiment",
]


def test_all_is_the_supported_api():
    assert sorted(circulant_clt.__all__) == SUPPORTED
    for name in circulant_clt.__all__:
        assert getattr(circulant_clt, name) is not None


def test_readme_library_example_uses_only_the_supported_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    library = readme.split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bcc\.(\w+)", block))
    assert used
    assert used <= set(circulant_clt.__all__)


def _names_used(node: ast.AST) -> set[str]:
    """Identifiers a statement mentions: names, attributes and imports."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_public_definition_is_reached():
    # a public module-level function or class is in __all__ or referenced by
    # another top-level statement of the package, and a public method or
    # property of a package class by any statement outside its own
    # definition; test oracles live in tests/
    package = Path(circulant_clt.__file__).parent
    statements = [(path.stem, node) for path in sorted(package.rglob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    defs = [(f"{module}.{node.name}", node, node.name in circulant_clt.__all__,
             [other for _, other in statements if other is not node])
            for module, node in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [(f"{name}.{member.name}", member, False,
              others + [m for m in node.body if m is not member])
             for name, node, _, others in defs if isinstance(node, ast.ClassDef)
             for member in node.body if isinstance(member, ast.FunctionDef)]
    unreached = [
        name for name, node, exported, others in defs
        if not node.name.startswith("_") and not exported
        and not any(node.name in _names_used(other) for other in others)
    ]
    assert unreached == []


def test_oracles_import_no_private_package_name():
    # an oracle shares no private code with the kernel it checks
    oracles = Path(__file__).with_name("oracles.py")
    shared = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(oracles.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "circulant_clt"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert shared == []


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency: importing the CLI loads no scipy
    code = ("import sys, circulant_clt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(circulant_clt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
