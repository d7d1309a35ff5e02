"""The package's public names come from its modules' ``__all__`` lists alone."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import scepoly
from scepoly import families, genfunc, integrals, poly, rational, report, suites

MODULES = (families, genfunc, integrals, poly, rational, report, suites)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_module_lists_are_pairwise_disjoint():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in seen, f"{name} is in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__


def test_every_listed_name_resolves_on_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(scepoly, name) is getattr(module, name), name


def test_package_list_is_the_union_plus_version():
    union = [name for module in MODULES for name in module.__all__]
    assert sorted(scepoly.__all__) == sorted(union + ["__version__"])
    assert len(scepoly.__all__) == len(set(scepoly.__all__))


# Every python block, the ones indented under a list item too.
README_BLOCKS = [textwrap.dedent(b) for b in re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)]


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_code_blocks_run(block):
    exec(compile(block, "README.md", "exec"), {})


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imported names that the module never reads and does not list in ``__all__``; a star
    import and ``__future__`` features bind nothing to check."""
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*"
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for element in getattr(node.value, "elts", ())
        if isinstance(element, ast.Constant)
    }
    return [name for name in imported if name not in read | listed]


@pytest.mark.parametrize("path", sorted(Path(scepoly.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text("utf-8"))) == []
