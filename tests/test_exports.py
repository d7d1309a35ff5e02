"""The package's public names come from its modules' ``__all__`` lists alone."""

import re
from pathlib import Path

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


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
