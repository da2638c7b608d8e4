"""The package namespace: every public name, loaded from its submodule on first use."""

import importlib
import re
from pathlib import Path

import pytest

import trifree

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", trifree.__all__)
def test_name_is_its_submodule_attribute(name):
    home = trifree._HOME[name]
    assert getattr(trifree, name) is getattr(importlib.import_module(f"trifree.{home}"), name)


def test_submodules_resolve_as_attributes():
    for module in ("bounds", "constructions", "feasibility", "graph", "oracle"):
        assert getattr(trifree, module) is importlib.import_module(f"trifree.{module}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from trifree import *", namespace)
    assert set(trifree.__all__) <= set(namespace)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        trifree.no_such_name


def test_dir_lists_every_public_name():
    assert set(trifree.__all__) <= set(dir(trifree))
    assert "__version__" in dir(trifree)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
