"""The package namespace: every public name, loaded from its submodule on first use."""

import importlib
import io
import re
import shlex
import types
from pathlib import Path

import pytest

import trifree
from trifree.cli import main

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


# every record type, with one valid value of each field in field order
RECORDS = {
    "EBound": ("bounds", {"lower": 26, "upper": 28, "provenance": ("formula",)}),
    "CellRecord": ("bounds", {"l": 5, "n": 13, "lower": 26, "upper": 26, "preliminary": True, "source": "w13"}),
    "DegreeDistribution": ("feasibility", {"counts": ((3, 2), (4, 11))}),
    "DefectReport": (
        "feasibility",
        {"distribution": None, "caps": ((4, 10),), "defect": 0, "cap_sources": ((4, "formula"),)},
    ),
    "GraphClass": ("graph", {"triangle_free": True, "alpha": 4, "n": 13, "e": 26}),
    "PatternSummary": ("constructions", {"vertex_count": 2, "edge_count": 1, "degree_square_sum": 2}),
    "OracleResult": ("oracle", {"value": 26, "witness": None, "nodes": 7}),
    "CrossEntry": ("oracle", {"l": 5, "n": 13, "value": 26, "bound": None}),
    "CrossReport": ("oracle", {"entries": (), "nodes": 0}),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_an_immutable_value(name):
    module, fields = RECORDS[name]
    cls = getattr(importlib.import_module(f"trifree.{module}"), name)
    record = cls(**fields)
    assert [getattr(record, f) for f in fields] == list(fields.values())
    assert record == cls(*fields.values())
    assert hash(record) == hash(cls(**fields))
    assert repr(record).startswith(f"{name}(")
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_command_line_example_runs(tmp_path, monkeypatch, capsys):
    # each command runs in a scratch directory; a pipe feeds one command's
    # output to the next on stdin
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        piped = b""
        for command in line.split("#", 1)[0].split("|"):
            name, *argv = shlex.split(command)
            assert name == "trifree"
            monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(piped)))
            assert main(argv) == 0, command
            piped = capsys.readouterr().out.encode("utf-8")
