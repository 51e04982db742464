import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import optising
from optising.cli import _STUDY_SCHEMA, build_parser, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(optising.__path__):
        mod = importlib.import_module(f"optising.{info.name}")
        missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
        assert not missing, f"optising.{info.name}.__all__ names {missing}"


def test_engine_module_is_importable_by_name(monkeypatch):
    import optising.anneal as engine

    assert engine is sys.modules["optising.anneal"]
    monkeypatch.setattr("optising.anneal.HIT_CHUNK", 32)
    assert engine.HIT_CHUNK == 32


def test_import_leaves_out_concurrent_futures_and_logging():
    # either would add its import time to every CLI start
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, optising, optising.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python library example"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out  # the example prints its results


def test_readme_cli_examples_parse():
    text = README.read_text()
    section = text[text.index("## CLI"):text.index("## Library example")]
    lines = [line for block in re.findall(r"```sh\n(.*?)```", section, re.S)
             for line in block.splitlines() if line.startswith("optising ")]
    assert len(lines) >= 8, "README's CLI block lost its optising commands"
    keys = {key for schema in _STUDY_SCHEMA.values() for key in schema}
    parser = build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        if args.command == "experiment" and args.config is None:
            resolve_config(args.study, None, {key: getattr(args, key) for key in keys})
