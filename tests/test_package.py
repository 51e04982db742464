import importlib
import pkgutil
import re
from pathlib import Path

import optising

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(optising.__path__):
        mod = importlib.import_module(f"optising.{info.name}")
        missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
        assert not missing, f"optising.{info.name}.__all__ names {missing}"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python library example"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out  # the example prints its results
