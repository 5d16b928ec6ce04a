"""Every script under scripts/ must import against the current package.

No test runs the scripts themselves, so a removed or renamed name that
one of them imports would otherwise fail only when someone runs it.
Loading each file executes its imports; main() stays uncalled because
every script guards it with ``if __name__ == "__main__"``.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
