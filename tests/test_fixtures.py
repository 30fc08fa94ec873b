"""scripts/make_fixtures.py reproduces the shipped fixture files byte for byte."""

import importlib.util
import os

from conftest import FIXTURES

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_fixtures.py")


def test_make_fixtures_reproduces_shipped_files(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = str(tmp_path)
    script.main()
    written = sorted(os.listdir(tmp_path))
    assert written == sorted(n for n in os.listdir(FIXTURES) if n.endswith(".csv"))
    for name in written:
        with open(tmp_path / name, "rb") as new, open(os.path.join(FIXTURES, name), "rb") as old:
            assert new.read() == old.read(), name
