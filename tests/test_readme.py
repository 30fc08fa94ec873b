"""The README's library example runs as written, and its column tables
list the headers the CLI writes."""

import os
import re
import shutil

from conftest import FIXTURES
from quanto_bayes.cli import _SUMMARY_HEADER, PricingRow


def _readme():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as f:
        return f.read()


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(), re.M | re.S)
    assert len(blocks) == 1
    # the example reads asset.csv and fx.csv from the working directory
    shutil.copy(os.path.join(FIXTURES, "sp500_synthetic.csv"), tmp_path / "asset.csv")
    shutil.copy(os.path.join(FIXTURES, "eur_usd_synthetic.csv"), tmp_path / "fx.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    # one summary, one price, six batch lines and one sequential price
    assert len(capsys.readouterr().out.splitlines()) == 9


def test_readme_column_tables_list_the_written_headers():
    text = _readme()
    # each "| column | meaning |" table, keyed by the first file the paragraph
    # above it names, as the backquoted names of its rows' first cells
    tables = {}
    table = r"((?:^[^|\n].*\n)+)\n\| column \| meaning \|\n\| --- \| --- \|\n((?:^\|.*\n)+)"
    for intro, rows in re.findall(table, text, re.M):
        name = re.search(r"`(\w+\.csv)`", intro).group(1)
        tables[name] = [column for row in rows.splitlines()
                        for column in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert tables == {"estimate_summary.csv": list(_SUMMARY_HEADER),
                      "pricing.csv": list(PricingRow._fields)}
    dropped = re.search(r"`diagnose_summary\.csv`, which `diagnose` writes, has the same"
                        r"\s+columns\s+without `(\w+)` and `(\w+)`", text).groups()
    assert [c for c in _SUMMARY_HEADER if c not in dropped] == list(_SUMMARY_HEADER[1:-1])
