"""scripts/loc.py, the line counts of the kepes modules: each module's
count and the total are those of `wc -l`, and the four kinds of line add
up to them."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kepes"


def test_counts_equal_wc(capsys):
    spec = importlib.util.spec_from_file_location(
        "loc", ROOT / "scripts" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    rows = loc.main([str(SRC)])
    paths = sorted(SRC.glob("*.py"))
    wc = subprocess.run(["wc", "-l", *map(str, paths)], capture_output=True,
                        text=True, check=True).stdout.split("\n")
    want = [int(line.split()[0]) for line in wc if line.strip()]
    assert [wc_l for _, wc_l, _ in rows] == want
    assert [name for name, _, _ in rows] == [p.stem for p in paths] + ["total"]
    for _, wc_l, counts in rows:
        assert sum(counts.values()) == wc_l
    assert "total" in capsys.readouterr().out
