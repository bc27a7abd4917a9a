"""scripts/stage_ab.py, the stage A/B of two source trees, run on one tree
against itself."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


@pytest.fixture
def stage_ab():
    spec = importlib.util.spec_from_file_location(
        "stage_ab", ROOT / "scripts" / "stage_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    # the two trees' packages are imported under their own names
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("kepes_old", "kepes_new")]:
        del sys.modules[name]


def test_every_config_timed(stage_ab, capsys):
    # a "rhs differ" or "budget differ" exit would raise SystemExit here
    stage_ab.main([SRC, SRC, "--rounds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config n |")
    assert len(lines) == 1 + len(stage_ab.CONFIGS)
    for line, (name, n, law) in zip(lines[1:], stage_ab.CONFIGS):
        assert line.startswith(f"{name} {law or ''} {n} |")
        assert line.endswith("/2")


def test_budget_compared(stage_ab, tmp_path):
    # a tree whose budget rows differ while its rhs does not
    shutil.copytree(ROOT / "src" / "kepes", tmp_path / "kepes")
    diagnostics = tmp_path / "kepes" / "diagnostics.py"
    text = diagnostics.read_text()
    assert "        time=time,\n" in text
    diagnostics.write_text(text.replace("        time=time,\n",
                                        "        time=time + 1.0,\n"))
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, str(tmp_path), "--rounds", "2"])
    name, n, law = stage_ab.CONFIGS[0]
    assert exit_info.value.code == f"{name} {law or ''} n={n}: budget differ"


@pytest.mark.parametrize("rounds", ["1", "0", "-3"])
def test_too_few_rounds_rejected(stage_ab, rounds, capsys):
    # the quartiles need two rounds per tree
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, SRC, "--rounds", rounds])
    assert exit_info.value.code == 2
    assert "--rounds: must be at least 2" in capsys.readouterr().err
