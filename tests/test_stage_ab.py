"""scripts/stage_ab.py, the stage A/B of two source trees, run on one tree
against itself."""

import importlib.util
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
    # a "rhs differ" exit would raise SystemExit here
    stage_ab.main([SRC, SRC, "--rounds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config n |")
    assert len(lines) == 1 + len(stage_ab.CONFIGS)
    for line, (name, n, law) in zip(lines[1:], stage_ab.CONFIGS):
        assert line.startswith(f"{name} {law or ''} {n} |")
        assert line.endswith("/2")


@pytest.mark.parametrize("rounds", ["1", "0", "-3"])
def test_too_few_rounds_rejected(stage_ab, rounds, capsys):
    # the quartiles need two rounds per tree
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, SRC, "--rounds", rounds])
    assert exit_info.value.code == 2
    assert "--rounds: must be at least 2" in capsys.readouterr().err
