"""scripts/stage_ab.py, the stage A/B of two source trees, run on one tree
against itself."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from kepes.spatial import LANES

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
    # a "... differ" exit would raise SystemExit here
    stage_ab.main([SRC, SRC, "--rounds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config n call |")
    assert len(lines) == 1 + len(stage_ab.KINDS) * len(stage_ab.CONFIGS)
    labels = [f"{name} {law or ''} {n} {kind} |"
              for name, n, law in stage_ab.CONFIGS for kind in stage_ab.KINDS]
    for line, label in zip(lines[1:], labels):
        assert line.startswith(label)
        assert line.endswith("/2")
    # a config of at least LANES cells also times its held stage in one
    # lane
    for line, (name, n, law) in zip(lines[1::len(stage_ab.KINDS)],
                                    stage_ab.CONFIGS):
        assert ("; one lane " in line) == (n >= LANES), line
    # the budget sample, the snapshot and the workspace's recording are
    # timed beside the stage, dt and the RK step
    assert stage_ab.KINDS == ("rhs", "dt", "rk3", "budget", "snapshot",
                              "bind")
    # both benchmark sizes of the JST path are timed
    assert ("ns_shock_structure_n50", 50, None) in stage_ab.CONFIGS
    assert ("sod_viscous", 500, None) in stage_ab.CONFIGS


@pytest.mark.parametrize("old, new, what", [
    ("    return float(dt)\n", "    return 2.0 * float(dt)\n", "dt"),
    ("    dt = np.array(dt, dtype=float)\n",
     "    dt = np.array(2.0 * dt, dtype=float)\n", "rk3"),
])
def test_step_compared(stage_ab, tmp_path, old, new, what):
    # a tree whose compute_dt or ssp_rk3_step differs while its rhs and
    # budget rows do not
    shutil.copytree(ROOT / "src" / "kepes", tmp_path / "kepes")
    timeint = tmp_path / "kepes" / "timeint.py"
    text = timeint.read_text()
    assert old in text
    timeint.write_text(text.replace(old, new))
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, str(tmp_path), "--rounds", "2"])
    name, n, law = stage_ab.CONFIGS[0]
    assert exit_info.value.code == f"{name} {law or ''} n={n}: {what} differ"


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


def test_face_fields_compared(stage_ab, tmp_path):
    # a tree whose stage gives an inviscid config a nonzero visc: its rhs
    # is the same, since an inviscid net subtracts no visc
    shutil.copytree(ROOT / "src" / "kepes", tmp_path / "kepes")
    spatial = tmp_path / "kepes" / "spatial.py"
    text = spatial.read_text()
    assert "            self.visc[...] = 0.0\n" in text
    spatial.write_text(text.replace("            self.visc[...] = 0.0\n",
                                    "            self.visc[...] = 1.0\n"))
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, str(tmp_path), "--rounds", "2"])
    name, n, law = stage_ab.CONFIGS[0]
    assert exit_info.value.code == f"{name} {law or ''} n={n}: visc differ"
    assert stage_ab.FACE_FIELDS == ("central", "diss", "visc", "net", "cells")


@pytest.mark.parametrize("old, new, config", [
    # the "%" format of a small block: the first config, at 24 cells
    ('(b",%.17g" * len(columns))', '(b",%.16g" * len(columns))', 0),
    # the kernel's separator: the first config of 40 cells or more
    ("(44, 10)", "(59, 10)", 4),
])
def test_snapshot_compared(stage_ab, tmp_path, old, new, config):
    # a tree whose snapshot bytes differ while everything else is equal
    shutil.copytree(ROOT / "src" / "kepes", tmp_path / "kepes")
    module = tmp_path / "kepes" / ("driver.py" if config == 0
                                   else "formatting.py")
    text = module.read_text()
    assert text.count(old) == 1
    module.write_text(text.replace(old, new))
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, str(tmp_path), "--rounds", "2"])
    name, n, law = stage_ab.CONFIGS[config]
    assert exit_info.value.code == f"{name} {law or ''} n={n}: snapshot differ"


@pytest.mark.parametrize("rounds", ["1", "0", "-3"])
def test_too_few_rounds_rejected(stage_ab, rounds, capsys):
    # the quartiles need two rounds per tree
    with pytest.raises(SystemExit) as exit_info:
        stage_ab.main([SRC, SRC, "--rounds", rounds])
    assert exit_info.value.code == 2
    assert "--rounds: must be at least 2" in capsys.readouterr().err
