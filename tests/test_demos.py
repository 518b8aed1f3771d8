"""Every script in ``demos/`` runs to completion against the library in
``src/`` and prints exactly its frozen output in ``tests/golden/demos/``."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden" / "demos"


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == [
        d.stem for d in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{script.stem}.txt").read_text(
        encoding="utf-8")
