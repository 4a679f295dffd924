"""The demos print exactly their frozen outputs."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_output_is_frozen(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
