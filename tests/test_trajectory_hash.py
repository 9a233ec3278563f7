"""``tools/trajectory_hash.py`` reprints ``tools/trajectory_hash.txt`` line for
line: every engine's picks and final states are those of the committed code."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
# the series the committed file was printed with; others may round differently
PRINTED_WITH = {"numpy": ("2.4", np.__version__), "scipy": ("1.17", scipy.__version__)}


def test_trajectory_hashes_match_committed_file():
    for name, (series, version) in PRINTED_WITH.items():
        if version.split(".")[:2] != series.split("."):
            pytest.skip(f"{name} {version} is not the {series} series that "
                        "tools/trajectory_hash.txt was printed with")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "trajectory_hash.py")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "tools" / "trajectory_hash.txt").read_text().splitlines()
    assert proc.stdout.splitlines() == expected
