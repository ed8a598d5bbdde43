import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "peak_rss.py"
_SPEC = importlib.util.spec_from_file_location("peak_rss", _PATH)
peak_rss = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_rss)

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="ru_maxrss is read in KiB, as Linux reports it")

# a child that fills 100 MB, and one that does nothing
BIG = [sys.executable, "-c", "b = b'x' * (100 << 20)"]
IDLE = [sys.executable, "-c", "pass"]


def run_check(rows):
    """The tool's check of `rows`, run from a fresh interpreter: a child's
    peak starts at its parent's RSS, which here would be the test
    process's."""
    script = (f"import runpy, sys; "
              f"sys.exit(runpy.run_path({str(_PATH)!r})['check']({rows!r}))")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)


def peaks(out):
    return {name: float(mb) for name, mb in re.findall(r"^(\w+): peak RSS ([\d.]+) MB \(",
                                                       out, flags=re.M)}


def test_each_peak_is_its_own_child():
    proc = run_check([("big", BIG, 1000), ("idle", IDLE, 1000)])
    assert proc.returncode == 0, proc.stderr
    got = peaks(proc.stdout)
    assert got["big"] >= 100
    # RUSAGE_CHILDREN would report the big child's peak here
    assert got["idle"] < 50
    assert proc.stdout.endswith("every peak is within its bound\n")


def test_names_every_command_over_its_bound():
    proc = run_check([("big", BIG, 50), ("idle", IDLE, 1000)])
    assert proc.returncode == 1, proc.stderr
    big = peaks(proc.stdout)["big"]
    assert proc.stdout.splitlines()[2:] == [f"big: peak RSS {big:.1f} MB exceeds 50 MB"]


def test_failed_command_raises():
    with pytest.raises(subprocess.CalledProcessError):
        peak_rss.peak_mb([sys.executable, "-c", "raise SystemExit(3)"])
