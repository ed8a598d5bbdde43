"""Peak RSS of the runs that bound the library's memory, each against its bound.

    python3 tools/peak_rss.py

Writes the largest series first, then runs each command of `commands`
in a child process of its own, one after the other, on the specwalk
sources of this checkout. Each peak comes from `os.wait4` on that child,
so it is the child's own; RUSAGE_CHILDREN would give the largest peak of
any child waited for so far. A child's peak starts at its parent's RSS
when it is spawned, as Linux keeps the high-water mark of the address
space that exec replaces, so the tool is run from a process of its own.
It prints each peak and the er:5000 manifest's `spectrum.solver` line,
and exits 1 naming every command over its bound. `ru_maxrss` is read
in KiB, as Linux reports it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MAIN = "import sys, specwalk.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
# 10^6 grid points, the most a run takes: a 63 MB series.csv
LARGEST_SERIES = ["transport", "--dos", "semicircle:nu=0.5,lmax=2",
                  "--grid", "linear:0.01,1000,1000000"]


def specwalk(*args) -> list[str]:
    """The command line of a specwalk run on this checkout's sources."""
    return [sys.executable, "-c", _MAIN, *map(str, args)]


def commands(work: Path) -> list[tuple[str, list[str], float]]:
    """(name, command line, bound in MB) per run; each writes under `work`,
    where the largest series must already be, in `largest/series.csv`."""
    return [
        # dendrimer:10,3 --chi writes a 200 MB chi.csv; the run hashes it
        # and sums its chi a block at a time, so its peak RSS stays far
        # below the file's size (about 60 MB measured, 245 MB when the
        # check read the whole file back)
        ("large chi run", specwalk("run", "--graph", "dendrimer:10,3", "--chi",
                                   "--out", work / "chi"), 128),
        # star:1000000 writes a 10^6-row spectrum.csv, streamed a block of
        # rows at a time like every CSV (about 82 MB measured, 115 MB when
        # its whole text was joined into one string first)
        ("large spectrum run", specwalk("spectrum", "--graph", "star:1000000",
                                        "--out", work / "star"), 96),
        # torus:1000,2 (10^6 nodes, 2 * 10^6 edges) is sized by its edges
        # and takes its spectrum from the closed form, d values per node
        # (about 165 MB measured, near the 169 MB of ring:1000000; 192 MB
        # while the run held the graph through its writes)
        ("large torus", specwalk("spectrum", "--graph", "torus:1000,2",
                                 "--out", work / "torus"), 240),
        # er:5000 at the dense cap, eigenvalues only: ?syevd_2stage (or
        # ?syevd where scipy bundles no OpenBLAS) reads only the lower
        # triangle, so the upper half of the 200 MB matrix is never made
        # resident (about 165 MB measured, 177 MB through ?syevd, 242 MB
        # with the upper triangle written)
        ("large dense spectrum", specwalk("spectrum", "--graph", "er:5000,0.01,seed=1",
                                          "--out", work / "er5000"), 220),
        # fit parses the 10^6 rows in one np.loadtxt call (about 154 MB
        # measured, 475 MB when it built a Python list per row)
        ("fit on the largest series",
         specwalk("fit", "--series", work / "largest" / "series.csv",
                  "--fit-window", "10,100", "--out", work / "fit"), 200),
    ]


def peak_mb(command) -> float:
    """Run a command in a child process and return that child's peak RSS
    in MB; a nonzero exit raises CalledProcessError."""
    pid = os.posix_spawn(command[0], command, ENV)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise subprocess.CalledProcessError(code, command)
    return usage.ru_maxrss / 1024


def check(rows) -> int:
    """Print the peak RSS of each row's command; 1, naming every command
    over its bound, if any is, else 0."""
    over = []
    for name, command, bound in rows:
        peak = peak_mb(command)
        print(f"{name}: peak RSS {peak:.1f} MB (bound {bound} MB)", flush=True)
        if peak > bound:
            over.append(f"{name}: peak RSS {peak:.1f} MB exceeds {bound} MB")
    print("\n".join(over) or "every peak is within its bound", flush=True)
    return 1 if over else 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        work = Path(tmp)
        subprocess.run(specwalk(*LARGEST_SERIES, "--out", work / "largest"),
                       check=True, env=ENV)
        code = check(commands(work))
        with open(work / "er5000" / "manifest.txt") as manifest:
            print(*(line.strip() for line in manifest if line.startswith("spectrum.solver")))
    return code


if __name__ == "__main__":
    sys.exit(main())
