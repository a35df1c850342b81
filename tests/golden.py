"""The pinned outputs of ``dp3``: one digest line per command.

Runs every command of ``COMMANDS`` as ``python -m delpezzo3.cli`` on the
``src`` of the tree this file sits in, with that tree as the working
directory and ``DP_FIXTURES`` unset, so the bundled data is read.  For
each command, in list order, it prints

    <sha256 of stdout>  <exit code>  dp3 <args>

to stdout, and the command's wall time and max RSS to stderr.
``tests/golden.sha256`` is that stdout, committed.  Stdlib only; it
takes no options.

    python tests/golden.py > golden.sha256 && diff tests/golden.sha256 golden.sha256

To re-record, redirect stdout into ``tests/golden.sha256``.  To compare
two checkouts, run each checkout's own copy and ``diff`` the outputs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent

ROOTS = ("w3a", "w3b", "w2a", "w2b", "w2c", "w2x2a", "w2x2b", "w2x2c", "w1a", "w1b", "w1c3")
PLANS = ("ex31a", "ex31b", "ex32a", "ex32b", "ex32c", "ex32x2a", "ex32x2b", "ex32x2c",
         "ex33a", "ex33b", "ex33c", "x1", "x2")
TABLES = ("char0", "char3", "char2_moduli", "char2", "nonlt_char2")
DATA = "src/delpezzo3/data"

COMMANDS = [
    *(["cascade", "--root", "w3b", "--depth", "8", "--jobs", jobs] for jobs in ("1", "2")),
    *(["cascade", "--root", root, "--depth", "5", "--jobs", jobs]
      for root in ROOTS for jobs in ("1", "2")),
    ["verify-tables", "--table", "all", "--cutoff", "12"],
    *(["verify-tables", "--table", "all", "--cutoff", "12", "--cascade-depth", "8", "--jobs", jobs]
      for jobs in ("1", "2")),
    ["enum-abcd", "--max", "50"],
    ["enum-abcd", "--max", "400"],
    *(["simulate", f"{DATA}/plans/{plan}.plan"] for plan in PLANS),
    ["homology", "--fixture", "1"],
    ["homology", "--fixture", "2"],
    ["homology", "--construct", "x1"],
    ["homology", "--construct", "x2"],
    *(["check", f"{DATA}/tables/{table}.types", "--cutoff", "12"] for table in TABLES),
]


def name(args: list[str]) -> str:
    """The command as the manifest names it."""
    return "dp3 " + " ".join(args)


def run(args: list[str]) -> tuple[str, float, float]:
    """Run ``dp3 args`` on this tree.  Return its manifest line, its wall
    time in seconds and its max RSS in MB: the largest of the process and
    the workers it waited for."""
    env = {**os.environ, "PYTHONPATH": str(TREE / "src")}
    env.pop("DP_FIXTURES", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "delpezzo3.cli", *args],
                            cwd=TREE, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        digest = hashlib.sha256(proc.stdout.read()).hexdigest()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return f"{digest}  {proc.returncode}  {name(args)}", wall, usage.ru_maxrss / 1024


def main() -> None:
    if len(sys.argv) > 1:
        sys.exit("golden.py takes no arguments: python tests/golden.py > golden.sha256")
    for args in COMMANDS:
        line, wall, rss = run(args)
        print(line, flush=True)
        print(f"{wall:7.2f} s {rss:6.1f} MB  {name(args)}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
