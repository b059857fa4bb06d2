"""Peak memory of the command line on a large tree of distinct states.

The model is a 16-level chain with 16 counters: from each ``q<i>`` one
transition increments ``c<i>`` and one does nothing, both to ``q<i+1>``.
No state repeats and nothing is subsumed, so ``check termination`` builds
the whole binary tree of 131,071 nodes.  The script runs that check in a
child process and prints the child's peak resident set size, so that a
memory regression of the tree build shows as one number:

    python tests/tree_memory.py

The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

LEVELS = 16
NODES = 2 ** (LEVELS + 1) - 1
BUDGET = 200000
SRC = Path(__file__).resolve().parent.parent / "src"


def chain_model(levels: int = LEVELS) -> str:
    states = " ".join(f"q{i}" for i in range(levels + 1))
    counters = " ".join(f"c{i}" for i in range(levels))
    lines = ["kind counter", f"states {states}", f"counters {counters}"]
    for i in range(levels):
        lines.append(f"q{i} -- inc(c{i}) --> q{i + 1}")
        lines.append(f"q{i} -- noop --> q{i + 1}")
    lines.append("init q0")
    return "\n".join(lines) + "\n"


def peak_rss_mb() -> float:
    """Run the check on the chain model; return the child's peak RSS in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.model"
        path.write_text(chain_model(), encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "wstskit", "check", "termination", str(path),
                "--budget", str(BUDGET)]
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=pythonpath))
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or (
        f"verdict: TERMINATING\nbudget used: {NODES}\n" not in out
    ):
        raise SystemExit(f"unexpected result: {out!r}")
    return usage.ru_maxrss / 1024  # KiB on Linux


if __name__ == "__main__":
    print(f"peak RSS of the CLI on the {NODES:,}-node chain tree: "
          f"{peak_rss_mb():.1f} MB")
