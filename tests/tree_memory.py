"""Peak memory of the command line on large trees of distinct states.

Two models, each a chain of control states whose every level doubles the
tree, so no state repeats and nothing is subsumed:

* the counter chain, 16 levels and 16 counters: from each ``q<i>`` one
  transition increments ``c<i>`` and one does nothing, both to
  ``q<i+1>``; ``check termination`` builds its 131,071 nodes;
* the FIFO send tree, 15 levels and one channel: from each ``q<i>`` one
  transition sends ``a`` and one sends ``b``, both to ``q<i+1>``, so every
  node holds a different channel word; ``check boundedness`` builds its
  65,535 nodes.

The script runs each check in a child process and prints the child's peak
resident set size, so that a memory regression of the tree build shows as
one number per machine kind:

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
FIFO_LEVELS = 15
FIFO_NODES = 2 ** (FIFO_LEVELS + 1) - 1
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


def send_tree_model(levels: int = FIFO_LEVELS) -> str:
    states = " ".join(f"q{i}" for i in range(levels + 1))
    lines = ["kind fifo", f"states {states}", "channels ch", "alphabet a b"]
    for i in range(levels):
        lines.append(f"q{i} -- ch!a --> q{i + 1}")
        lines.append(f"q{i} -- ch!b --> q{i + 1}")
    lines.append("init q0")
    return "\n".join(lines) + "\n"


def peak_rss_mb(model: str, analysis: str, expect: str) -> float:
    """Run ``check <analysis>`` on the model text; return the child's peak
    RSS in MB, after checking that its output holds ``expect``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.model"
        path.write_text(model, encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "wstskit", "check", analysis, str(path),
                "--budget", str(BUDGET)]
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=pythonpath))
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or expect not in out:
        raise SystemExit(f"unexpected result: {out!r}")
    return usage.ru_maxrss / 1024  # KiB on Linux


if __name__ == "__main__":
    counter = peak_rss_mb(chain_model(), "termination",
                          f"verdict: TERMINATING\nbudget used: {NODES}\n")
    print(f"peak RSS of the CLI on the {NODES:,}-node chain tree: {counter:.1f} MB")
    fifo = peak_rss_mb(send_tree_model(), "boundedness",
                       f"verdict: BOUNDED\nbudget used: {FIFO_NODES}\n")
    print(f"peak RSS of the CLI on the {FIFO_NODES:,}-node FIFO send tree: {fifo:.1f} MB")
