"""Whether the processes of one ``python -m repro`` invocation share a CPU.

Usage (from the repository root)::

    python scripts/cpu_spread.py batch DIR --jobs 2 --store STORE
    python scripts/cpu_spread.py fleet fig7 --fast --workers 2 --store DIR

Runs ``python -m repro <args>`` as a child of this process, with ``src``
on ``PYTHONPATH``, and passes its output through.  Every 10 ms it reads
``/proc/<pid>/stat`` of the child and of all its descendants: the run
state and the CPU each last ran on.  A sample in which two or more of
them are runnable (state ``R``) is *spread* when they occupy as many
distinct CPUs as they can (one each, or every CPU of the affinity mask
when they outnumber it) and *co-located* when two share a CPU while a CPU
of the mask runs none of them, so that one waits while a CPU it could
use idles.  When the command exits, prints on stderr::

    cpu_spread samples <n> spread <n> co_located <n>

and exits with the command's exit code.  Samples with fewer than two
runnable processes count toward ``samples`` only.  The counts depend on
the machine and its load; only the standard library is used, so the
sampler adds little load of its own.  Linux only (it reads ``/proc``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROC = Path("/proc")
#: seconds between samples
INTERVAL_S = 0.01


def _stat(pid: str) -> tuple[str, int, int] | None:
    """(state, ppid, last CPU) of one process, or None once it is gone."""
    try:
        text = (PROC / pid / "stat").read_text()
    except OSError:
        return None
    # the command name is parenthesised and may hold spaces or ')'
    fields = text[text.rindex(")") + 2 :].split()
    return fields[0], int(fields[1]), int(fields[36])


def _tree(root: int) -> list[tuple[str, int]]:
    """(state, last CPU) of ``root`` and every process descended from it."""
    stats = {}
    for entry in PROC.iterdir():
        if entry.name.isdigit():
            stat = _stat(entry.name)
            if stat is not None:
                stats[int(entry.name)] = stat
    children: dict[int, list[int]] = {}
    for pid, (_, ppid, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            state, _, cpu = stats[pid]
            tree.append((state, cpu))
        todo.extend(children.get(pid, ()))
    return tree


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python scripts/cpu_spread.py <repro args...>", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    n_cpus = len(os.sched_getaffinity(0))
    child = subprocess.Popen([sys.executable, "-m", "repro", *argv], env=env)
    samples = spread = co_located = 0
    while child.poll() is None:
        cpus = [cpu for state, cpu in _tree(child.pid) if state == "R"]
        samples += 1
        if len(cpus) >= 2:
            if len(set(cpus)) == min(len(cpus), n_cpus):
                spread += 1
            else:
                co_located += 1
        time.sleep(INTERVAL_S)
    print(
        f"cpu_spread samples {samples} spread {spread} co_located {co_located}",
        file=sys.stderr,
    )
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
