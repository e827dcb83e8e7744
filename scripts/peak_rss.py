"""Peak resident memory of one ``python -m repro`` invocation.

Usage (from the repository root)::

    python scripts/peak_rss.py batch DIR --jobs 2
    python scripts/peak_rss.py fleet fig7 --fast --workers 2 --store DIR

Runs ``python -m repro <args>`` as a child of this process, with ``src``
on ``PYTHONPATH``, and passes its output through.  When it exits, prints
``peak_rss_mb <MB>`` on stderr and exits with the command's exit code.

The number is ``ru_maxrss`` of this process's waited-for children: the
resident high-water mark of the largest single process in the command's
tree (the CLI process, its pool workers, its fleet workers), not a sum
over processes that ran at once.  A child's ``ru_maxrss`` starts from its
parent's high-water mark, because Linux carries it across ``fork`` and
keeps it through ``exec``.  So this parent stays lean: it imports only the
standard library and loads nothing of the program, and the floor it adds
is a bare interpreter's.  A harness that has imported numpy or solved
anything itself cannot measure a command's own peak this way.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python scripts/peak_rss.py <repro args...>", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    code = subprocess.call([sys.executable, "-m", "repro", *argv], env=env)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"peak_rss_mb {peak_kb / 1024:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
