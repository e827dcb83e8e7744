"""Traced launcher: ``python perfbench/trace_launch.py SPANS_DIR <repro argv>``.

Times the program's import, wraps every traced layer (see
:mod:`perfbench.tracer`), then runs ``repro.__main__.main(argv)`` exactly
as ``python -m repro <argv>`` would.  Spans stay in memory and are
written to ``SPANS_DIR/<pid>.json`` per process when it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer(Path(argv[0]))
    total = tracer.begin("import.total")
    scipy_span = tracer.begin("import.scipy")
    import scipy.linalg  # noqa: F401  -- every scipy module the program imports
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    tracer.end(scipy_span)
    import repro.__main__ as cli

    tracer.end(total)
    install(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.flush("root")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
