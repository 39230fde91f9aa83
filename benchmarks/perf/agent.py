"""Traced worker agent: ``python -m repro.engine.worker`` with the layer
wrappers installed (``$PERF_SPANS_DIR``).  The agent forks one child
per lease, which inherits the wrappers and writes its own spans.

Usage: ``python -m benchmarks.perf.agent --connect HOST:PORT ...``
(the arguments of ``python -m repro.engine.worker``).
"""

from __future__ import annotations

import sys

from benchmarks.perf import spans


def main(argv) -> int:
    installation = spans.install_from_env()
    from repro.engine import worker

    try:
        return worker.main(argv)
    finally:
        if installation is not None:
            installation.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
