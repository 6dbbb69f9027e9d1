"""``python3 benchmarks/e2e/run.py ARGS`` is ``python -m benchmarks.e2e run
ARGS`` for callers that name a file rather than a module."""

import os
import sys

if __name__ == "__main__":
    # the repository root, so that the package imports by its name
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from benchmarks.e2e.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
