"""``python -m perfbench`` — see :mod:`perfbench.runner`."""

import sys

from .runner import main

# Guarded: FleetPool workers are spawned and re-import the main module.
if __name__ == "__main__":
    sys.exit(main())
