"""Set-up probe: one fresh interpreter that prepares a workload's first op.

Usage: python3 probe.py SRC_DIR WORKLOAD

Imports dcubed from SRC_DIR, builds the workload's starting objects and
prints ``ready``.  The parent times the interval from launching this
process to reading that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import contexts  # noqa: E402  (the script's own directory is on sys.path)

contexts.BUILDERS[sys.argv[2]]()
print("ready", flush=True)
