"""Child process of the set-up metric.

Imports mtspkit from the checkout, makes one tiny call of each entry point
the named workload uses, and prints the system-wide monotonic clock, which
the parent subtracts from the time it started this process.

    python3 perfbench/setup_probe.py law
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports mtspkit)

workloads.CLASSES[sys.argv[1]].warm()
print(time.monotonic())
