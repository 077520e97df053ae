"""Set-up probe: one fresh process that imports the program and runs a
workload's probe call twice (see workloads.probe_main).

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.probe_main(sys.argv[1], int(sys.argv[2]))
