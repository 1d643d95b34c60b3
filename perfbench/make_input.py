"""Set-up step of one benchmark run, timed from outside as `setup_s`.

Usage: python3 perfbench/make_input.py WORKLOAD SEED OUT_DIR

Runs in a fresh interpreter, as a user's first command would: imports
`sparsepanel.cli`, then generates and writes the workload's inputs. Prints
one JSON line with the time spent simulating.
"""

import json
import sys
from pathlib import Path

import sparsepanel.cli  # noqa: F401  (importing it is part of the timed set-up)
from inputs import write_inputs


def main() -> int:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps({"simulate_s": write_inputs(workload, seed, out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
