"""Set-up time of a fresh process: import attiq, then load a workload's inputs.

    python3 perfbench/setup_child.py [--gains GAINS.json] [DATASET.csv ...]

Imports attiq.cli, the module the attiq command starts from, then reads
each dataset and the gain file. Prints one JSON line with the elapsed time
and the row count of each dataset. attiq must be importable (PYTHONPATH).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import attiq.cli  # noqa: E402,F401
from attiq.dataset import read_dataset  # noqa: E402
from attiq.synthesis import load_gains  # noqa: E402


def main(argv):
    gains = None
    if argv[:1] == ["--gains"]:
        gains, argv = argv[1], argv[2:]
    rows = [len(read_dataset(path).t) for path in argv]
    if gains is not None:
        load_gains(gains)
    print(json.dumps({"setup_s": time.perf_counter() - START, "rows": rows}))


if __name__ == "__main__":
    main(sys.argv[1:])
