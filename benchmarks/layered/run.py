"""Driver entry point: ``python3 benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.layered.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
