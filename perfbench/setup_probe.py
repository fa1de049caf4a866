"""Set-up a user pays once per process: import, load the case, build the PTDF.

    python3 perfbench/setup_probe.py <checkout root> <case.yaml>

Prints one JSON object with the three times. Imports nothing before
carbomarket, so the import time includes numpy and scipy.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    root, case_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    import carbomarket

    t1 = time.perf_counter()
    case = carbomarket.load_case(case_file)
    t2 = time.perf_counter()
    case.ptdf  # noqa: B018 - computed on first access
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - _t0, "load_case_s": t2 - t1, "ptdf_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
