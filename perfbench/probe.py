"""Set-up probe: one fresh process that gets ready to send the first request.

    python3 perfbench/probe.py <workload> <seed>

Imports ``regsing`` and ``regsing.cli``, builds the workload's inputs
from the seed, then prints ``ready <import_ms>``.  The parent times the
process from spawn to that line.
"""

import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import regsing  # noqa: F401
    import regsing.cli  # noqa: F401

    import_ms = (time.perf_counter() - t0) * 1e3
    import inputs

    if workload == "cli":
        inputs.parse_cli_inputs()
    else:
        [inputs.build_spec(c) for c in inputs.CASES[workload](seed)]
    print(f"ready {import_ms!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
