"""Set-up cost of one `frfkit run`, measured in a fresh process.

Times importing the package (numpy and scipy included), parsing and
validating the scenario config, and loading and discretizing the plant.
Prints the elapsed seconds as a JSON object.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src, config = Path(sys.argv[1]).resolve(), sys.argv[2]
    sys.path.insert(0, str(src))
    from frfkit import cli, sim

    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported frfkit from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cfg = cli.parse_config(config)
    sim.discretize_zoh(sim.benchmark_plant(), cfg.ts)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
