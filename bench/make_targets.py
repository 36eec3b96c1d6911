"""Write ``ils_targets.json``: the ILS target pool of the scan-dag workload.

Run from the repository root, at the commit whose trajectory fixes the
targets::

    python3 bench/make_targets.py

For each pool instance (``workloads.pool_instance``) the target is one time
unit below the makespan of its constructive start, ``best_of_est_ect``,
when that start has an improving reduced neighbor; instances without one
are left out of the pool. The file also holds each instance's text
fingerprint, so a changed generator shows as an input error instead of
silently moving the targets.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from flexshop.constructive import best_of_est_ect  # noqa: E402
from flexshop.moves import enumerate_neighbors  # noqa: E402

import workloads  # noqa: E402

POOL_SIZES = {40: 1000, 12: 100}  # operations -> pool instances (12: smoke)


def target(g):
    inst = g.parse()
    start = best_of_est_ect(inst)
    if any(m.schedule.makespan < start.makespan
           for m in enumerate_neighbors(inst, start, "reduced")):
        return start.makespan - 1
    return None


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH,
                            capture_output=True, text=True).stdout.strip()
    pools = {}
    for n, size in POOL_SIZES.items():
        pool = pools[str(n)] = {}
        for j in range(size):
            g = workloads.pool_instance(n, j)
            t = target(g)
            if t is not None:
                pool[str(j)] = [t, workloads.text_sha(g)]
        print(f"n={n}: {len(pool)} of {size} instances have a target")
    data = {
        "commit": commit or "unknown",
        "rule": "best_of_est_ect makespan - 1, where the start has an "
                "improving reduced neighbor",
        "pools": pools,
    }
    text = json.dumps(data, indent=1)
    # one pool entry a line
    text = re.sub(r'\[\s+(\d+),\s+("\w+")\s+\]', r"[\1, \2]", text)
    workloads.TARGETS_FILE.write_text(text + "\n")


if __name__ == "__main__":
    main()
