"""Regenerate bench/pins.json from the program as it is now.

    python3 bench/pin.py

The pins are the digests of every answer the workloads check that has no
golden file: per-degree answers, reports, depths, presentations, command
outcomes (refusals included) and the cold command line output.  Re-pin
only when a change of output is intended, and say so where the change is
recorded.
"""

import json
import sys

import inputs
import run


def main():
    digests = {}
    for w in inputs.WORKLOADS:
        res = run.run_worker(w, seed=0)
        if res["failures"]:
            print(f"pin.py: {w} failed: {res['failures'][:5]}",
                  file=sys.stderr)
            return 1
        digests.update(res["digests"])
        spec = inputs.workload(w, 0)
        _, digest = run.cold_cli(run.cold_input(spec))
        digests[f"cold:{spec['cold']}"] = digest
    run.PINS.write_text(json.dumps({"digests": digests}, indent=1,
                                   sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
