"""One cold command line run of toricface, with reference samples alongside.

    python3 bench/cold.py validate FILE

Runs `python -m toricface.cli validate FILE` in this fresh interpreter,
passing its output and exit code through, while a reference.Sampler
measures the machine's speed.  The last line on standard error is a JSON
object: the CPU time spent in reference work (warm-up included), to be
taken off the process's CPU time, and the slowness to divide the rest by.
"""

import json
import runpy
import sys
import time

import reference


def main():
    sampler = reference.Sampler()
    t0 = time.thread_time()
    sampler.start()
    warmup_s = time.thread_time() - t0
    w0 = time.perf_counter()
    sys.argv = ["toricface"] + sys.argv[1:]
    code = 0
    try:
        runpy.run_module("toricface.cli", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
    w1 = time.perf_counter()
    sys.stdout.flush()
    time.sleep(reference.PERIOD_S * reference.MIN_SAMPLES)
    sampler.stop()
    print(json.dumps({"reference_s": warmup_s + sum(sampler.cpus),
                      "slowness": sampler.slowness(w0, w1)}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
