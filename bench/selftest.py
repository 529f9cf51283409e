"""Self-test of the benchmark.

    python3 bench/selftest.py

For every workload, one short untraced and one short traced run must
exit 0 with `correct: true` and print every metric BENCHMARK.json
declares, each with its declared unit.  A traced run is only correct
when its traced and untraced passes gave identical answers, so this also
checks that tracing changes no answer.  Last, the benchmark must fail,
without printing a result, in a directory that holds only BENCHMARK.json
and bench/.
"""

import json
import shutil
import subprocess
import sys

import inputs

ROOT = inputs.ROOT
BENCH = ROOT / "bench"


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_workload(declared, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, \
        proc.stdout[-3000:]
    assert result["attempted"] >= 1
    units = {n: m["unit"] for n, m in result["metrics"].items()}
    assert units == declared, (set(units) ^ set(declared))
    for name, unit in declared.items():
        readable = [ln for ln in proc.stdout.splitlines()
                    if ln.split()[1:2] == [name]]
        assert readable and readable[0].split()[3] == unit, name


def check_bare_directory():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, "fixture-sweep", 0)
        assert proc.returncode != 0
        lines = proc.stdout.strip().splitlines()
        assert not lines or not lines[-1].startswith("{"), lines[-1]
    finally:
        shutil.rmtree(bare)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for w in inputs.WORKLOADS:
            check_workload(declared, w, trace)
            print(f"ok  {w} --trace {trace}: {len(declared)} metrics")
    check_bare_directory()
    print("ok  a directory without the program fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
