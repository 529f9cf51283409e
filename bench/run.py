"""Benchmark of toricface: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload fixture-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Each pass of a workload runs in a fresh interpreter (bench/worker.py).
Untraced, at least three passes run, and more while another one fits in
--seconds; two cold command line runs follow each pass.  Times are CPU
times divided by the machine's speed as a fixed reference measures it
right then (reference.py), and every timed item is reported at its median
over the passes.  With --trace 1 pairs of a
traced and an untraced pass run, at least one: the per-layer metrics come
from the traced passes, the untraced ones give the tracing overhead, and
both must give identical answers.

Every line but the last is for people: the metrics by name with units,
sample counts, and the commit, Python version, nproc and seed.  The last
line is one JSON object with the keys correct, attempted, failed and
metrics.  A full record is written to bench/out/.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calltrace  # noqa: E402
import inputs  # noqa: E402

ROOT = inputs.ROOT
OUT = BENCH / "out"
PINS = BENCH / "pins.json"
MIN_PASSES = 3
MIN_PAIRS = 1
COLD_PER_PASS = 2
CHILD_TIMEOUT_S = 170
PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(inputs.SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, spans=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"worker printed no result: {proc.stdout[-500:]}")


def children_cpu_s():
    """CPU time, user and system, of every child waited for so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def cold_cli(path):
    """One cold `toricface validate` in a new interpreter: (ms, digest).

    The run goes through cold.py, which samples the machine's speed
    alongside (see reference.py).  The time is the child's CPU time, less
    the reference work, at nominal speed.
    """
    cmd = [sys.executable, str(BENCH / "cold.py"), "validate", str(path)]
    t0 = children_cpu_s()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed("cold command line run timed out")
    cpu_s = children_cpu_s() - t0
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        raise ChildFailed(f"cold validate exited {proc.returncode}: "
                          f"{stderr[-500:]}")
    try:
        speed = json.loads(stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"cold run printed no speed: {stderr[-500:]}")
    ms = (cpu_s - speed["reference_s"]) / speed["slowness"] * 1e3
    return ms, hashlib.sha256(proc.stdout).hexdigest()


def cold_input(spec):
    """Write the document of the cold runs to a file and return its path."""
    path = OUT / "inputs" / f"{spec['cold']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(spec["documents"][spec["cold"]])
    return path


def percentile(xs, q):
    """Linear interpolation between the closest ranks."""
    xs = sorted(xs)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def load_pins():
    return json.loads(PINS.read_text())["digests"]


class Run:
    """Counts and samples gathered over all interpreters of one run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.spec = inputs.workload(workload, seed)
        self.pins = load_pins()
        self.attempted = 0
        self.failures = []
        self.passes = []
        self.traced = []
        self.cold_ms = []

    def check(self, result):
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        for key, value in sorted(result["digests"].items()):
            pinned = self.pins.get(key)
            if pinned != value:
                what = "unpinned" if pinned is None else "changed"
                self.failures.append(f"{what} answer {key}")

    def cold(self):
        path = cold_input(self.spec)
        for _ in range(COLD_PER_PASS):
            self.attempted += 1
            ms, digest = cold_cli(path)
            self.cold_ms.append(ms)
            key = f"cold:{self.spec['cold']}"
            if self.pins.get(key) != digest:
                self.failures.append(f"changed answer {key}")

    def untraced_pass(self, with_cold):
        res = run_worker(self.workload, self.seed)
        self.check(res)
        self.passes.append(res)
        if with_cold:
            self.cold()
        return res

    def traced_pass(self):
        spans = OUT / "spans" / (f"{self.workload}-seed{self.seed}"
                                 f"-pass{len(self.traced)}.tsv.gz")
        spans.parent.mkdir(parents=True, exist_ok=True)
        res = run_worker(self.workload, self.seed, spans=spans)
        self.check(res)
        self.traced.append(res)
        return res


def measure(workload, seed, seconds, trace):
    run = Run(workload, seed)
    start = time.perf_counter()

    def fits(durations):
        left = seconds - (time.perf_counter() - start)
        return bool(durations) and left >= statistics.median(durations)

    durations = []
    if trace:
        for old in (OUT / "spans").glob(f"{workload}-seed{seed}-*.tsv.gz"):
            old.unlink()
        # pairs alternate which side runs first, so a slow spell does not
        # always land on the same side of the overhead
        while len(run.traced) < MIN_PAIRS or fits(durations):
            t0 = time.perf_counter()
            if len(run.traced) % 2:
                plain = run.untraced_pass(with_cold=False)
                traced = run.traced_pass()
            else:
                traced = run.traced_pass()
                plain = run.untraced_pass(with_cold=False)
            if traced["digests"] != plain["digests"]:
                run.failures.append("traced and untraced answers differ")
            durations.append(time.perf_counter() - t0)
    else:
        while len(run.passes) < MIN_PASSES or fits(durations):
            t0 = time.perf_counter()
            run.untraced_pass(with_cold=True)
            durations.append(time.perf_counter() - t0)
    run.elapsed_s = time.perf_counter() - start
    return run


def per_item(passes, phase):
    """Each item's median time over the passes; items failed in all are
    left out."""
    columns = [p["units"].get(phase, []) for p in passes]
    out = []
    for times in zip(*columns):
        ok = [t for t in times if t is not None]
        if ok:
            out.append(statistics.median(ok))
    if not out:
        raise ChildFailed(f"no {phase} item succeeded in any pass")
    return out


def end_to_end(run):
    """name -> (value, unit, note) for every end-to-end metric."""
    passes = run.passes
    n = len(passes)
    out = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s",
                    f"median of {n} set-ups"),
        "timed_s": (statistics.median(p["timed_s"] for p in passes), "s",
                    f"median of {n} passes"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB", f"median of {n} passes"),
        "ok_ratio": (1.0 - len(run.failures) / run.attempted, "ratio",
                     f"{run.attempted - len(run.failures)} of "
                     f"{run.attempted} operations correct"),
    }
    for kind in ("formula", "oracle"):
        xs = [t * 1e3 for t in per_item(passes, kind)]
        for label, q in PERCENTILES:
            beyond = int(len(xs) * (1 - q))
            note = f"{len(xs)} degrees, {beyond} beyond, median of {n} passes"
            if beyond < 10:
                note += " (thin tail)"
            out[f"{kind}_{label}_ms"] = (percentile(xs, q), "ms", note)
    for phase in ("report", "depth", "presentation", "commands"):
        items = per_item(passes, phase)
        out[f"{phase}_s"] = (sum(items), "s",
                             f"{len(items)} items, each the median of {n} "
                             "passes")
    out["cli_cold_ms"] = (statistics.median(run.cold_ms), "ms",
                          f"median of {len(run.cold_ms)} cold runs")
    return out


def per_layer(run):
    traced = run.traced
    out = {}
    for name in calltrace.target_names():
        out[f"{name}.calls"] = (statistics.median(
            t["trace"][name]["calls"] for t in traced), "count",
            f"median of {len(traced)} traced passes")
        out[f"{name}.self_s"] = (statistics.median(
            t["trace"][name]["self_s"] for t in traced), "s",
            f"median of {len(traced)} traced passes")
    pieces = calltrace.NONZERO
    out[f"{pieces}.nonzero_ratio"] = (statistics.median(
        t["pieces_nonzero"] / max(t["trace"][pieces]["calls"], 1)
        for t in traced),
        "ratio", "nonzero pieces / pieces tested")
    traced_s = statistics.median(t["timed_s"] for t in traced)
    plain_s = statistics.median(p["timed_s"] for p in run.passes)
    out["trace.overhead_s"] = (
        traced_s - plain_s, "s",
        f"median traced timed_s {traced_s:.3f} - median untraced "
        f"{plain_s:.3f}, {len(traced)} pairs")
    return out


def metadata(run, trace):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((inputs.SRC / "toricface").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            src.update(f.relative_to(inputs.SRC).as_posix().encode())
            src.update(f.read_bytes())
    return {
        "workload": run.workload, "seed": run.seed, "trace": trace,
        "commit": commit, "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(run.passes), "traced_passes": len(run.traced),
        "cold_runs": len(run.cold_ms),
        "slowness": [round(p["slowness"], 3) for p in run.passes],
        "elapsed_s": run.elapsed_s,
    }


def report(run, trace, declared):
    """Print the readable block and return the result object."""
    metrics = per_layer(run) if trace else end_to_end(run)
    meta = metadata(run, trace)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit, note) in metrics.items():
        print(f"{run.workload:17s} {name:44s} {value:14.6f} {unit:6s} {note}")
    for f in run.failures[:20]:
        print(f"FAILED {f}")
    missing = [n for n in declared if n not in metrics]
    if missing:
        raise ChildFailed(f"metrics not measured: {missing}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in declared},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{run.workload}-seed{run.seed}-trace{trace}.json"
    passes = [{k: p[k] for k in ("setup_s", "timed_s", "cpu_s", "slowness")}
              for p in run.passes]
    record.write_text(json.dumps({"meta": meta, "result": result,
                                  "passes": passes,
                                  "failures": run.failures}, indent=1) + "\n")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (inputs.SRC / "toricface" / "__init__.py").is_file():
        print(f"run.py: no program sources at {inputs.SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = [m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]]
    if not compileall.compile_dir(str(inputs.SRC), quiet=1):
        print("run.py: the program sources do not compile", file=sys.stderr)
        return 2

    workloads = inputs.WORKLOADS if args.workload == "all" else (
        args.workload,)
    results = {}
    for w in workloads:
        try:
            run = measure(w, args.seed, seconds, args.trace)
            results[w] = report(run, args.trace, declared)
        except ChildFailed as e:
            print(f"run.py: {w}: {e}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
