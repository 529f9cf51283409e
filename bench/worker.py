"""One pass of a benchmark workload, run in a fresh interpreter.

A pass sets up every input of the workload (import, parse, build), then
runs the timed phases in a fixed order and prints one JSON object with
the timings, the operation counts, the failures it found, and a digest of
every answer.  The digests are compared with the pinned ones by run.py.

Every item is timed on the CPU clock of the pass's one thread
(CLOCK_THREAD_CPUTIME_ID), which leaves out the time it waits for a CPU
(other processes, or the hypervisor running other guests).  The program
is single-threaded and CPU-bound, so on an idle machine that is its wall
time.  The CPU itself runs faster or slower as other guests load the
host; reference.py measures that alongside and each time is divided by
it, so times are seconds at a fixed nominal speed.

A fresh interpreter per pass matters: the program keeps module-level
caches (such as the incidence-sign memo in `cohomology`), and a second
pass in the same process would run warm.

    python3 bench/worker.py --workload fixture-sweep --seed 1 [--spans PATH]

With --spans the pass is traced and its spans are written to PATH.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time

import inputs
import reference

clock = time.thread_time

sys.path.insert(0, str(inputs.SRC))


def sha(obj):
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(obj.encode("utf-8")).hexdigest()


def _table(t):
    return [t.entries, t.corrections]


def _report_canon(rep):
    out = []
    for e in rep.entries:
        sc = e.star_class
        out.append([sc.carrier.key if sc.carrier else None, sc.coset_rep,
                    sc.star.keys if sc.star else None,
                    sc.class_count_within_carrier, _table(e.table), e.note])
    return [rep.characteristic, rep.fan_dim, out]


def _depth_canon(r):
    return [r.depth, r.is_CM, r.m_k, r.skeleton_CM_flags]


def _presentation_canon(p):
    return [p.variables, p.monomial_gens, p.binomial_gens, p.degree_bound]


class Pass:
    """Counts, failures, digests and per-unit times of one pass.

    Every item is timed on the thread's CPU clock with the wall clock
    around it, and its time is normalized by the reference samples taken
    in and around it (reference.Sampler).

    units() gives, per phase, one normalized time in seconds per item of
    that phase's input list, None where the item failed or did not run,
    so run.py can take each item's median time over passes.
    """

    def __init__(self, sampler):
        self.sampler = sampler
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self._items = {}   # phase -> (t0, t1, w0, w1) per item, or None

    def op(self):
        """Count one operation and tag the spans it makes."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.query_id = self.attempted

    def fail(self, what, detail):
        self.failures.append(f"{what}: {detail}")

    def skip(self, phase):
        self._items.setdefault(phase, []).append(None)

    def timed(self, phase, what, fn, *args):
        """Run fn(*args) as one operation; its time goes to units[phase]."""
        self.op()
        items = self._items.setdefault(phase, [])
        w0 = time.perf_counter()
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as e:  # every failure is counted, none stops the run
            items.append(None)
            self.fail(what, repr(e))
            return None
        t1 = clock()
        items.append((t0, t1, w0, time.perf_counter()))
        return out

    def units(self):
        norm = self.sampler.normalized
        return {phase: [None if x is None else norm(*x) for x in items]
                for phase, items in self._items.items()}


def run_queries(p, tf, complexes, spec):
    answers = {}
    symmetric = set(spec["symmetric"])
    for doc, a, with_oracle in spec["queries"]:
        mcc = complexes[doc]
        f = p.timed("formula", f"formula {doc} {a}",
                    tf.cohomology.local_cohomology_degree, mcc, a, "all")
        if with_oracle:
            o = p.timed("oracle", f"oracle {doc} {a}",
                        tf.cech.cech_degree, mcc, a, "all")
        else:
            p.skip("oracle")
            o = f
        if f is None or o is None:
            continue
        answer = _table(f)
        if _table(o) != answer:
            p.fail(f"formula != oracle {doc} {a}", f"{answer} vs {_table(o)}")
        key = inputs.symmetric_key(a) if doc in symmetric else a
        seen = answers.setdefault(doc, {}).setdefault(key, answer)
        if seen != answer:
            p.fail(f"symmetric degrees disagree {doc} {a}",
                   f"{answer} vs {seen}")
    for doc, table in answers.items():
        p.digests[f"answers:{doc}"] = sha(sorted(table.items()))


def _report(tf, mcc):
    return mcc, tf.cohomology.cohomology_report(mcc, "all")


def _seminormalized_report(tf, mcc):
    sn = tf.moncomplex.seminormalize_complex(mcc)
    return sn, tf.cohomology.cohomology_report(sn, "all")


def run_reports(p, tf, complexes, spec):
    """Reports, then depths; a seminormalization is timed with its report."""
    for doc, variant in spec["report"]:
        label = doc if variant is None else f"{doc}:{variant}"
        fn = _seminormalized_report if variant == "seminormalized" else _report
        out = p.timed("report", f"report {label}", fn, tf, complexes[doc])
        if out is not None:
            complexes[label], rep = out
            p.digests[f"report:{label}"] = sha(_report_canon(rep))
    for key in spec["depth"]:
        if key not in complexes:
            p.skip("depth")
            p.fail(f"depth {key}", "no complex")
            continue
        r = p.timed("depth", f"depth {key}", tf.cohomology.depth,
                    complexes[key], "all")
        if r is not None:
            p.digests[f"depth:{key}"] = sha(_depth_canon(r))


def run_presentations(p, tf, complexes, spec):
    for doc, bound in spec["presentation"]:
        pres = p.timed("presentation", f"presentation {doc}",
                       tf.moncomplex.presentation, complexes[doc], bound)
        if pres is not None:
            p.digests[f"presentation:{doc}:{bound}"] = sha(
                _presentation_canon(pres))


def command_id(doc, command, options):
    return f"{doc}:{command}:{json.dumps(dict(options), sort_keys=True)}"


def run_commands(p, tf, parsed, spec):
    """Every command through run_command + render_report, with the gate.

    Golden invocations must reproduce tests/golden byte for byte; every
    other outcome, a refusal included, is digested for the pins.
    """
    def command(doc, name, options):
        try:
            report = tf.cli.run_command(parsed[doc], name, dict(options))
            text = tf.cli.render_report(report)
            return text, f"{report['status']}:{sha(text)}"
        except tf.cli.InputError as e:
            return None, f"refused:{sha(str(e))}"

    for doc, name, options in spec["commands"]:
        ident = command_id(doc, name, options)
        out = p.timed("commands", f"command {ident}", command, doc, name,
                      options)
        if out is None:
            continue
        text, outcome = out
        golden = inputs.GOLDEN.get((doc, name, options))
        if golden is None:
            p.digests[f"command:{ident}"] = outcome
        elif text != (inputs.GOLDEN_DIR / f"{golden}.json").read_text():
            p.fail(f"golden {golden}", "report differs from tests/golden")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    spec = inputs.workload(args.workload, args.seed)

    sampler = reference.Sampler()
    p = Pass(sampler)
    sampler.start()
    w0 = time.perf_counter()
    t0 = clock()
    import toricface.cech
    import toricface.cli
    import toricface.cohomology
    import toricface.moncomplex
    tf = toricface
    if args.spans:
        import calltrace
        p.tracer = calltrace.Tracer()
        p.tracer.install()
    parsed, complexes = {}, {}
    for doc, text in spec["documents"].items():
        p.op()
        try:
            parsed[doc] = tf.cli.parse_input(text)
            complexes[doc], _ = tf.cli.build_from_document(parsed[doc])
        except Exception as e:
            p.fail(f"setup {doc}", repr(e))
    setup = (t0, clock(), w0, time.perf_counter())

    if not p.failures:
        for phase in (run_queries, run_reports, run_presentations):
            # a collection left due by the seeded query order would
            # otherwise land in whichever later phase trips it
            gc.collect()
            phase(p, tf, complexes, spec)
        gc.collect()
        run_commands(p, tf, parsed, spec)
    time.sleep(reference.PERIOD_S * reference.MIN_SAMPLES)
    sampler.stop()
    units = p.units()
    tracer = p.tracer
    out = {
        "setup_s": sampler.normalized(*setup),
        "timed_s": sum(t for ts in units.values() for t in ts
                       if t is not None),
        "units": units,
        "cpu_s": sum(x[1] - x[0] for xs in p._items.values() for x in xs
                     if x is not None),
        "slowness": statistics.median(sampler.cpus) / reference.NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": p.attempted,
        "failures": p.failures,
        "digests": p.digests,
    }
    if tracer is not None:
        out["trace"] = tracer.stats()
        out["pieces_nonzero"] = tracer.pieces_nonzero
        out["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
