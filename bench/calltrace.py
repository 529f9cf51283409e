"""Call tracing from outside the program.

The tracer wraps the public functions listed in TARGETS.  A module-level
function is replaced in its own module and in every module that bound it
with `from .x import f`, since those names would otherwise call the
original; a method is replaced on its class.  Each call records a span
(name, start, end, parent span, query id) in flat in-memory arrays, and
per-name call counts and self time (the span's duration minus that of the
wrapped calls made inside it).  Spans are written once, when the pass ends.
"""

import functools
import gzip
import sys
from array import array
from time import perf_counter

PACKAGE = "toricface"

# module -> functions timed per layer; the per_layer metrics of
# BENCHMARK.json are "<module>.<function>.calls" and ".self_s" for each.
TARGETS = {
    "lattice": ("snf", "hnf", "solve_in_lattice", "intersect",
                "quotient_invariants", "LatticeBasis.contains"),
    "polyhedral": ("cone_build", "fan_build", "Cone.contains",
                   "relint_contains", "incidence_sign", "skeleton_fan"),
    "cohomology": ("star", "star_classes", "table_from_cochain",
                   "local_cohomology_degree", "cohomology_report", "depth"),
    "moncomplex": ("build_complex", "restrict", "presentation"),
    "monoid": ("monoid_member", "normalization", "seminormalize"),
    "cech": ("localization_piece", "cech_slice", "cech_degree",
             "frobenius_check"),
    "frobenius": ("excluded_primes",),
    "cli": ("parse_input", "build_from_document", "run_command",
            "render_report"),
}

# the share of localization pieces the oracle finds nonzero
NONZERO = "cech.localization_piece"


def target_names():
    return [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]


class Tracer:
    def __init__(self):
        self.names = target_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.pieces_nonzero = 0
        self.query_id = -1
        self._stack = []   # [span index, time spent in wrapped children]
        self._name = array("i")
        self._parent = array("i")
        self._query = array("i")
        self._start = array("d")
        self._end = array("d")

    def _wrap(self, fn, ix, count_nonzero):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self._name)
            self._name.append(ix)
            self._parent.append(stack[-1][0] if stack else -1)
            self._query.append(self.query_id)
            self._start.append(0.0)
            self._end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._start[span] = t0
                self._end[span] = t1
                self.calls[ix] += 1
                self.self_s[ix] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if count_nonzero and out.value:
                self.pieces_nonzero += 1
            return out

        return traced

    def install(self):
        """Wrap every target; the program's modules must be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for ix, name in enumerate(self.names):
            mod_name, attr = name.split(".", 1)
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], ix, False))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, ix, name == NONZERO)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)

    def stats(self):
        out = {}
        for ix, name in enumerate(self.names):
            out[name] = {"calls": self.calls[ix], "self_s": self.self_s[ix]}
        return out

    def write_spans(self, path):
        """Write all spans as gzip'd tab-separated text, one per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tquery\tstart_s\tend_s\n")
            for i in range(len(self._name)):
                fh.write(f"{i}\t{self._parent[i]}\t{self.names[self._name[i]]}"
                         f"\t{self._query[i]}\t{self._start[i]:.9f}"
                         f"\t{self._end[i]:.9f}\n")
        return len(self._name)
