"""Seeded inputs for the benchmark workloads.

Everything the program is given comes from here as JSON documents in the
CLI's input format; the program never sees the seed.  The seed decides
the order of the per-degree queries on the sweep and the ladder and, on
the cusp, which member of each symmetry class of degrees is queried, so
every seed asks the same amount of work of the same kind.
"""

import itertools
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "toricface" / "fixtures"
GOLDEN_DIR = ROOT / "tests" / "golden"
FIXTURES = ("fix-a", "fix-b", "fix-c", "stanley-r1", "octant-boundary")
WORKLOADS = ("fixture-sweep", "crosspoly-ladder", "cusp-oracle")

# The golden reports of tests/golden, reproduced byte for byte.
GOLDEN = {
    ("fix-b", "cohomology", (("char", 0), ("degree", (0, -1)))):
        "fix-b-cohomology-degree",
    ("fix-c", "fpure", ()): "fix-c-fpure",
    ("fix-c", "depth", (("char", 2),)): "fix-c-depth-char2",
    ("fix-a", "presentation", ()): "fix-a-presentation",
    ("fix-c", "check", ()): "fix-c-check",
    ("stanley-r1", "cohomology", (("report", True),)):
        "stanley-r1-cohomology-report",
    ("octant-boundary", "validate", ()): "octant-validate",
    ("fix-b", "oracle", (("degree", (0, -1)),)): "fix-b-oracle-degree",
}


def box(dim, radius):
    return list(itertools.product(range(-radius, radius + 1), repeat=dim))


def crosspoly_document(d, multiples=None):
    """The complete fan of the 2^d coordinate orthants as a document.

    Without multiples every cone carries its Stanley monoid; with them,
    each maximal cone's monoid is generated by k*r for every ray r and
    every k in multiples, so (2, 3) puts the cusp <2, 3> on every ray.
    """
    rays = {}
    for i in range(d):
        rays[f"p{i}"] = [1 if j == i else 0 for j in range(d)]
        rays[f"m{i}"] = [-1 if j == i else 0 for j in range(d)]
    cones = []
    for signs in itertools.product("pm", repeat=d):
        cones.append({"name": "".join(signs),
                      "generators": [f"{s}{i}" for i, s in enumerate(signs)]})
    if multiples is None:
        monoids = {"stanley": True}
    else:
        monoids = {c["name"]: [[k * x for x in rays[g]]
                               for g in c["generators"] for k in multiples]
                   for c in cones}
    return json.dumps({"dimension": d, "rays": rays, "cones": cones,
                       "monoids": monoids}, indent=2) + "\n"


def fixture_document(name):
    return (FIXTURE_DIR / f"{name}.json").read_text()


def symmetric_key(degree):
    """Class of a degree under the signed coordinate permutations.

    Cross-polytope complexes with the same monoid on every ray are
    invariant under these maps, so all degrees of one class have the
    same cohomology.
    """
    return tuple(sorted(abs(x) for x in degree))


def _commands(dim, presentation=()):
    neg = (-1,) * dim
    return [
        ("validate", ()), ("check", ()), ("normalize", ()),
        ("seminormalize", ()), ("presentation", presentation),
        ("cohomology", (("report", True),)),
        ("cohomology", (("degree", neg),)),
        ("depth", ()), ("fpure", ()),
        ("oracle", (("degree", neg),)),
        ("frobenius", (("degree", neg), ("p", 2))),
    ]


def _permutation_classes(rng, dim, radius):
    """One degree per class of the box under coordinate permutations.

    The seed picks which arrangement of each multiset of coordinates is
    asked.  Drawing one member from every class keeps the mix of cheap and
    expensive degrees the same for every seed, which a plain random sample
    of this size does not.
    """
    out = []
    span = range(-radius, radius + 1)
    for multiset in itertools.combinations_with_replacement(span, dim):
        arrangements = sorted(set(itertools.permutations(multiset)))
        out.append(rng.choice(arrangements))
    return out


def workload(name, seed):
    """Documents and per-phase inputs of one workload for one seed.

    Returns a dict with
      documents: name -> JSON text, every input the program receives;
      symmetric: names of documents whose degrees may be keyed by class;
      queries: (document, degree, also-run-oracle), in seeded order on
        the sweep and the ladder;
      report: (document, variant) pairs, variant None or "seminormalized"
        for the cone-wise seminormalization of the document's complex;
      depth: complexes for depth, by document or "<document>:<variant>";
      presentation: (document, degree bound) pairs;
      commands: (document, command, sorted option pairs);
      cold: document used for the cold command line runs.
    """
    rng = random.Random(seed)
    if name == "fixture-sweep":
        docs = {f: fixture_document(f) for f in FIXTURES}
        dims = {f: json.loads(docs[f])["dimension"] for f in FIXTURES}
        queries = [(f, a, True) for f in FIXTURES for a in box(dims[f], 4)]
        rng.shuffle(queries)
        commands = [(f, c, o) for f in FIXTURES for c, o in _commands(dims[f])]
        commands += [g for g in sorted(GOLDEN) if g not in commands]
        seminormal = [f for f in FIXTURES if f != "fix-b"]
        return {
            "documents": docs, "symmetric": (), "queries": queries,
            "report": [(f, None) for f in seminormal], "depth": seminormal,
            "presentation": [(f, 6) for f in FIXTURES],
            "commands": commands, "cold": "fix-a",
        }
    if name == "crosspoly-ladder":
        docs = {f"crosspoly-{d}": crosspoly_document(d) for d in (2, 3)}
        queries = ([("crosspoly-2", a, True) for a in box(2, 5)]
                   + [("crosspoly-3", a, False) for a in box(3, 5)])
        rng.shuffle(queries)
        return {
            "documents": docs, "symmetric": tuple(docs), "queries": queries,
            "report": [("crosspoly-2", None), ("crosspoly-3", None)],
            "depth": ["crosspoly-2", "crosspoly-3"],
            "presentation": [("crosspoly-3", 4)],
            "commands": [("crosspoly-2", c, o) for c, o in _commands(2)],
            "cold": "crosspoly-2",
        }
    if name == "cusp-oracle":
        docs = {f"cusp-{d}": crosspoly_document(d, (2, 3)) for d in (2, 3)}
        queries = ([("cusp-2", a, True) for a in box(2, 3)]
                   + [("cusp-3", a, True)
                      for a in _permutation_classes(rng, 3, 2)])
        # not shuffled: a degree's time depends on what the program has
        # memoized before it, and with only 84 degrees the seeded order
        # alone moved p90 and p99 by 10-20 % between seeds
        bound = (("bound", 4),)
        return {
            "documents": docs, "symmetric": tuple(docs), "queries": queries,
            "report": [("cusp-2", "seminormalized")],
            "depth": ["cusp-2:seminormalized"],
            "presentation": [("cusp-3", 2)],
            "commands": [("cusp-2", c, o) for c, o in _commands(2, bound)],
            "cold": "cusp-2",
        }
    raise ValueError(f"unknown workload {name!r}")
