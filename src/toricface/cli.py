"""Command line interface: JSON input documents, canonical JSON reports.

Input documents name their rays, list maximal cones by generator names,
and attach monoid generators per maximal cone (or request the monoids
spanned by the primitive ray points).  Every report is a single JSON
object with sorted keys, so identical inputs and options always produce
byte-identical output.
"""

import argparse
import hashlib
import json
import re
import sys
from functools import cached_property

from . import __version__
from .cech import (DEFAULT_STATE_CAP, BoundExhausted, cech_degree,
                   cech_slice, frobenius_check)
from .cohomology import (check_characteristic, cohomology_report, depth,
                         local_cohomology_trace, table_from_cochain)
from .frobenius import excluded_primes
from .lattice import vec
from .moncomplex import ComplexError, build_complex, presentation
from .monoid import (BoundTooSmallError, generated_points, monoid_member,
                     normalization, seminormalize)
from .polyhedral import cone_build, fan_build
from .record import record

class InputError(ValueError):
    """Invalid input document or option set; the message is the diagnostic."""


@record
class InputDocument:
    dimension: int
    rays: tuple     # (name, vector) pairs in input order
    cones: tuple    # (name, generator-name tuple) pairs in input order
    monoids: object  # "stanley" or (cone-name, vector tuple) pairs
    bounds: tuple   # (name, value) pairs, sorted

    @cached_property
    def built(self):
        """build_from_document(self), built and validated once per document;
        a document that fails to build raises again on every access."""
        return build_from_document(self)

    @cached_property
    def input_sha256(self) -> str:
        """SHA-256 of the document's canonical text."""
        return hashlib.sha256(render_document(self).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing and rendering

def _need_int(x, path):
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{path}: expected an integer, got {x!r}")
    return x


def _need_vector(x, d, path):
    if not isinstance(x, list) or len(x) != d:
        raise InputError(f"{path}: expected a vector of length {d}")
    return tuple(_need_int(t, f"{path}[{i}]") for i, t in enumerate(x))


def _need_positive(x, path):
    """The one rule for bounds, in documents and on the command line."""
    if _need_int(x, path) < 1:
        raise InputError(f"{path}: must be positive")
    return x


def _need_name(x, path):
    if not isinstance(x, str) or not x:
        raise InputError(f"{path}: expected a nonempty name string")
    return x


def parse_input(text: str) -> InputDocument:
    """Validated document, or a diagnostic naming the offending field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise InputError("top level: expected an object")
    unknown = set(data) - {"dimension", "rays", "cones", "monoids", "options"}
    if unknown:
        raise InputError(f"top level: unknown keys {sorted(unknown)}")
    for key in ("dimension", "rays", "cones", "monoids"):
        if key not in data:
            raise InputError(f"top level: missing key {key!r}")

    d = _need_int(data["dimension"], "dimension")
    if d < 1:
        raise InputError("dimension: must be at least 1")

    if not isinstance(data["rays"], dict) or not data["rays"]:
        raise InputError("rays: expected a nonempty name-to-vector object")
    rays = tuple((_need_name(n, "rays"), _need_vector(v, d, f"rays.{n}"))
                 for n, v in data["rays"].items())
    ray_names = {n for n, _ in rays}

    if not isinstance(data["cones"], list) or not data["cones"]:
        raise InputError("cones: expected a nonempty list")
    cones = []
    for i, item in enumerate(data["cones"]):
        path = f"cones[{i}]"
        if not isinstance(item, dict) or set(item) != {"name", "generators"}:
            raise InputError(f"{path}: expected {{name, generators}}")
        name = _need_name(item["name"], f"{path}.name")
        gens = item["generators"]
        if not isinstance(gens, list) or not gens:
            raise InputError(f"{path}.generators: expected a nonempty list")
        for g in gens:
            if _need_name(g, f"{path}.generators") not in ray_names:
                raise InputError(
                    f"{path}.generators: unknown ray name {g!r}")
        cones.append((name, tuple(gens)))
    names = [n for n, _ in cones]
    if len(set(names)) != len(names):
        raise InputError("cones: duplicate cone names")
    cones = tuple(cones)

    mon = data["monoids"]
    if not isinstance(mon, dict) or not mon:
        raise InputError("monoids: expected an object")
    if "stanley" in mon:
        if mon != {"stanley": True}:
            raise InputError(
                'monoids: "stanley" must be exactly {"stanley": true}')
        monoids = "stanley"
    else:
        if set(mon) != set(names):
            raise InputError(
                "monoids: keys must be exactly the cone names "
                f"{sorted(names)}, got {sorted(mon)}")
        monoids = tuple(
            (name, tuple(_need_vector(v, d, f"monoids.{name}[{i}]")
                         for i, v in enumerate(mon[name])))
            for name, _ in cones)

    bounds = ()
    if "options" in data:
        opts = data["options"]
        if not isinstance(opts, dict) or set(opts) - {"bounds"}:
            raise InputError('options: only a "bounds" object is allowed')
        b = opts.get("bounds", {})
        if not isinstance(b, dict):
            raise InputError("options.bounds: expected an object")
        allowed = {doc_key for _, _, bounds in _COMMANDS.values()
                   for _, _, doc_key, _ in bounds if doc_key}
        for k in b:
            if k not in allowed:
                raise InputError(f"options.bounds: unknown bound {k!r}")
            _need_positive(b[k], f"options.bounds.{k}")
        bounds = tuple(sorted(b.items()))

    return InputDocument(d, rays, cones, monoids, bounds)


def render_document(doc: InputDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    data = {
        "dimension": doc.dimension,
        "rays": {n: list(v) for n, v in doc.rays},
        "cones": [{"name": n, "generators": list(g)} for n, g in doc.cones],
    }
    if doc.monoids == "stanley":
        data["monoids"] = {"stanley": True}
    else:
        data["monoids"] = {n: [list(v) for v in vs] for n, vs in doc.monoids}
    if doc.bounds:
        data["options"] = {"bounds": dict(doc.bounds)}
    return json.dumps(data, indent=2) + "\n"


def build_from_document(doc: InputDocument):
    """The monoidal complex a document describes, with named maximal cones.

    Returns (complex, (name, cone-key) pairs in input order).  Each call
    builds a fresh complex; `InputDocument.built` keeps one per document.
    """
    ray_map = dict(doc.rays)
    built = []
    for name, gen_names in doc.cones:
        try:
            c = cone_build([ray_map[g] for g in gen_names], doc.dimension)
        except ValueError as e:
            raise InputError(f"cone {name}: {e}")
        built.append((name, c))
    keys = [c.key for _, c in built]
    if len(set(keys)) != len(keys):
        raise InputError("cones: two cones have the same ray set")
    try:
        fan = fan_build([c for _, c in built])
    except ValueError as e:
        raise InputError(str(e))
    for name, c in built:
        if c.key not in fan.maximal:
            raise InputError(
                f"cone {name} is contained in another cone; "
                "list maximal cones only")
    try:
        if doc.monoids == "stanley":
            mcc = build_complex(fan, stanley=True)
        else:
            by_name = dict(doc.monoids)
            gens = {c.key: [list(v) for v in by_name[name]]
                    for name, c in built}
            mcc = build_complex(fan, gens)
    except (ComplexError, ValueError) as e:
        raise InputError(str(e))
    return mcc, tuple((name, c.key) for name, c in built)


# ---------------------------------------------------------------------------
# payload rendering

def _key_json(key):
    return [list(r) for r in key]


def _table_json(t):
    return {
        "characteristic": t.characteristic,
        "entries": [[i, d] for i, d in t.entries],
        "corrections": [[p, [[i, d] for i, d in ent]]
                        for p, ent in t.corrections],
        "label": t.label,
    }


def _monomial_str(names, exponents):
    parts = []
    for n, e in zip(names, exponents):
        if e == 1:
            parts.append(n)
        elif e > 1:
            parts.append(f"{n}^{e}")
    return "*".join(parts)


def _variable_names(doc: InputDocument, variables):
    by_vector = {}
    for n, v in doc.rays:
        by_vector.setdefault(v, n)
    return tuple(by_vector.get(v, f"g{i + 1}")
                 for i, v in enumerate(variables))


# ---------------------------------------------------------------------------
# commands

def _opt(options, key, default=None):
    v = options.get(key)
    return default if v is None else v


def _need_degree(options, dimension):
    a = options.get("degree")
    if a is None:
        raise InputError("option --degree is required for this command")
    if len(a) != dimension:
        raise InputError(
            f"--degree: expected {dimension} coordinates, got {len(a)}")
    return vec(a)


def _char(options):
    ch = _opt(options, "char", "all")
    try:
        return check_characteristic(ch)
    except ValueError as e:
        raise InputError(str(e))


def _cmd_validate(doc, mcc, named, options, bounds):
    return {
        "dimension": doc.dimension,
        "fan_dim": mcc.fan.dim,
        "cones_total": len(mcc.fan.cones),
        "maximal": [{
            "name": name,
            "cone": _key_json(key),
            "monoid_generators": [list(g)
                                  for g in mcc.monoids[key].generators],
        } for name, key in named],
        "seminormal": mcc.seminormal,
    }


def _cmd_check(doc, mcc, named, options, bounds):
    out = []
    for name, key in named:
        M = mcc.monoids[key]
        flags = M.flags
        hb = normalization(M).elements
        pts = generated_points(hb, M.grading, bounds["gap_degree"],
                               doc.dimension)
        gaps = sorted(v for v in pts if monoid_member(M, v) is None)
        out.append({
            "name": name,
            "cone": _key_json(key),
            "seminormal": flags.seminormal,
            "normal": flags.normal,
            "witness": list(flags.witness) if flags.witness else None,
            "gaps": [list(v) for v in gaps],
        })
    return {"seminormal": mcc.seminormal, "cones": out,
            "gap_degree": bounds["gap_degree"]}


def _cmd_normalize(doc, mcc, named, options, bounds):
    out = []
    for name, key in named:
        M = mcc.monoids[key]
        hb = normalization(M).elements
        out.append({
            "name": name,
            "cone": _key_json(key),
            "hilbert_basis": [list(v) for v in hb],
            "is_normal": M.flags.normal,
        })
    return {"cones": out}


def _cmd_seminormalize(doc, mcc, named, options, bounds):
    out = []
    for name, key in named:
        M = mcc.monoids[key]
        bound = bounds["seminormalization"]
        # the default bound's result is already on the monoid from the build
        res = M._seminormalization if bound is None else seminormalize(M, bound)
        added = [g for g in res.generators if monoid_member(M, g) is None]
        out.append({
            "name": name,
            "cone": _key_json(key),
            "generators": [list(v) for v in res.generators],
            "added": [list(v) for v in added],
            "verified_degree": res.verified_bound,
        })
    return {"cones": out}


def _cmd_presentation(doc, mcc, named, options, bounds):
    pres = presentation(mcc, bounds["degree"])
    names = _variable_names(doc, pres.variables)
    name_of = {key: n for n, key in named}
    binomials = []
    for u, v, home in pres.binomial_gens:
        binomials.append({
            "lhs": list(u),
            "rhs": list(v),
            "cone": name_of.get(home, _key_json(home)),
            "binomial": f"{_monomial_str(names, u)} - {_monomial_str(names, v)}",
        })
    return {
        "degree_bound": pres.degree_bound,
        "variables": [{"name": n, "vector": list(v)}
                      for n, v in zip(names, pres.variables)],
        "monomial_generators": [{
            "exponents": list(e),
            "monomial": _monomial_str(names, e),
        } for e in pres.monomial_gens],
        "binomial_generators": binomials,
    }


def _cmd_cohomology(doc, mcc, named, options, bounds):
    ch = _char(options)
    if options.get("report") and options.get("degree") is not None:
        raise InputError("--degree and --report conflict; pick one")
    if options.get("report"):
        rep = cohomology_report(mcc, ch)
        classes = []
        for e in rep.entries:
            sc = e.star_class
            classes.append({
                "carrier": _key_json(sc.carrier.key) if sc.carrier else None,
                "representative": list(sc.coset_rep) if sc.coset_rep else None,
                "star": [_key_json(k) for k in sc.star.keys] if sc.star else None,
                "count_within_carrier": sc.class_count_within_carrier,
                "table": _table_json(e.table),
                "note": e.note,
            })
        return {"characteristic": rep.characteristic,
                "fan_dim": rep.fan_dim,
                "classes": classes}
    a = _need_degree(options, doc.dimension)
    trace = local_cohomology_trace(mcc, a, ch)
    payload = {
        "degree": list(a),
        "characteristic": trace.characteristic,
        "table": _table_json(trace.table),
        "steps": [{
            "star": [_key_json(k) for k in s.star_keys],
            "summand": _table_json(s.summand),
            "remaining": [_key_json(k) for k in s.remaining],
        } for s in trace.steps],
        "restricted": None,
    }
    if trace.oracle_tail is not None:
        remaining = trace.steps[-1].remaining if trace.steps else ()
        payload["restricted"] = {
            "cones": [_key_json(k) for k in remaining],
            "table": _table_json(trace.oracle_tail),
        }
    return payload


def _cmd_depth(doc, mcc, named, options, bounds):
    ch = _char(options)
    r = depth(mcc, ch)
    return {
        "characteristic": ch,
        "depth": r.depth,
        "cohen_macaulay": r.is_CM,
        "largest_cm_skeleton": r.m_k,
        "skeleton_cm": list(r.skeleton_CM_flags),
    }


def _cmd_fpure(doc, mcc, named, options, bounds):
    rep = excluded_primes(mcc)
    name_of = {key: n for n, key in named}
    return {
        "excluded_primes": sorted(rep.excluded_set),
        "details": [{
            "prime": e.prime,
            "witnesses": [{
                "cone": name_of.get(ck, _key_json(ck)),
                "face": _key_json(fk),
                "divisor": m,
            } for ck, fk, m in e.witnesses],
        } for e in rep.excluded],
    }


def _oracle_one(mcc, a, ch, cap):
    sl = cech_slice(mcc, a, cap)
    t = table_from_cochain(sl.sizes, sl.mats, ch)
    return {
        "degree": list(a),
        "table": _table_json(t),
        "levels": [{
            "dim": lt,
            "pieces": [{"cone": _key_json(c.key),
                        "witness": list(map(list, pr.witness))}
                       for c, pr in sl.pieces.items() if c.dim == lt],
        } for lt in sl.sizes],
    }


def _cmd_oracle(doc, mcc, named, options, bounds):
    ch = _char(options)
    cap = bounds["state_cap"]
    if options.get("box") is not None and options.get("degree") is not None:
        raise InputError("--degree and --box conflict; pick one")
    if options.get("box") is not None:
        radius = bounds["box"]
        hits = []
        span = range(-radius, radius + 1)
        degrees = [()]
        for _ in range(doc.dimension):
            degrees = [d + (x,) for d in degrees for x in span]
        for a in degrees:
            t = cech_degree(mcc, a, ch, cap)
            if t.total or t.corrections:
                hits.append({"degree": list(a), "table": _table_json(t)})
        return {"characteristic": ch, "box": radius, "nonzero": hits}
    a = _need_degree(options, doc.dimension)
    one = _oracle_one(mcc, a, ch, cap)
    one["characteristic"] = ch
    return one


def _cmd_frobenius(doc, mcc, named, options, bounds):
    p = options.get("p")
    if p is None:
        raise InputError("option -p is required for this command")
    a = _need_degree(options, doc.dimension)
    try:
        fc = frobenius_check(mcc, a, p, bounds["state_cap"])
    except ValueError as e:
        raise InputError(str(e))
    return {
        "degree": list(a),
        "prime": p,
        "steps": [{
            "i": s.i,
            "dim_source": s.dim_source,
            "dim_target": s.dim_target,
            "rank": s.rank,
            "injective": s.injective,
            "bijective": s.bijective,
        } for s in fc.steps],
    }


# each command: its handler, the flags it takes, and its bounds as
# (report key, flag, document key or None, default)
_COMMANDS = {
    "validate": (_cmd_validate, (), ()),
    "check": (_cmd_check, ("bound",), (("gap_degree", "bound", None, 6),)),
    "normalize": (_cmd_normalize, (), ()),
    "seminormalize": (_cmd_seminormalize, ("bound",), (
        ("seminormalization", "bound", "seminormalization", None),)),
    "presentation": (_cmd_presentation, ("bound",), (
        ("degree", "bound", "presentation", 6),)),
    "cohomology": (_cmd_cohomology, ("degree", "report", "char"), ()),
    "depth": (_cmd_depth, ("char",), ()),
    "fpure": (_cmd_fpure, (), ()),
    "oracle": (_cmd_oracle, ("degree", "char", "bound", "box"), (
        ("state_cap", "bound", "oracle", DEFAULT_STATE_CAP),
        ("box", "box", "box", 5))),
    "frobenius": (_cmd_frobenius, ("degree", "p", "char", "bound"), (
        ("state_cap", "bound", "oracle", DEFAULT_STATE_CAP),)),
}


def _effective_bounds(specs, doc, options):
    """Each bound from its flag, else from the document, else its default;
    a flag's value obeys the document's positivity rule."""
    docb = dict(doc.bounds)
    out = {}
    for key, flag, doc_key, default in specs:
        v = options.get(flag)
        if v is None:
            out[key] = docb.get(doc_key, default)
        else:
            out[key] = _need_positive(v, _FLAGS[flag][0])
    return out


def _echo(command, flags, options):
    """The command line of a report, flags in table order.  A flag with a
    default (--char) is echoed, default included, by the commands that take
    it; any other flag is echoed whenever it is given."""
    parts = [command]
    for key, (spelling, kw) in _FLAGS.items():
        default = kw.get("default")
        if default is not None and key not in flags:
            continue
        v = _opt(options, key, default)
        if kw.get("action") == "store_true":
            if v:
                parts.append(spelling)
        elif v is not None:
            text = ",".join(map(str, v)) if key == "degree" else v
            parts.append(f"{spelling} {text}")
    return " ".join(parts)


def run_command(doc: InputDocument, command: str, options=None) -> dict:
    """One report object; raises InputError for bad commands or options,
    an option the command does not take among them."""
    options = dict(options or {})
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    handler, flags, bound_specs = _COMMANDS[command]
    extra = [_FLAGS[k][0] for k in _FLAGS if k in options and k not in flags]
    extra += sorted(repr(k) for k in options if k not in _FLAGS)
    if extra:
        raise InputError(f"{command} does not take {', '.join(extra)}")
    bounds = _effective_bounds(bound_specs, doc, options)
    mcc, named = doc.built
    status = "complete"
    try:
        payload = handler(doc, mcc, named, options, bounds)
    except BoundExhausted as e:
        payload = {"error": str(e), "cone": _key_json(e.cone_key),
                   "degree": list(e.degree), "cap": e.cap}
        status = "bound-exhausted"
    except BoundTooSmallError as e:
        payload = {"error": "seminormalization bound too small to certify",
                   "element": list(e.element), "bound": e.bound}
        status = "bound-exhausted"
    except ComplexError as e:
        raise InputError(str(e))
    return {
        "command": _echo(command, flags, options),
        "input_sha256": doc.input_sha256,
        "version": __version__,
        "bounds": bounds,
        "payload": payload,
        "status": status,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _parse_degree(text):
    # argparse replaces ValueError from a type callable with a message
    # naming the callable; ArgumentTypeError keeps the diagnostic
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}")


def _parse_char(text):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 0, a prime, or 'all', got {text!r}")


# each flag: its spelling and argparse keywords, in the order reports echo them
_FLAGS = {
    "degree": ("--degree", {"type": _parse_degree}),
    "report": ("--report", {"action": "store_true"}),
    "p": ("-p", {"type": int, "required": True}),
    "char": ("--char", {"type": _parse_char, "default": "all"}),
    "bound": ("--bound", {"type": int}),
    "box": ("--box", {"type": int}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="toricface", allow_abbrev=False,
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("input", help="path to a JSON input document")
        for key, (spelling, kw) in _FLAGS.items():
            if key in flags:
                p.add_argument(spelling, **kw)
    return parser


_INT_LIST = re.compile(r"-?\d+(,-?\d+)*")


def _fuse_degree(argv):
    # argparse reads a leading '-' on "-7,-1" as an option token, so a
    # degree list with a negative first coordinate must travel in the
    # "--degree=-7,-1" form; fuse the two-token spelling into it.
    out, i = [], 0
    while i < len(argv):
        if (argv[i] == "--degree" and i + 1 < len(argv)
                and _INT_LIST.fullmatch(argv[i + 1])):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_fuse_degree(argv))
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise InputError(f"cannot read input: {e}")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InputError(f"input is not UTF-8: {e}")
        doc = parse_input(text)
        options = {k: getattr(args, k) for k in _COMMANDS[args.command][1]}
        report = run_command(doc, args.command, options)
    except InputError as e:
        print(f"toricface: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # a failed certificate or a bug, not the input's fault
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"toricface: internal error: {detail}", file=sys.stderr)
        return 3
    sys.stdout.write(render_report(report))
    return 0 if report["status"] == "complete" else 2


if __name__ == "__main__":
    sys.exit(main())
