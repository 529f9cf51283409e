"""The benchmark's call tracer wraps functions by name; each name must exist.

bench/calltrace.py is only read here, not imported, so the check needs
nothing from the benchmark beyond its TARGETS table.
"""

import ast
import importlib
from pathlib import Path

CALLTRACE = Path(__file__).resolve().parent.parent / "bench" / "calltrace.py"


def _targets():
    tree = ast.parse(CALLTRACE.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/calltrace.py defines no TARGETS")


def test_every_traced_name_resolves_in_the_package():
    targets = _targets()
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"toricface.{module}")
        for name in names:
            if "." in name:
                # a method is wrapped in its class's own namespace
                cls_name, meth = name.split(".")
                found = vars(getattr(mod, cls_name, object)).get(meth)
            else:
                found = getattr(mod, name, None)
            assert callable(found), f"{module}.{name}"


def test_run_command_builds_through_the_traced_name(monkeypatch):
    """The tracer replaces cli.build_from_document by name, so its call
    count counts builds only if run_command reaches the builder through
    the module global; a parsed document then builds once."""
    import toricface.cli as cli

    assert "build_from_document" in _targets()["cli"]
    calls = []
    orig = cli.build_from_document

    def traced(doc):
        calls.append(doc)
        return orig(doc)

    monkeypatch.setattr(cli, "build_from_document", traced)
    doc = cli.parse_input(
        (Path(cli.__file__).parent / "fixtures" / "fix-c.json").read_text())
    cli.run_command(doc, "validate", {})
    cli.run_command(doc, "fpure", {})
    assert calls == [doc]


def test_cached_builders_are_reached_through_the_traced_names(monkeypatch):
    """The star tables and star classes are cached on the fan and the
    complex, but built through the module globals the tracer replaces, so
    the traced call counts count real builds: one of each per star and
    complex, none on a repeated report."""
    import toricface.cohomology as cohomology
    from conftest import fix_c

    names = ("table_from_cochain", "star_classes")
    assert set(names) <= set(_targets()["cohomology"])
    calls = {name: 0 for name in names}
    for name in names:
        orig = getattr(cohomology, name)

        def traced(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(cohomology, name, traced)
    mcc = fix_c()
    report = cohomology.cohomology_report(mcc, "all")
    stars = {e.star_class.star.keys for e in report.entries
             if e.star_class.star is not None}
    assert calls == {"table_from_cochain": len(stars), "star_classes": 1}
    cohomology.cohomology_report(mcc, "all")
    cohomology.depth(mcc, "all")
    assert calls == {"table_from_cochain": len(stars), "star_classes": 1}


def test_remainders_are_built_through_the_traced_name(monkeypatch):
    """The tracer replaces moncomplex.restrict in every module that
    imported it, so its call count counts the per-degree formula's
    remainder builds only if complex_avoiding reaches restrict through
    cohomology's module global; a star seen again builds none."""
    import toricface.cohomology as cohomology
    from conftest import fix_b

    assert "restrict" in _targets()["moncomplex"]
    calls = []
    orig = cohomology.restrict

    def traced(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(cohomology, "restrict", traced)
    mcc = fix_b()
    sub = cohomology.complex_avoiding(mcc, (0, 1))
    assert len(calls) == 1 and calls[0][1] is sub.fan
    assert cohomology.complex_avoiding(mcc, (0, 1)) is sub
    trace = cohomology.local_cohomology_trace(mcc, (0, -1), 0)
    assert trace.steps[0].remaining == tuple(c.key for c in sub.fan.cones)
    assert len(calls) == 1
