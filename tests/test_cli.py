"""Input parsing, command dispatch, report canonicalization, exit codes.

Golden files freeze full report bytes for one representative invocation
per command family; their payload values are asserted independently in
the module test suites, so the goldens only pin formatting and envelope
stability.
"""

import importlib.resources
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import bench_inputs

import toricface.cli
from toricface.cli import (InputError, build_from_document, main,
                           parse_input, render_document, render_report,
                           run_command)

FIXDIR = importlib.resources.files("toricface") / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES = ("fix-a", "fix-b", "fix-c", "stanley-r1", "octant-boundary")

GOLDEN = {
    "fix-b-cohomology-degree": ("fix-b", "cohomology",
                                {"degree": (0, -1), "char": 0}),
    "fix-c-fpure": ("fix-c", "fpure", {}),
    "fix-c-depth-char2": ("fix-c", "depth", {"char": 2}),
    "fix-a-presentation": ("fix-a", "presentation", {}),
    "fix-c-check": ("fix-c", "check", {}),
    "stanley-r1-cohomology-report": ("stanley-r1", "cohomology",
                                     {"report": True}),
    "octant-validate": ("octant-boundary", "validate", {}),
    "fix-b-oracle-degree": ("fix-b", "oracle", {"degree": (0, -1)}),
}


def fixture_text(name):
    return (FIXDIR / f"{name}.json").read_text()


def fixture_path(name):
    return str(FIXDIR / f"{name}.json")


def golden_text(name):
    return (GOLDEN_DIR / f"{name}.json").read_text()


def cli_args(command, options):
    """The command line that asks for what run_command gets as options."""
    args = [command]
    if "degree" in options:
        args.append("--degree=" + ",".join(map(str, options["degree"])))
    if options.get("report"):
        args.append("--report")
    if "char" in options:
        args.append(f"--char={options['char']}")
    return args


def test_fixture_files_round_trip():
    for name in FIXTURES:
        text = fixture_text(name)
        doc = parse_input(text)
        assert render_document(doc) == text
        assert parse_input(render_document(doc)) == doc


def test_fixture_files_build():
    for name in FIXTURES:
        doc = parse_input(fixture_text(name))
        mcc, named = build_from_document(doc)
        assert mcc.ambient_dim == doc.dimension
        assert {k for _, k in named} == set(mcc.fan.maximal)
        if doc.monoids == "stanley":
            assert mcc.seminormal


def test_golden_reports_are_reproduced():
    for name, (fixture, command, options) in sorted(GOLDEN.items()):
        doc = parse_input(fixture_text(fixture))
        report = run_command(doc, command, options)
        assert render_report(report) == golden_text(name), name


def test_golden_reports_under_python_O():
    """Each golden invocation of the CLI, with asserts stripped by -O,
    prints the golden bytes: no result rests on an assert's side effects."""
    src = str(Path(toricface.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONOPTIMIZE", None)
    for name, (fixture, command, options) in sorted(GOLDEN.items()):
        run = subprocess.run(
            [sys.executable, "-O", "-m", "toricface.cli",
             *cli_args(command, options), fixture_path(fixture)],
            capture_output=True, env=env, check=False)
        assert run.returncode in (0, 2), (name, run.stderr)
        assert run.stdout == golden_text(name).encode(), name


def test_reports_are_deterministic():
    doc = parse_input(fixture_text("fix-c"))
    r1 = run_command(doc, "cohomology", {"report": True})
    r2 = run_command(doc, "cohomology", {"report": True})
    assert render_report(r1) == render_report(r2)


def test_input_hash_ignores_formatting():
    # reports hash the canonical rendering, so reformatting the same
    # document cannot change the output bytes
    text = fixture_text("fix-c")
    data = json.loads(text)
    reformatted = json.dumps(data, indent=7)
    r1 = run_command(parse_input(text), "fpure", {})
    r2 = run_command(parse_input(reformatted), "fpure", {})
    assert render_report(r1) == render_report(r2)


def test_main_end_to_end(capsys):
    code = main(["fpure", fixture_path("fix-c")])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == golden_text("fix-c-fpure")
    assert out.err == ""
    payload = json.loads(out.out)["payload"]
    assert payload["excluded_primes"] == [2]


def test_main_negative_leading_degree(capsys):
    # a degree list may start with a negative coordinate; the two-token
    # spelling must work, and the command echo inside the report must
    # re-run to byte-identical output
    code = main(["cohomology", fixture_path("fix-c"), "--degree", "-7,-1"])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)
    assert report["payload"]["table"]["entries"] == [[2, 1]]

    echoed = report["command"].split()
    code = main(echoed + [fixture_path("fix-c")])
    second = capsys.readouterr()
    assert code == 0
    assert second.out == out.out


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2')
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "dimension": 1, "rays": {"p": [1]}, "cones": [],
        "monoids": {"stanley": True}}))
    assert main(["validate", str(empty)]) == 1
    assert "cones" in capsys.readouterr().err

    assert main(["depth", fixture_path("fix-b")]) == 1
    assert "seminormal" in capsys.readouterr().err

    assert main(["cohomology", fixture_path("fix-c"),
                 "--degree", "0,-1", "--report"]) == 1
    assert "conflict" in capsys.readouterr().err

    assert main(["nosuch", fixture_path("fix-c")]) == 1
    capsys.readouterr()

    assert main(["cohomology", fixture_path("fix-c"),
                 "--degree", "x,y"]) == 1
    assert "malformed integer list" in capsys.readouterr().err

    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "dimension": 2, "rays": {"a": [1, 0], "b": [1, 17]},
        "cones": [{"name": "C", "generators": ["a", "b"]}],
        "monoids": {"stanley": True}}))
    assert main(["presentation", str(wide)]) == 1
    assert "limited to 16 generators" in capsys.readouterr().err


def test_main_internal_error_exit(monkeypatch, capsys):
    """Anything but bad input exits 3 with one line on stderr."""
    def failing(doc, command, options):
        raise AssertionError("certificate failed\nsecond line")

    monkeypatch.setattr(toricface.cli, "run_command", failing)
    assert main(["validate", fixture_path("fix-c")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("toricface: internal error: AssertionError: "
                   "certificate failed second line\n")


def test_main_bound_exhausted_exit(capsys):
    code = main(["oracle", fixture_path("fix-b"),
                 "--degree", "3,1", "--bound", "1"])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "bound-exhausted"
    assert report["payload"]["cap"] == 1

    code = main(["seminormalize", fixture_path("fix-b"), "--bound", "2"])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "bound-exhausted"
    assert report["payload"]["element"] == [3, 0]


def refuses_flag(capsys, fixture, argv, options):
    """main exits 1 naming the flag, and run_command raises InputError."""
    flag = next(a for a in argv if a in ("--bound", "--box"))
    assert main(argv[:1] + [fixture_path(fixture)] + argv[1:]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"toricface: {flag}: must be positive\n"
    with pytest.raises(InputError, match=f"{flag}: must be positive"):
        run_command(parse_input(fixture_text(fixture)), argv[0], options)


def test_check_refuses_bound_below_one(capsys):
    refuses_flag(capsys, "fix-c", ["check", "--bound", "-3"], {"bound": -3})
    refuses_flag(capsys, "fix-c", ["check", "--bound", "0"], {"bound": 0})


def test_seminormalize_refuses_bound_below_one(capsys):
    refuses_flag(capsys, "fix-b", ["seminormalize", "--bound", "-1"],
                 {"bound": -1})


def test_presentation_refuses_bound_below_one(capsys):
    refuses_flag(capsys, "fix-a", ["presentation", "--bound", "-2"],
                 {"bound": -2})
    refuses_flag(capsys, "fix-a", ["presentation", "--bound", "0"],
                 {"bound": 0})


def test_oracle_refuses_bound_or_box_below_one(capsys):
    refuses_flag(capsys, "fix-b", ["oracle", "--box", "0"], {"box": 0})
    refuses_flag(capsys, "fix-b", ["oracle", "--degree", "0,-1", "--bound",
                                   "0"], {"degree": (0, -1), "bound": 0})


def test_frobenius_refuses_bound_below_one(capsys):
    refuses_flag(capsys, "fix-c", ["frobenius", "--degree", "0,-1", "-p", "2",
                                   "--bound", "0"],
                 {"degree": (0, -1), "p": 2, "bound": 0})


def test_every_echo_reruns_to_the_same_report(capsys):
    """The command line a report echoes, given back to main, prints the
    report byte for byte, for every benchmark command on every fixture."""
    inputs = bench_inputs()
    for name in FIXTURES:
        doc = parse_input(fixture_text(name))
        runs = inputs._commands(doc.dimension)
        runs += inputs._commands(doc.dimension, (("bound", 4),))
        for command, options in dict.fromkeys(runs):
            text = outcome(doc, command, dict(options))
            if text.startswith("InputError"):
                continue  # a refused command prints no report to echo
            echoed = json.loads(text)["command"].split()
            code = main(echoed + [fixture_path(name)])
            out = capsys.readouterr()
            assert code in (0, 2), (name, echoed, out.err)
            assert out.out == text, (name, echoed)


def test_main_oracle_far_degree(capsys):
    """A degree far out on a ray asks monoid membership 1500 generators
    deep; the oracle answers it instead of failing internally."""
    code = main(["oracle", fixture_path("fix-a"), "--degree", "1500,1500,0"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    report = json.loads(out.out)
    assert report["status"] == "complete"
    assert report["payload"]["table"]["entries"] == []


def test_parse_diagnostics_name_the_field():
    good = json.loads(fixture_text("fix-c"))

    def expect(mutate, fragment):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(InputError) as exc:
            parse_input(json.dumps(data))
        assert fragment in str(exc.value), str(exc.value)

    expect(lambda d: d.update(dimension="two"), "dimension")
    expect(lambda d: d.update(dimension=0), "dimension")
    expect(lambda d: d["rays"].update(x=[1]), "rays.x")
    expect(lambda d: d["rays"].update(x=[1, 2.5]), "rays.x")
    expect(lambda d: d["rays"].update(x=[1, True]), "rays.x")
    expect(lambda d: d["cones"][0]["generators"].append("w"), "unknown ray")
    expect(lambda d: d["cones"].append(dict(d["cones"][0])), "duplicate")
    expect(lambda d: d["monoids"].pop("C"), "monoids")
    expect(lambda d: d["monoids"].update(stanley=True), "monoids")
    expect(lambda d: d.update(options={"bounds": {"nope": 3}}),
           "unknown bound")
    expect(lambda d: d.update(options={"bounds": {"oracle": 0}}),
           "positive")
    expect(lambda d: d.update(extra=1), "unknown keys")
    expect(lambda d: d["cones"][0].pop("generators"), "cones[0]")


def test_non_maximal_cone_rejected():
    data = json.loads(fixture_text("fix-c"))
    data["cones"].append({"name": "edge", "generators": ["y"]})
    data["monoids"]["edge"] = [[0, 2]]
    with pytest.raises(InputError) as exc:
        build_from_document(parse_input(json.dumps(data)))
    assert "maximal" in str(exc.value)


def test_degree_validation():
    doc = parse_input(fixture_text("fix-c"))
    with pytest.raises(InputError):
        run_command(doc, "cohomology", {"degree": (1, 2, 3)})
    with pytest.raises(InputError):
        run_command(doc, "cohomology", {})
    with pytest.raises(InputError):
        run_command(doc, "frobenius", {"degree": (0, -1)})
    with pytest.raises(InputError):
        run_command(doc, "nosuch", {})
    with pytest.raises(InputError):
        run_command(doc, "cohomology", {"degree": (0, -1), "char": 6})


def test_oracle_box_scan_lists_nonzero_degrees():
    doc = parse_input(fixture_text("stanley-r1"))
    report = run_command(doc, "oracle", {"box": 2})
    payload = report["payload"]
    assert report["bounds"]["box"] == 2
    found = {tuple(h["degree"]): h["table"]["entries"]
             for h in payload["nonzero"]}
    assert found == {(-2,): [[1, 1]], (-1,): [[1, 1]], (0,): [[1, 1]],
                     (1,): [[1, 1]], (2,): [[1, 1]]}


def test_stanley_and_explicit_monoids_agree():
    data = json.loads(fixture_text("stanley-r1"))
    data["monoids"] = {"P": [[1]], "M": [[-1]]}
    explicit, _ = build_from_document(parse_input(json.dumps(data)))
    stanley, _ = build_from_document(parse_input(fixture_text("stanley-r1")))
    assert explicit.monoids == stanley.monoids


def every_command(dim):
    """Each command once, with the options a degree query needs."""
    neg = (-1,) * dim
    return [("validate", {}), ("check", {}), ("normalize", {}),
            ("seminormalize", {}), ("presentation", {}),
            ("cohomology", {"report": True}), ("cohomology", {"degree": neg}),
            ("depth", {}), ("fpure", {}), ("oracle", {"degree": neg}),
            ("frobenius", {"degree": neg, "p": 2})]


def outcome(doc, command, options):
    """The rendered report, or the diagnostic of a refused command."""
    try:
        return render_report(run_command(doc, command, options))
    except InputError as e:
        return f"InputError: {e}"


def counting(monkeypatch, module, name, *also):
    """Wrap module.name (and the same name in `also`); returns the counter."""
    calls = []
    orig = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for m in (module, *also):
        monkeypatch.setattr(m, name, wrapped)
    return calls


# two plane cones overlapping in cone((1, 1), (0, 1)), a face of neither
OVERLAP = json.dumps({
    "dimension": 2,
    "rays": {"a": [1, 0], "b": [0, 1], "c": [1, 1], "e": [-1, 1]},
    "cones": [{"name": "X", "generators": ["a", "b"]},
              {"name": "Y", "generators": ["c", "e"]}],
    "monoids": {"stanley": True}})


def test_document_builds_its_complex_once(monkeypatch):
    builds = counting(monkeypatch, toricface.cli, "build_from_document")
    doc = parse_input(fixture_text("fix-a"))
    for command, options in every_command(doc.dimension):
        outcome(doc, command, options)
    assert len(builds) == 1


def test_refused_document_is_refused_on_every_command(monkeypatch):
    builds = counting(monkeypatch, toricface.cli, "build_from_document")
    doc = parse_input(OVERLAP)
    errors = []
    for _ in range(2):
        with pytest.raises(InputError) as exc:
            run_command(doc, "validate", {})
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert "do not meet in a common face" in errors[0]
    assert len(builds) == 2


def test_reused_document_gives_the_same_reports():
    """Commands in sequence on one document read its cached complex (star
    index, member and sign memos); each must print what a fresh parse
    prints."""
    for name in FIXTURES:
        shared = parse_input(fixture_text(name))
        runs = every_command(shared.dimension)
        runs += [(c, o) for f, c, o in GOLDEN.values() if f == name]
        for command, options in runs:
            fresh = parse_input(fixture_text(name))
            assert (outcome(shared, command, options)
                    == outcome(fresh, command, options)), (name, command)


def test_seminormalize_reads_the_built_result(monkeypatch):
    import toricface.monoid
    calls = counting(monkeypatch, toricface.monoid, "seminormalize",
                     toricface.cli)
    doc = parse_input(fixture_text("fix-a"))
    report = run_command(doc, "seminormalize", {})
    # one per maximal monoid, made by the build for its flags
    assert len(calls) == 3
    # an explicit bound is a different search, run as asked
    bounded = run_command(doc, "seminormalize", {"bound": 4})
    assert len(calls) == 6
    assert report["bounds"] == {"seminormalization": None}
    assert bounded["bounds"] == {"seminormalization": 4}


def refused_option(monkeypatch, command, options, message):
    """run_command raises InputError naming the option, before any build."""
    builds = counting(monkeypatch, toricface.cli, "build_from_document")
    doc = parse_input(fixture_text("fix-c"))
    with pytest.raises(InputError) as exc:
        run_command(doc, command, options)
    assert str(exc.value) == message
    assert builds == []


def test_run_command_refuses_flags_of_other_commands(monkeypatch):
    refused_option(monkeypatch, "depth", {"degree": (1, 1), "p": 5},
                   "depth does not take --degree, -p")
    refused_option(monkeypatch, "cohomology", {"char": 2, "box": 3},
                   "cohomology does not take --box")


def test_run_command_refuses_flags_on_a_command_without_any(monkeypatch):
    refused_option(monkeypatch, "validate", {"bound": 3},
                   "validate does not take --bound")


def test_run_command_refuses_unknown_options(monkeypatch):
    refused_option(monkeypatch, "oracle", {"degree": (0, 0), "seed": 1},
                   "oracle does not take 'seed'")
    refused_option(monkeypatch, "check", {"box": None, "Bound": 2},
                   "check does not take --box, 'Bound'")


def _mutated(fixture, mutate):
    data = json.loads(fixture_text(fixture))
    mutate(data)
    return json.dumps(data)


SQUARE_DOC = {
    "dimension": 3,
    "rays": {"a": [1, 1, 1], "b": [1, -1, 1], "c": [-1, 1, 1],
             "d": [-1, -1, 1]},
    "cones": [{"name": "S", "generators": ["a", "b", "c", "d"]},
              {"name": "D", "generators": ["a", "d"]}],
    "monoids": {"stanley": True},
}

REFUSED_DOCUMENTS = [
    # (document text, the diagnostic main prints)
    ("[1, 2]", "top level: expected an object"),
    (_mutated("fix-c", lambda d: d.pop("rays")),
     "top level: missing key 'rays'"),
    (_mutated("fix-c", lambda d: d.update(rays={})),
     "rays: expected a nonempty name-to-vector object"),
    (_mutated("fix-c", lambda d: d["cones"][1].update(generators=[])),
     "cones[1].generators: expected a nonempty list"),
    (_mutated("fix-c", lambda d: d.update(monoids=[])),
     "monoids: expected an object"),
    (_mutated("fix-c", lambda d: d.update(options={"bounds": {},
                                                    "cap": 1})),
     'options: only a "bounds" object is allowed'),
    (_mutated("fix-c", lambda d: d.update(options={"bounds": [3]})),
     "options.bounds: expected an object"),
    (_mutated("fix-c", lambda d: (d["rays"].update(w=[-1, 0]),
                                  d["cones"][0]["generators"].append("w"))),
     "cone C: cone is not pointed"),
    (_mutated("fix-c", lambda d: (
        d["cones"].append({"name": "C2", "generators": ["t", "x", "y"]}),
        d["monoids"].update(C2=d["monoids"]["C"]))),
     "cones: two cones have the same ray set"),
    # the diagonal's rays are rays of the square cone, but it is no face
    (json.dumps(SQUARE_DOC), "do not meet in a common face"),
    # build_complex refusals, a ComplexError and a ValueError
    (_mutated("fix-c", lambda d: d["monoids"].update(C=[[1, 0], [1, 1]])),
     "span cone ((1, 0), (1, 1)), expected ((0, 1), (1, 0))"),
    (_mutated("fix-c", lambda d: d["monoids"].update(Cp=[[0, 1], [-2, 2]])),
     "face generator (0, 1) is not generated by the restriction"),
    (_mutated("fix-c", lambda d: d["cones"][0].update(name=7)),
     "cones[0].name: expected a nonempty name string"),
]


@pytest.mark.parametrize("case", range(len(REFUSED_DOCUMENTS)))
def test_main_refuses_a_bad_document(case, tmp_path, capsys):
    text, message = REFUSED_DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("toricface: ") and message in out.err, out.err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "fix-b", "--degree", "0,-1", "--box", "2"],
     "--degree and --box conflict; pick one"),
    (["frobenius", "fix-c", "--degree", "0,-1", "-p", "4"], "4 is not a prime"),
    (["depth", "fix-c", "--char", "x"],
     "argument --char: expected 0, a prime, or 'all', got 'x'"),
    (["depth", "fix-c", "--char", "3317044064679887385961981"],
     "cannot decide whether 3317044064679887385961981 is prime: only "
     "numbers below 3317044064679887385961981 are tested"),
    (["frobenius", "fix-c", "--degree", "0,-1", "-p", str(10**30)],
     f"cannot decide whether {10**30} is prime: only "
     "numbers below 3317044064679887385961981 are tested"),
])
def test_main_refuses_bad_flags(argv, message, capsys):
    argv = [argv[0], fixture_path(argv[1]), *argv[2:]]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"toricface: {message}\n"


def test_main_takes_a_large_prime_characteristic(capsys):
    """A 19-digit prime is tested by Miller-Rabin, not trial division up
    to its square root, so each command answers at once."""
    p = "1000000000000000003"
    for argv in (["cohomology", "--degree", "0,-1", "--char", p],
                 ["frobenius", "--degree", "0,-1", "-p", p]):
        t0 = time.process_time()
        assert main([argv[0], fixture_path("fix-c"), *argv[1:]]) == 0
        assert time.process_time() - t0 < 1.0
        assert p in capsys.readouterr().out


def test_main_refuses_input_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"dimension": \xff}')
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("toricface: input is not UTF-8: ")


def test_document_bounds_apply_unless_a_flag_overrides(tmp_path, capsys):
    """A document's options.bounds sets the presentation degree, --bound
    overrides it, and the canonical text keeps it."""
    text = _mutated("fix-a", lambda d: d.update(
        options={"bounds": {"presentation": 3}}))
    doc = parse_input(text)
    assert doc.bounds == (("presentation", 3),)
    assert parse_input(render_document(doc)) == doc
    assert json.loads(render_document(doc))["options"] == {
        "bounds": {"presentation": 3}}
    path = tmp_path / "doc.json"
    path.write_text(render_document(doc))
    for flags, want in (([], 3), (["--bound", "2"], 2)):
        assert main(["presentation", str(path), *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"] == {"degree": want}
        assert report == run_command(doc, "presentation",
                                     {"bound": int(flags[1])} if flags else {})
