import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ensynth
from ensynth import cli
from ensynth.cli import export_dot, main, run
from ensynth.reductions import (
    CubicMonotoneFormula, build_2grade2_essp, build_linear3_essp, serialize_cnf3)
from ensynth.regions import Region, enumerate_regions
from ensynth.synthesis import ElementaryNetSystem, synthesize
from ensynth.ts import TransitionSystem, serialize_ts
from ensynth.unions import join, serialize_union

from corpus import PHI1, PHI4, PHI6, master

MASTER_TS = serialize_ts(master())
ABAB_TS = serialize_ts(TransitionSystem.chain(["a", "b", "a", "b"]))
PHI6_CNF = "".join(
    f"clause {a} {b} {c}\n"
    for a, b, c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)]
)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "master.ts").write_text(MASTER_TS)
    (tmp_path / "abab.ts").write_text(ABAB_TS)
    (tmp_path / "phi6.cnf3").write_text(PHI6_CNF)
    (tmp_path / "broken.ts").write_text(".ts\nedge only three\n")
    return tmp_path


def test_validate_exit_codes(files, capsys):
    assert run(["validate", str(files / "master.ts")]) == 0
    assert "valid" in capsys.readouterr().out
    (files / "bad.ts").write_text(".ts\ninitial s0\nevent ghost\nedge s0 a s1\n")
    assert run(["validate", str(files / "bad.ts")]) == 1
    assert "reduced" in capsys.readouterr().out


def test_input_error_exit_code(files, capsys):
    assert run(["validate", str(files / "broken.ts")]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["classify", str(files / "missing.ts")]) == 2


def test_classify_output(files, capsys):
    assert run(["classify", str(files / "master.ts")]) == 0
    out = capsys.readouterr().out
    assert "manifoldness 3" in out and "linear yes" in out


def test_check_feasible_master(files, capsys):
    assert run(["check-feasible", str(files / "master.ts")]) == 0
    out = capsys.readouterr().out
    assert "holds" in out and "witnesses" in out


def test_check_ssp_counterexample(files, capsys):
    assert run(["check-ssp", str(files / "abab.ts")]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_check_feasible_reports_every_essp_counterexample(files, capsys):
    """Where SSP holds, check-feasible --exhaustive-counterexamples reports
    the failing ESSP queries that check-essp reports, and without the flag
    only the first."""
    (files / "chain.ts").write_text(
        serialize_ts(TransitionSystem.chain(["e1", "e0", "e1", "e2", "e0"])))
    outputs = {}
    for command in ("check-essp", "check-feasible"):
        for flags in ((), ("--exhaustive-counterexamples",)):
            assert run([*flags, command, str(files / "chain.ts")]) == 1
            outputs[command, flags] = capsys.readouterr().out.splitlines()[1:]
    both = ["counterexample: event e1 at state s5", "counterexample: event e2 at state s2"]
    for command in ("check-essp", "check-feasible"):
        assert outputs[command, ("--exhaustive-counterexamples",)] == both
        assert outputs[command, ()] == both[:1]


def test_check_feasible_exhaustive_stops_at_the_first_ssp_failure(files, capsys):
    """--exhaustive-counterexamples reaches the ESSP sweep only: a failing
    SSP sweep reports its first pair alone, in text and in JSON."""
    (files / "abcd.ts").write_text(
        serialize_ts(TransitionSystem.chain(["a", "b", "a", "b", "c", "d", "c", "d"])))
    for flags in ((), ("--format", "json")):
        assert run([*flags, "--exhaustive-counterexamples", "check-feasible",
                    str(files / "abcd.ts")]) == 1
        out = capsys.readouterr().out
        if flags:
            assert json.loads(out)["counterexamples"] == [
                {"a": "s0", "b": "s2", "kind": "ssp"}]
        else:
            assert out.splitlines() == [
                "feasibility: fails", "counterexample: states (s0, s2)"]


def test_linear2_ssp_cli(files, capsys):
    assert run(["linear2-ssp", str(files / "abab.ts")]) == 1
    out = capsys.readouterr().out
    assert "(s0, s4)" in out
    (files / "abc.ts").write_text(serialize_ts(TransitionSystem.chain(["a", "b", "c"])))
    assert run(["linear2-ssp", str(files / "abc.ts")]) == 0


def test_separator_cli(files, capsys):
    assert run(["separator", str(files / "abab.ts"), "0", "4"]) == 1
    assert "UNSEPARABLE" in capsys.readouterr().out
    assert run(["separator", str(files / "abab.ts"), "1", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("region: {")
    assert "sig:" in out


def test_separator_cli_out_of_range_exits_2(files, capsys):
    """Indices outside the chain used to end in an IndexError traceback."""
    for i, j in (("0", "5"), ("2", "2"), ("-1", "1")):
        assert run(["separator", str(files / "abab.ts"), i, j]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: indices ({i}, {j}) out of range for chain length 4\n"


def test_models_cli(files, capsys):
    assert run(["models", str(files / "phi6.cnf3")]) == 0
    out = capsys.readouterr().out
    assert "{X0, X4}" in out
    (files / "phi4.cnf3").write_text(
        "clause 0 1 2\nclause 0 1 3\nclause 0 2 3\nclause 1 2 3\n"
    )
    assert run(["models", str(files / "phi4.cnf3")]) == 1


def test_json_format(files, capsys):
    assert run(["--format", "json", "classify", str(files / "master.ts")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"manifoldness": 3, "degree": 1, "linear": True}
    assert run(["--format", "json", "check-ssp", str(files / "abab.ts")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["counterexamples"][0]["kind"] == "ssp"


def test_each_format_builds_only_its_own_witness_output(files, capsys, monkeypatch):
    """Text output never builds the JSON witness payloads, and JSON output
    never formats a witness as text, though both print the same bytes."""
    path = str(files / "master.ts")
    text = ["--verbose-witnesses", "check-ssp", path]
    as_json = ["--format", "json", *text]
    assert run(text) == 0
    text_out = capsys.readouterr().out
    assert run(as_json) == 0
    json_out = capsys.readouterr().out
    assert json.loads(json_out)["witnesses"]

    def refuse(region):
        raise AssertionError("built for the other format")

    monkeypatch.setattr(cli, "_region_payload", refuse)
    assert run(text) == 0
    assert capsys.readouterr().out == text_out
    monkeypatch.undo()
    monkeypatch.setattr(cli, "format_region", refuse)
    assert run(as_json) == 0
    assert capsys.readouterr().out == json_out


def test_synthesize_and_reach_graph(files, capsys):
    net_path = files / "master.ens"
    assert run(["synthesize", str(files / "master.ts"), "--out", str(net_path)]) == 0
    assert net_path.read_text().startswith(".ens")
    out_ts = files / "rg.ts"
    assert run(["reach-graph", str(net_path), "--out", str(out_ts)]) == 0
    text = out_ts.read_text()
    assert text.startswith(".ts")
    assert "initial M0" in text


def test_reach_graph_of_a_net_without_transitions(files, capsys):
    """An empty event set is a violation of the graph, not an input error."""
    (files / "idle.ens").write_text(".ens\nplace p\n")
    out_ts = files / "idle.ts"
    assert run(["reach-graph", str(files / "idle.ens"), "--out", str(out_ts)]) == 0
    assert out_ts.read_text() == ".ts\ninitial M0\n"
    assert capsys.readouterr().err == "note: graph is not admissible: events: none declared\n"
    assert run(["validate", str(out_ts)]) == 1
    assert capsys.readouterr().out == "events: none declared\n"
    assert run(["--format", "json", "validate", str(out_ts)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "valid": False, "violations": [{"kind": "events", "offenders": []}]}


def test_reduce_outputs(files):
    out = files / "red"
    assert run([
        "reduce", "--construction", "linear3-essp",
        "--in", str(files / "phi6.cnf3"), "--out", str(out),
    ]) == 0
    assert (out / "linear3-essp.union").exists()
    assert (out / "linear3-essp.plan").exists()
    assert (out / "linear3-essp.query").read_text() == "inhibit k m6\n"
    joined = (out / "linear3-essp.ts").read_text()
    assert joined.startswith(".ts\ninitial m0\n")
    # byte-identical on a second run
    out2 = files / "red2"
    run(["reduce", "--construction", "linear3-essp",
         "--in", str(files / "phi6.cnf3"), "--out", str(out2)])
    assert (out2 / "linear3-essp.ts").read_text() == joined


def test_reduce_ssp_construction(files):
    (files / "abc.ts").write_text(serialize_ts(TransitionSystem.chain(["a", "b"])))
    out = files / "redssp"
    assert run([
        "reduce", "--construction", "linear3-ssp",
        "--in", str(files / "abc.ts"), "--out", str(out),
    ]) == 0
    manifest = (out / "linear3-ssp.query").read_text()
    assert manifest.splitlines()[0].startswith("separate ")


def test_reduce_unchecked_scaffolding(files):
    (files / "phi1.cnf3").write_text("clause 0 1 2\n")
    out = files / "redu"
    assert run([
        "reduce", "--construction", "linear3-essp",
        "--in", str(files / "phi1.cnf3"), "--out", str(out), "--unchecked",
    ]) == 0
    assert run([
        "reduce", "--construction", "linear3-essp",
        "--in", str(files / "phi1.cnf3"), "--out", str(out),
    ]) == 2  # fails validity without --unchecked


def test_reduce_2grade2_refuses_a_scaffolding_formula(files, capsys):
    (files / "phi1.cnf3").write_text("clause 0 1 2\n")
    assert run([
        "reduce", "--construction", "2grade2-essp",
        "--in", str(files / "phi1.cnf3"), "--out", str(files / "g2"), "--unchecked",
    ]) == 2
    assert capsys.readouterr().err == (
        "error: 2grade2-essp needs every variable in exactly three clauses; X0 occurs in 1\n")


def test_timeout_exit_code(files, capsys):
    out = files / "redbig"
    run(["reduce", "--construction", "linear3-essp",
         "--in", str(files / "phi6.cnf3"), "--out", str(out)])
    code = run([
        "--timeout", "0.000001", "check-essp", str(out / "linear3-essp.ts")
    ])
    assert code == 3
    assert "timeout" in capsys.readouterr().err



@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_timeout_must_be_positive(files, capsys, value):
    """``nan`` passed the old ``<= 0`` test and ran without a time bound."""
    with pytest.raises(SystemExit) as exc:
        run(["--timeout", value, "check-feasible", str(files / "master.ts")])
    assert exc.value.code == 2
    assert "--timeout must be positive" in capsys.readouterr().err


def test_duplicate_union_terminal_exits_2(files, capsys):
    (files / "twice.union").write_text(
        ".union\ncomponent A\ninitial a\nedge a x b\nend\nterminal A b\nterminal A a\n")
    assert run(["check-feasible", str(files / "twice.union")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 7: duplicate terminal for component 'A'\n"


def test_errors_in_a_referenced_component_file_name_the_file(files, capsys):
    """The loader's file is reported on its ``component`` line, after its path."""
    (files / "bad.ts").write_text(".ts\ninitial a\nedge a x\n")
    (files / "noinit.ts").write_text(".ts\nedge a x b\n")
    (files / "bad.union").write_text(
        ".union\n# inline first\ncomponent A\ninitial q\nend\ncomponent B bad.ts\n")
    (files / "noinit.union").write_text(".union\ncomponent B noinit.ts\n")
    assert run(["check-ssp", str(files / "bad.union")]) == 2
    assert capsys.readouterr().err == (
        "error: line 6: bad.ts: line 3: edge takes source, event, target\n")
    assert run(["check-ssp", str(files / "noinit.union")]) == 2
    assert capsys.readouterr().err == "error: line 2: noinit.ts: missing initial declaration\n"


def test_check_on_union_file(files, capsys):
    out = files / "redun"
    run(["reduce", "--construction", "linear3-essp",
         "--in", str(files / "phi6.cnf3"), "--out", str(out)])
    assert run(["check-ssp", str(out / "linear3-essp.union")]) == 0


def test_export_dot_ts(files, capsys):
    assert run([
        "export-dot", str(files / "master.ts"), "--shade", "m0,m3,m7"
    ]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph G {")
    assert '"m0" -> "m1" [label="k"];' in dot
    assert dot.count("gray85") == 3


def test_export_dot_ens():
    ts = TransitionSystem.chain(["a"])
    net = synthesize(
        ts, [Region.from_members(ts, ["s0"]), Region.from_members(ts, ["s1"])]
    )
    dot = export_dot(net)
    assert '"p0" [shape=circle, style=filled, fillcolor="gray70"];' in dot
    assert '"a" [shape=box];' in dot
    assert '"p0" -> "a";' in dot


def test_single_edge_dot():
    dot = export_dot(TransitionSystem.chain(["a"]))
    assert dot.count("->") == 1
    assert 'label="a"' in dot


def test_outputs_deterministic(files, capsys):
    run(["check-feasible", str(files / "master.ts")])
    first = capsys.readouterr().out
    run(["check-feasible", str(files / "master.ts")])
    assert capsys.readouterr().out == first


def test_single_ts_commands_reject_unions(files, capsys):
    instance = build_linear3_essp(CubicMonotoneFormula(PHI1, check=False))
    path = files / "phi1.union"
    path.write_text(serialize_union(instance.union, instance.join_plan))
    for argv in (["separator", str(path), "0", "1"], ["linear2-ssp", str(path)],
                 ["synthesize", str(path)]):
        assert run(argv) == 2
        assert f"{argv[0]} expects a single .ts file" in capsys.readouterr().err


def test_seed_flag_removed(files):
    with pytest.raises(SystemExit) as exc:
        run(["--seed", "1", "classify", str(files / "master.ts")])
    assert exc.value.code == 2


def test_module_entry_point_runs_main(files):
    src = str(Path(ensynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "ensynth.cli", "classify", str(files / "master.ts")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert "manifoldness 3" in done.stdout


# SHA-256 of the CLI output on the joined and the union form of the PHI1
# linear3-essp instance: witness choice and order are part of the output.
GOLDEN = {
    ("phi1.ts", "--format", "json"):
        "d8fe0dd739df0d67445ee89492aa528dcda0b698356fc0c7329bf1e13b9c27a2",
    ("phi1.ts", "--verbose-witnesses"):
        "e34eb81e2fc80071196dc48c3170d43d2c86c24930781faf31e23586d703d33a",
    ("phi1.union", "--format", "json"):
        "196b7ed33f702f43e521ca07825ba488952ff36483a32a988b97f758ee3332cf",
}


def test_check_feasible_output_is_pinned(files, capsys):
    instance = build_linear3_essp(CubicMonotoneFormula(PHI1, check=False))
    (files / "phi1.ts").write_text(serialize_ts(join(instance.union, instance.join_plan)))
    (files / "phi1.union").write_text(serialize_union(instance.union, instance.join_plan))
    for (name, *flags), digest in GOLDEN.items():
        assert run([*flags, "check-feasible", str(files / name)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, flags)



# SHA-256 of check-feasible on the joined linear3-essp instance of PHI6
# (1023 states, 901 witnesses), recorded before witnesses carried their
# member positions.
PHI6_GOLDEN = {
    ("--format", "json"):
        "82a9910fec0a022f00a37fd8be209f79b2427104bf8dd798b80bb077e40dbe7b",
    ("--verbose-witnesses",):
        "830d9476598d2a50564b166721d8093fb8a0e2524395e5a380df543719a3fe5e",
}


def test_check_feasible_output_is_pinned_on_phi6(files, capsys):
    instance = build_linear3_essp(CubicMonotoneFormula(PHI6))
    joined = join(instance.union, instance.join_plan)
    assert len(joined.states) == 1023
    (files / "phi6.ts").write_text(serialize_ts(joined))
    for flags, digest in PHI6_GOLDEN.items():
        assert run([*flags, "check-feasible", str(files / "phi6.ts")]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags
    assert out.startswith("feasibility: holds\nwitnesses: 901 regions\n")

# SHA-256 of the synthesis commands' stdout on the PHI1 instance, recorded
# before nets got their pre/post index.
SYNTHESIS_GOLDEN = {
    "synthesize": "8a920dec240e43ce28b41ab9d652d259c1c32ca34e7d044cb7f4b383e18cc75e",
    "reach-graph": "f943937549b56344b71e085787ed7514f58969bd4477061add9e4f778ef277f5",
    "export-dot .ens": "9b8f836359a024ba16d4b8c2e903cbd5349bcd3446777241b820b40c07af3b4c",
    "export-dot .ts": "044d4cbbaba129dd48673ecb14adaf75097537b92ddc1bf5e6e64b94d704bd9a",
}


def test_synthesis_output_is_pinned(files, capsys):
    instance = build_linear3_essp(CubicMonotoneFormula(PHI1, check=False))
    ts_path, ens_path = str(files / "phi1.ts"), str(files / "phi1.ens")
    (files / "phi1.ts").write_text(serialize_ts(join(instance.union, instance.join_plan)))
    digests = {}
    for name, argv in (
        ("synthesize", ["synthesize", "--witness", "feasible", ts_path]),
        ("reach-graph", ["reach-graph", ens_path]),
        ("export-dot .ens", ["export-dot", ens_path]),
        ("export-dot .ts", ["export-dot", ts_path]),
    ):
        assert run(argv) == 0
        out = capsys.readouterr().out
        if name == "synthesize":
            (files / "phi1.ens").write_text(out)
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == SYNTHESIS_GOLDEN


def test_ambiguous_ens_flow_exits_2(files, capsys):
    (files / "clash.ens").write_text(
        ".ens\nplace p0\nplace p1\ntransition p0\ntransition p1\nflow p0 -> p1\n")
    for command in ("reach-graph", "export-dot"):
        assert run([command, str(files / "clash.ens")]) == 2
        assert "line 6: ambiguous flow p0 -> p1" in capsys.readouterr().err


def test_synthesize_refuses_an_ambiguous_net(files, capsys):
    (files / "clash.ts").write_text(serialize_ts(TransitionSystem.chain(["p0", "p1"])))
    assert run(["synthesize", "--witness", "feasible", str(files / "clash.ts")]) == 2
    assert "error: ambiguous flow p0 -> p0" in capsys.readouterr().err


def test_export_dot_escapes_quotes_and_backslashes():
    ts = TransitionSystem(['a"b', "c\\d"], ['e"'], 'a"b', [('a"b', 'e"', "c\\d")])
    dot = export_dot(ts, {"c\\d"})
    assert r'  "a\"b" [label="a\"b", penwidth=2];' in dot
    assert r'  "c\\d" [label="c\\d", style=filled, fillcolor="gray85"];' in dot
    assert r'  "a\"b" -> "c\\d" [label="e\""];' in dot
    net = ElementaryNetSystem(('p"',), ("t\\",), frozenset({('p"', "t\\")}), frozenset())
    dot = export_dot(net)
    assert r'  "p\"" [shape=circle, style=solid];' in dot
    assert r'  "t\\" [shape=box];' in dot
    assert r'  "p\"" -> "t\\";' in dot


def test_linear2_commands_reject_a_detached_cycle(files, capsys):
    path = str(files / "cycle.ts")
    (files / "cycle.ts").write_text(".ts\ninitial a\nedge b x c\nedge c y b\n")
    for argv in (["linear2-ssp", path], ["separator", path, "0", "1"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error: expected a linear 2-fold transition system" in err
    assert run(["classify", path]) == 0
    assert "linear no" in capsys.readouterr().out


def test_ens_identifiers_are_checked(files, capsys):
    (files / "bad.ens").write_text('.ens\nplace p"0\ntransition t\nflow p"0 -> t\n')
    assert run(["export-dot", str(files / "bad.ens")]) == 2
    assert "invalid identifier 'p\"0'" in capsys.readouterr().err
    (files / "bad2.ens").write_text(".ens\nplace p0\ntransition t{\n")
    assert run(["reach-graph", str(files / "bad2.ens")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_unwritable_out_exits_2(files, capsys):
    missing = str(files / "missing" / "x")
    assert run(["synthesize", str(files / "master.ts"), "--out", str(files / "master.ens")]) == 0
    for argv in (["synthesize", str(files / "master.ts"), "--out", missing],
                 ["reach-graph", str(files / "master.ens"), "--out", missing],
                 ["export-dot", str(files / "master.ts"), "--out", missing]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {missing}: No such file or directory\n"
    taken = str(files / "abab.ts")
    assert run(["reduce", "--construction", "linear3-essp",
                "--in", str(files / "phi6.cnf3"), "--out", taken]) == 2
    assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"


# SHA-256 and exit code of check-ssp and check-essp, recorded before the
# three check commands shared one handler: holding and failing inputs, text
# and JSON, every counterexample of a failing ESSP, and a .union input.
CHECK_GOLDEN = {
    ("check-ssp", "phi1.ts"):
        (0, "55e74c1875edf340a5c52f5279e726cb18d0ba54b1e73ddc6da98e1e8c5b3c1a"),
    ("check-ssp", "phi1.ts", "--format", "json"):
        (0, "8710ab4fb68d096a0de90311b7c89c3cc0d74b02bd212d29b2ceb1787161456b"),
    ("check-ssp", "phi1.ts", "--verbose-witnesses"):
        (0, "f71f0e5021af3ab0c8483931a512455e34225d69383a276eb5d28e8a98265503"),
    ("check-ssp", "phi1.union", "--format", "json"):
        (0, "321bfc91e37867f70d014faead051e5ce460e728406241c5d74c8c0a05aa3c4c"),
    ("check-ssp", "abab.ts"):
        (1, "ee588b23b8c8f902d6b3393b631cc5b228536d16e0d9821055757458ebd620be"),
    ("check-ssp", "abab.ts", "--format", "json", "--exhaustive-counterexamples"):
        (1, "eeae047f26a167d6806ffbae98b54be93896cf87ff2c94eaae96aeecf1f5a28a"),
    ("check-essp", "phi1.ts", "--format", "json"):
        (0, "5c8dca916bd2cc5e8e5e0635a5b4700a0aa1956eab8bd1639e3b1961b6f81119"),
    ("check-essp", "phi1.ts", "--verbose-witnesses"):
        (0, "87241c0a47257a2be27f1e3e3ab4e92acfcaf2d4d5fee13ce4c9152fcf88b8eb"),
    ("check-essp", "phi1.union", "--format", "json"):
        (0, "3c5506e674f18e886b1c47bba697829dcf1d9daee4ced5f898a8153d957b6c71"),
    ("check-essp", "abba.ts"):
        (1, "2d5801397e65365f5b47a4c80994e06ebfa341d6ece72a8306e46ba92dd2a6c3"),
    ("check-essp", "abba.ts", "--exhaustive-counterexamples"):
        (1, "0852026a042cbb35209af1ad3ce1297c8c4004d8b081e2aa3c1474edf6b66dee"),
    ("check-essp", "abba.ts", "--format", "json", "--exhaustive-counterexamples"):
        (1, "e2e8d40fb2e03ac82082d59929d8729d8641933103117c97446051859e97994e"),
    ("check-essp", "phi4.ts", "--format", "json", "--exhaustive-counterexamples"):
        (1, "963b4b62bd46820107eb4f442dd30d2d2aee895ea359f9644f65475b1463d943"),
}


def test_check_ssp_and_essp_outputs_are_pinned(files, capsys):
    phi1 = build_linear3_essp(CubicMonotoneFormula(PHI1, check=False))
    phi4 = build_linear3_essp(CubicMonotoneFormula(PHI4))
    (files / "phi1.ts").write_text(serialize_ts(join(phi1.union, phi1.join_plan)))
    (files / "phi1.union").write_text(serialize_union(phi1.union, phi1.join_plan))
    (files / "phi4.ts").write_text(serialize_ts(join(phi4.union, phi4.join_plan)))
    (files / "abba.ts").write_text(serialize_ts(TransitionSystem.chain(["a", "b", "b", "a"])))
    for (command, name, *flags), (code, digest) in CHECK_GOLDEN.items():
        assert run([*flags, command, str(files / name)]) == code, (command, name, flags)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, name, flags)


# SHA-256 and exit code of check-ssp --format json on the joined
# 2grade2-essp instance of PHI4 (1024 states, 341 witnesses), recorded
# before the solver branched inside its propagation kernel: the solves of
# a 2grade2 instance are bound by search, not by propagation.
G2_GOLDEN = (0, "1b330e7d9469a6e616e015c3fed028335bf752ab04e2c7c23100d39a2451dcca")


def test_check_ssp_output_is_pinned_on_a_2grade2_instance(files, capsys):
    instance = build_2grade2_essp(CubicMonotoneFormula(PHI4))
    joined = join(instance.union, instance.join_plan)
    assert len(joined.states) == 1024
    (files / "g2.ts").write_text(serialize_ts(joined))
    code = run(["--format", "json", "check-ssp", str(files / "g2.ts")])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == G2_GOLDEN
    assert len(json.loads(out)["witnesses"]) == 341


# SHA-256 of each file ``reduce`` writes, per construction: PHI4 for the
# ESSP constructions, the linear 3-fold chain a b a c a b for the SSP ones.
REDUCE_GOLDEN = {
    "linear3-essp.union":
        "73ada2db27787ed680b7d4461c560e3cfcd1ee502ad3e1170192cc5614036636",
    "linear3-essp.plan":
        "099568f1dbfd38d107ffebe38ef8e7332888d2f24fe7c322ade98fea0695ba61",
    "linear3-essp.query":
        "686e1cf4a94f0d5c9c7660aaa9df7ae97c28365d246fb6afaa28e7ac7659cfe2",
    "linear3-essp.ts":
        "d82f62a42a88654e27212921378748b2f44431fc799fb49340dfa8b6164c7ecc",
    "2grade2-essp.union":
        "ac9cfe44688b398e06cdd462478cff2c1ffaf5bd14f5bad39c6a442926525cbb",
    "2grade2-essp.plan":
        "2a45c3dc85187280621b84d8de57acc7a3399ed8c85a65e601468e2fc278892c",
    "2grade2-essp.query":
        "71ad97f26c520f80dc55dec8c9e02a7f7a61db17b427c01106373d8844a9d39f",
    "2grade2-essp.ts":
        "cd85d2b69823ce55a7ea51f718dc0deb9a283ddca9e3f178644bb4eab715b223",
    "linear3-ssp.union":
        "b940395d23b55bc56812eccadb1c13cf1f2e544e33830de7b82f9621e7cc254f",
    "linear3-ssp.plan":
        "ccd6d122593ecb5b3868e623e5dcf86fa795be6ed761384a85a32b503ee3b7b8",
    "linear3-ssp.query":
        "cdf040a3e5aa28fd2a6f2db0d890ab56db94206805918abebc122a34b88b9649",
    "linear3-ssp.ts":
        "518a8f5b0908457646e75a61e5273bf070d4224e8c17f0f213dcb5d7f5ec67f3",
    "2grade2-ssp.union":
        "9f8de168ffc732569d3810dbca7dd9dba74fde16d88097aea8f3b15e4966653c",
    "2grade2-ssp.plan":
        "2b42bbfaea7186a0282a4772c0b3140b0c5c757dff1984ccc2a0c755aee133fd",
    "2grade2-ssp.query":
        "717eabd4beac9937fd3246b92335a6509f5d2bc417354aaf618b6c1001ebdc5b",
    "2grade2-ssp.ts":
        "1bb976e3e4a9560f5ea653ced1257149b14d0dc8e65a9494b54166beeb2067df",
}


def test_reduce_outputs_are_pinned(files, capsys):
    (files / "phi4.cnf3").write_text(serialize_cnf3(CubicMonotoneFormula(PHI4)))
    (files / "abacab.ts").write_text(
        serialize_ts(TransitionSystem.chain(["a", "b", "a", "c", "a", "b"])))
    digests = {}
    for construction, source in (("linear3-essp", "phi4.cnf3"), ("2grade2-essp", "phi4.cnf3"),
                                 ("linear3-ssp", "abacab.ts"), ("2grade2-ssp", "abacab.ts")):
        out = files / construction
        assert run(["reduce", "--construction", construction,
                    "--in", str(files / source), "--out", str(out)]) == 0
        for suffix in (".union", ".plan", ".query", ".ts"):
            text = (out / f"{construction}{suffix}").read_bytes()
            digests[construction + suffix] = hashlib.sha256(text).hexdigest()
    assert digests == REDUCE_GOLDEN


def test_reduce_writes_an_empty_manifest_when_nothing_is_asked(files):
    """A one-state input has no 3-fold event, so the 2grade2-ssp instance
    has neither a key query nor key pairs: its ``.query`` is empty."""
    (files / "single.ts").write_text(".ts\ninitial s0\n")
    out = files / "single"
    assert run(["reduce", "--construction", "2grade2-ssp",
                "--in", str(files / "single.ts"), "--out", str(out)]) == 0
    assert (out / "2grade2-ssp.query").read_text() == ""
    assert (out / "2grade2-ssp.plan").read_text() == "terminal C0 s0\n"


def test_synthesize_feasible_timeout_exits_3(files, capsys):
    """The timeout of the feasibility run behind ``synthesize --witness
    feasible`` is reported like a check command's, not as a traceback."""
    instance = build_linear3_essp(CubicMonotoneFormula(PHI6))
    (files / "phi6.ts").write_text(serialize_ts(join(instance.union, instance.join_plan)))
    code = run(["--timeout", "0.000001", "synthesize", "--witness", "feasible",
                str(files / "phi6.ts")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "timeout: 0 of 522753 queries checked\n"


def test_synthesize_feasible_refuses_an_infeasible_input(files, capsys):
    (files / "aa.ts").write_text(serialize_ts(TransitionSystem.chain(["a", "a"])))
    net_path = files / "aa.ens"
    code = run(["synthesize", "--witness", "feasible", str(files / "aa.ts"),
                "--out", str(net_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "not feasible: states (s0, s1)\n")
    assert not net_path.exists()


# Inputs that each command refuses, and the error it reports for them.
BAD_INPUTS = {
    "extra.union": ".union\ncomponent A x y\n",
    "twice.union":
        ".union\ncomponent A\ninitial a\nedge a x b\nend\ncomponent A\ninitial c\nend\n",
    "short.cnf3": "clause 1 2\n",
    "names.cnf3": "clause a b c\n",
    "negative.cnf3": "clause 0 1 -2\n",
    "repeated.cnf3": "clause 0 1 2\n" * 3,
    "empty.cnf3": "",
    "branching.ts": ".ts\ninitial s0\nedge s0 a s1\nedge s0 b s2\n",
    "single.ts": ".ts\ninitial s0\n",
}


@pytest.mark.parametrize("argv, message", [
    (["check-ssp", "extra.union"], "line 2: component takes a name and optional path"),
    (["check-ssp", "twice.union"], "line 6: duplicate component name 'A'"),
    (["models", "short.cnf3"], "line 1: expected 'clause <v> <v> <v>'"),
    (["models", "names.cnf3"], "line 1: clause variables must be integers"),
    (["models", "negative.cnf3"], "clause (-2, 0, 1) has invalid variable indices"),
    (["models", "repeated.cnf3"], "clauses must be pairwise distinct"),
    *((["reduce", "--construction", name, "--in", "empty.cnf3"],
       "the construction needs at least one clause")
      for name in ("linear3-essp", "2grade2-essp")),
    *((["reduce", "--construction", name, "--in", "branching.ts"],
       "the construction expects a linear 3-fold input")
      for name in ("linear3-ssp", "2grade2-ssp")),
    (["reduce", "--construction", "linear3-ssp", "--in", "single.ts"],
     "input admits no (event, state) separation queries"),
])
def test_bad_inputs_exit_2_with_their_message(tmp_path, capsys, argv, message):
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in BAD_INPUTS else arg for arg in argv]
    if argv[0] == "reduce":
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_an_unreadable_component_file_is_reported_on_its_line(files, capsys):
    (files / "lost.union").write_text(".union\ncomponent A missing.ts\n")
    assert run(["check-ssp", str(files / "lost.union")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: line 2: missing.ts: cannot read {files / 'missing.ts'}: "
                            "No such file or directory\n")


def test_export_dot_refuses_other_objects():
    with pytest.raises(ValueError, match="export_dot accepts a TransitionSystem or an"):
        export_dot(42)


def test_main_exits_with_the_code_of_run(files, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ensynth", "check-ssp", str(files / "abab.ts")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
