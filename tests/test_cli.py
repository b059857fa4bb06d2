"""Command-line behaviour: exit codes, report shapes, product emission."""

from __future__ import annotations

import importlib.util
import json
import re
import shlex
import subprocess
import sys

import pytest

from conftest import MODELS
from wstskit.cli import main
from wstskit.dsl import parse_model

REPORT_KEYS = ["command", "verdict", "witness", "budget", "elapsed_ms", "caveats"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def fails(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


def path(name: str) -> str:
    return str(MODELS / f"{name}.model")


def test_json_report_contract(capsys):
    code, report, _ = run_json(capsys, "check", "boundedness", path("m1"))
    assert code == 0
    assert list(report) == REPORT_KEYS
    assert report["command"] == f"check boundedness {path('m1')}"
    assert report["verdict"] == "unbounded"
    assert report["witness"] == {
        "ancestor_node": 0,
        "node": 1,
        "ancestor_state": "q0:(ε)",
        "state": "q0:(a)",
    }
    assert report["budget"] == 3
    assert isinstance(report["elapsed_ms"], float)
    assert report["caveats"] and "strict" in report["caveats"][0]


def test_termination_human_output(capsys):
    code, out, _ = run(capsys, "check", "termination", path("m1"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "machine: m1 (fifo)"
    assert lines[1] == "analysis: termination"
    assert "verdict: NON-TERMINATING" in lines
    witness = json.loads(next(l for l in lines if l.startswith("witness: "))[9:])
    assert witness["loop"] == ["!a"]
    assert witness["subsumer_state"] == "q0:(ε)" and witness["state"] == "q0:(a)"
    assert any(l.startswith("caveat: ") for l in lines)


def test_assert_strict_monotone_drops_caveat(capsys):
    code, report, _ = run_json(
        capsys, "check", "boundedness", path("m1"), "--assert-strict-monotone"
    )
    assert code == 0 and report["caveats"] == []


def test_counter_machines_report_zero_test_class(capsys):
    _, out, _ = run(capsys, "check", "boundedness", path("m7"))
    assert "note: restricted zero-test class: yes" in out
    assert "verdict: BOUNDED" in out
    _, out, _ = run(capsys, "check", "boundedness", path("m8"))
    assert "note: restricted zero-test class: no" in out
    assert "verdict: UNBOUNDED" in out


def test_restricted_class_needs_no_assertion(capsys):
    # m7 is in the restricted class, so tree verdicts carry no caveats
    code, report, _ = run_json(capsys, "check", "termination", path("m7"))
    assert code == 0
    assert report["verdict"] == "terminating" and report["caveats"] == []


def test_nonterm_iterable(capsys):
    code, report, _ = run_json(
        capsys, "check", "nonterm-iterable", path("m2"), "--init", "q2"
    )
    assert code == 0
    assert report["verdict"] == "non-terminating"
    assert report["witness"] == {"node": 2, "state": "q2:(c)", "loop": ["!c"]}
    assert report["caveats"] == []

    code, report, _ = run_json(capsys, "check", "nonterm-iterable", path("m4"))
    assert code == 2  # replay shifts off its footprint; never a negative
    assert report["verdict"] == "inconclusive" and report["witness"] is None


def test_cmrz_analysis(capsys):
    code, report, _ = run_json(capsys, "check", "cmrz", path("m7"))
    assert code == 0 and report["verdict"] == "cmrz" and report["witness"] is None
    code, report, _ = run_json(capsys, "check", "cmrz", path("m8"))
    assert code == 0 and report["verdict"] == "not-cmrz"
    assert report["witness"] == {
        "transitions": [0, 1],
        "path": ["noop [zero: c]", "inc(c)"],
    }
    _, out, _ = run(capsys, "check", "cmrz", path("m8"))
    assert "verdict: NOT CMRZ" in out


def test_cmrz_follows_init(tmp_path, capsys):
    # the zero test of c is reachable from q0 only, so the class depends on
    # the start control, and --init moves it
    model = tmp_path / "start.model"
    model.write_text(
        "kind counter\nstates q0 q1 q2\ncounters c\n"
        "q0 -- noop [zero: c] --> q1\nq1 -- inc(c) --> q1\nq2 -- inc(c) --> q2\n"
        "init q0\n", encoding="utf-8",
    )
    code, report, _ = run_json(capsys, "check", "cmrz", str(model))
    assert code == 0 and report["verdict"] == "not-cmrz"
    assert report["witness"]["transitions"] == [0, 1]
    code, report, _ = run_json(capsys, "check", "cmrz", str(model), "--init", "q2")
    assert code == 0 and report["verdict"] == "cmrz" and report["witness"] is None
    for init, restricted in ((), "no"), (("--init", "q2"), "yes"):
        _, out, _ = run(capsys, "check", "termination", str(model), *init)
        assert f"note: restricted zero-test class: {restricted}" in out
    # from q2 the tree analyses need no assumption
    code, report, _ = run_json(capsys, "check", "termination", str(model), "--init", "q2")
    assert code == 0 and report["verdict"] == "non-terminating" and report["caveats"] == []


def test_x0_cover_positive(capsys):
    code, report, _ = run_json(
        capsys, "check", "x0-cover", path("m8"), "--target", "q2:(3)"
    )
    assert code == 0
    assert report["verdict"] == "coverable"
    assert report["witness"] == {
        "run": ["inc(c)", "inc(c)", "inc(c)"],
        "labels": [3, 4, 4],
    }
    assert report["budget"] == 4


def test_x0_cover_negative_invariant(capsys):
    code, report, _ = run_json(
        capsys, "check", "x0-cover", path("m8"), "--target", "q1:(1)"
    )
    assert code == 0
    assert report["verdict"] == "not-coverable"
    assert report["witness"] == {"invariant": ["q0:(0)", "q2:(ω)"]}
    assert report["budget"] == 76


def test_x0_cover_negative_reach_closure(capsys):
    code, report, _ = run_json(
        capsys, "check", "x0-cover", path("m7"), "--target", "q2:(0)", "--budget", "300"
    )
    assert code == 0
    assert report["verdict"] == "not-coverable"
    assert report["witness"] == {"reach_closure": ["q0:(0)", "q1:(1)"]}


def test_x0_cover_inconclusive(capsys):
    code, report, _ = run_json(
        capsys, "check", "x0-cover", path("m8"), "--target", "q2:(5)", "--budget", "3"
    )
    assert code == 2
    assert report["verdict"] == "inconclusive"
    assert report["budget"] == 3
    assert report["caveats"] and "round budget" in report["caveats"][0]
    with pytest.raises(SystemExit) as info:
        main(["check", "x0-cover", path("m8"), "--target", "q2:(5)",
              "--budget", "3", "--assert-cover-monotone"])
    assert info.value.code == 1
    assert "unrecognized arguments: --assert-cover-monotone" in capsys.readouterr().err


def test_budget_exhaustion_exit_code(capsys):
    code, report, _ = run_json(
        capsys, "check", "boundedness", path("m1"), "--budget", "1"
    )
    assert code == 2 and report["verdict"] == "inconclusive" and report["budget"] == 1
    _, out, _ = run(capsys, "check", "boundedness", path("m1"), "--budget", "1")
    assert "budget used: 1 of 1 (exhausted)" in out
    # a complete tree that decides nothing did not run out of budget
    code, out, _ = run(capsys, "check", "nonterm-iterable", path("m3"))
    assert code == 2 and "verdict: INCONCLUSIVE" in out
    assert "budget used: 4 of 10000\n" in out
    _, out, _ = run(capsys, "check", "x0-cover", path("m8"), "--target", "q2:(5)", "--budget", "3")
    assert "budget used: 3 of 3 (exhausted)" in out


def test_usage_errors_exit_one(tmp_path, capsys):
    assert fails("check", "weirdness", path("m1")) == 1
    assert fails("check", "x0-cover", path("m8")) == 1  # missing --target
    assert fails("check", "x0-cover", path("m1"), "--target", "q0:(0)") == 1  # fifo
    assert fails("check", "cmrz", path("m1")) == 1
    assert fails("check", "boundedness", path("m1"), "--budget", "0") == 1
    assert fails("check", "boundedness", str(tmp_path / "missing.model")) == 1
    assert fails("check", "boundedness", path("m1"), "--init", "zz") == 1
    assert fails("check", "x0-cover", path("m8"), "--target", "wat") == 1
    capsys.readouterr()
    assert fails("check", "x0-cover", path("m8"), "--target", "q2:(x)") == 1
    assert capsys.readouterr().err.endswith("error: target values must be integers\n")
    assert fails() == 1  # no subcommand
    bad = tmp_path / "bad.model"
    bad.write_text("kind counter\nstates q0\nq0 -- zap --> q0\ninit q0\n")
    assert fails("check", "boundedness", str(bad)) == 1


def test_target_beyond_the_int_digit_limit_exits_one(capsys):
    limit = sys.get_int_max_str_digits()
    target = f"q2:({'7' * (limit + 1)})"
    assert fails("check", "x0-cover", path("m8"), "--target", target) == 1
    message = f"error: target values must have at most {limit} digits\n"
    assert capsys.readouterr().err.endswith(message)


def test_non_utf8_model_exits_one(tmp_path, capsys):
    latin = tmp_path / "latin.model"
    latin.write_bytes("# caf\xe9\n".encode("latin-1") + (MODELS / "m1.model").read_bytes())
    assert fails("check", "boundedness", str(latin)) == 1
    assert f"cannot read {latin}" in capsys.readouterr().err


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    # editors on Windows often start UTF-8 files with a byte-order mark
    text = (MODELS / "m7.model").read_bytes()
    reports = []
    for mark in (b"", b"\xef\xbb\xbf"):
        model = tmp_path / f"mark{len(mark)}" / "m7.model"
        model.parent.mkdir()
        model.write_bytes(mark + text)
        code, out, err = run(capsys, "check", "termination", str(model))
        assert code == 0 and err == ""
        reports.append([line for line in out.splitlines() if not line.startswith("elapsed: ")])
    assert reports[0] == reports[1]


def test_unwritable_dot_path_exits_one(tmp_path, capsys):
    dot = tmp_path / "missing-dir" / "tree.dot"
    assert fails("check", "termination", path("m1"), "--dot", str(dot)) == 1
    assert f"cannot write {dot}" in capsys.readouterr().err


def test_unwritable_product_output_exits_one(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "product.model"
    assert fails("product", path("m4"), "-o", str(target)) == 1
    assert f"cannot write {target}" in capsys.readouterr().err


def test_target_note_for_other_analyses(capsys):
    code, _, err = run(
        capsys, "check", "boundedness", path("m1"), "--target", "q0:(0)"
    )
    assert code == 0
    assert "note: --target is ignored" in err


def test_budget_note_for_cmrz(capsys):
    # cmrz is a syntactic check and uses no budget; only a given --budget gets the note
    note = "note: --budget is ignored by this analysis\n"
    plain = run(capsys, "check", "cmrz", path("m8"))
    flagged = run(capsys, "check", "cmrz", path("m8"), "--budget", "5")
    assert plain[0] == flagged[0] == 0 and note not in plain[2]
    assert flagged[2] == note + plain[2]
    elapsed = re.compile(r"^elapsed: .*$", re.M)
    assert elapsed.sub("", plain[1]) == elapsed.sub("", flagged[1])
    for argv in (("boundedness", path("m1")), ("x0-cover", path("m8"), "--target", "q2:(3)")):
        _, _, err = run(capsys, "check", *argv, "--budget", "5")
        assert note not in err


def test_assert_strict_monotone_note_for_other_analyses(capsys):
    # the flag changes nothing but stderr where it does not apply
    note = "note: --assert-strict-monotone applies to boundedness and termination only; ignored"
    elapsed = re.compile(r"^elapsed: .*$", re.M)
    for argv in (
        ("cmrz", path("m8")),
        ("x0-cover", path("m8"), "--target", "q2:(3)"),
        ("nonterm-iterable", path("m2"), "--init", "q2"),
    ):
        plain = run(capsys, "check", *argv)
        flagged = run(capsys, "check", *argv, "--assert-strict-monotone")
        assert plain[0] == flagged[0] and note not in plain[2]
        assert elapsed.sub("", plain[1]) == elapsed.sub("", flagged[1])
        assert flagged[2] == plain[2] + note + "\n"
        plain, flagged = (
            run_json(capsys, "check", *argv, *flag)[1] for flag in ((), ("--assert-strict-monotone",))
        )
        del plain["elapsed_ms"], flagged["elapsed_ms"]
        assert plain == flagged
    for analysis in ("boundedness", "termination"):
        _, _, err = run(capsys, "check", analysis, path("m1"), "--assert-strict-monotone")
        assert note not in err


def test_dot_output(tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    code, _, _ = run(capsys, "check", "termination", path("m1"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph rrt {") and 'label="q0:(ε)"' in text

    other = tmp_path / "nope.dot"
    code, _, err = run(capsys, "check", "cmrz", path("m7"), "--dot", str(other))
    assert code == 0
    assert "applies to tree analyses only" in err
    assert not other.exists()


def test_product_stdout(capsys):
    code, out, _ = run(capsys, "product", path("m4"))
    assert code == 0
    assert out.splitlines()[0] == "# product of m4 with bounds: ch: (ab)"
    mf = parse_model(out, name="m4-product")
    assert len(mf.machine.states) == 6
    assert mf.machine.initial == "q0_s0_r0"


def test_product_to_file_and_reanalysis(tmp_path, capsys):
    target = tmp_path / "m4-product.model"
    code, out, _ = run(capsys, "product", path("m4"), "-o", str(target))
    assert code == 0
    assert f"wrote {target} (6 control states)" in out
    code, report, _ = run_json(capsys, "check", "termination", str(target))
    assert code == 0 and report["verdict"] == "terminating"
    code, report, _ = run_json(capsys, "check", "boundedness", str(target))
    assert code == 0 and report["verdict"] == "bounded"


def test_product_usage_errors(tmp_path):
    assert fails("product", path("m1")) == 1  # no bound clause
    assert fails("product", path("m7")) == 1  # counter model
    partial = tmp_path / "partial.model"
    partial.write_text(
        "kind fifo\nstates q0\nchannels c1 c2\nalphabet a b\n"
        "q0 -- c1!a --> q0\nbound c1: (a)\ninit q0\n"
    )
    assert fails("product", str(partial)) == 1  # c2 has no bound
    loaded = tmp_path / "loaded.model"
    loaded.write_text(
        "kind fifo\nstates q0\nchannels ch\nalphabet a\n"
        'q0 -- ch!a --> q0\nbound ch: (a)\ninit q0 ch:"a"\n'
    )
    assert fails("product", str(loaded)) == 1  # nonempty initial contents


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wstskit", "check", "termination", path("m2"), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "non-terminating"


def _readme_block(heading: str) -> list[str]:
    """The lines of the first fenced block after ``heading`` in README.md."""
    text = (MODELS.parent / "README.md").read_text(encoding="utf-8")
    after = text[text.index(heading):]
    start = after.index("```")
    body = after[after.index("\n", start) + 1:]
    return body[: body.index("```")].splitlines()


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(MODELS.parent)
    commands = [line for line in _readme_block("## Command line") if line.startswith("wstskit ")]
    assert commands
    for line in commands:
        argv = shlex.split(line)[1:]
        if "-o" in argv:
            i = argv.index("-o") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, line
        capsys.readouterr()


def test_readme_sample_output(monkeypatch, capsys):
    monkeypatch.chdir(MODELS.parent)
    code, out, _ = run(capsys, "check", "boundedness", "models/m1.model")
    assert code == 0

    def mask(lines):
        return [re.sub(r"^elapsed: .*", "elapsed: ...", line) for line in lines]

    assert mask(out.splitlines()) == mask(_readme_block("Sample output:"))


def _bench_tracing():
    """bench/tracing.py, loaded from its file: the tests only read bench/."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", MODELS.parent / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's tracer rebinds names in cli, olts and cover by attribute;
# a name the program stops importing (cli's downset_post looks unused) would
# otherwise go unnoticed until a traced benchmark run.
@pytest.mark.parametrize("argv, count", [
    (["check", "boundedness", path("m1"), "--json"], "orders.leq_calls"),
    (["check", "x0-cover", path("m8"), "--target", "q2:(3)", "--json"], "cover.rounds"),
    (["product", path("m4")], "fifo.product_states"),
], ids=["boundedness", "x0-cover", "product"])
def test_benchmark_tracer_finds_its_names(argv, count):
    tracing = _bench_tracing()
    with tracing.instrument(tracing.Tracer()) as tracer:
        code, _, err = tracing.call_main(argv)
    assert code == 0, err
    assert tracing.instance_counts(tracer)[count] > 0
