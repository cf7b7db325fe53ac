"""Command-line surface: subcommands, exit codes, file formats."""

import contextlib
import copy
import io
import json
import os
import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from helpers import (GEN_CONTRACT_FIELD_TEXTS, M0_SRC, MUTANT_SRC, RUNNING_SRC,
                     V2_HEADER, OracleError, argparse_oracle, bench_corpus, contract_m,
                     m_source)
from tracelet import cli
from tracelet.cli import (COMMANDS, EXIT_ERROR, EXIT_FUEL, EXIT_INADEQUATE,
                          EXIT_NOT_MEMBER, EXIT_OK, EXIT_OPEN_PROOF,
                          EXIT_PROOF_REJECTED, EXIT_VALIDATION_FAILED, CliError,
                          main, parse_args)
from tracelet.interp import FuelExhausted, RunError, run
from tracelet.lang import parse_program
from tracelet.logic import MemberBudgetExceeded, _Member, pretty_formula
from tracelet.traces import dump_trace, load_trace


@pytest.fixture
def work(tmp_path):
    (tmp_path / "running.tcp").write_text(RUNNING_SRC)
    (tmp_path / "m0.tcp").write_text(M0_SRC)
    (tmp_path / "mutant.tcp").write_text(MUTANT_SRC)
    return tmp_path


def gen_contract(work):
    out = work / "m.tcf"
    assert main(["gen-contract", "m", "--pre-base", "n == 0",
                 "--pre-step", "n > 0", "--result", "n",
                 "--step-inv", "n - 1", "-o", str(out)]) == EXIT_OK
    return out


class TestRun:
    def test_run_writes_trace(self, work, capsys):
        out = work / "m1.trace.json"
        code = main(["run", str(work / "running.tcp"), "--state", "x=0",
                     "-o", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data[0] == V2_HEADER
        assert data[1] == {"state": {"x": 0}}
        assert data[2] == {"event": {"kind": "callEv", "proc": "m", "arg": 1, "id": 0}}

    def test_skip_single_state(self, work, tmp_path, capsys):
        f = tmp_path / "skip.tcp"
        f.write_text("main { skip }")
        assert main(["run", str(f)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == [V2_HEADER, {"state": {}}]

    def test_fuel_exhaustion_exit_2(self, work, tmp_path, capsys):
        f = tmp_path / "loop.tcp"
        f.write_text("main { x; while (0 == 0) { skip } }")
        assert main(["run", str(f), "--fuel", "100"]) == EXIT_FUEL

    def test_fuel_env_override(self, work, tmp_path, monkeypatch, capsys):
        f = tmp_path / "loop.tcp"
        f.write_text("main { x; while (0 == 0) { skip } }")
        monkeypatch.setenv("TRACELET_FUEL", "50")
        assert main(["run", str(f)]) == EXIT_FUEL

    def test_fuel_env_not_an_integer_one_line_error(self, work, monkeypatch, capsys):
        monkeypatch.setenv("TRACELET_FUEL", "abc")
        assert main(["run", str(work / "running.tcp")]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: TRACELET_FUEL must be an integer\n"

    def test_parse_error_exit_1(self, work, tmp_path, capsys):
        f = tmp_path / "bad.tcp"
        f.write_text("main { x = }")
        assert main(["run", str(f)]) == EXIT_ERROR

    def test_deterministic_output(self, work, capsys):
        a, b = work / "a.json", work / "b.json"
        main(["run", str(work / "running.tcp"), "-o", str(a)])
        main(["run", str(work / "running.tcp"), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("length", [0, 1, 65535, 65536, 65537, 3 * 65536 + 7])
def test_write_keeps_every_byte(tmp_path, length):
    pattern = '{"state": {"x": 1}},\n[\u00e9\u4e2d]'
    text = (pattern * (length // len(pattern) + 1))[:length]
    path = tmp_path / "out.txt"
    cli._write(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("source", [m_source(60), "main { x; skip }"],
                         ids=["m60-several-slices", "empty-body"])
def test_run_file_equals_stdout_and_dump(tmp_path, capsys, source):
    program = tmp_path / "p.tcp"
    program.write_text(source)
    out = tmp_path / "p.trace.json"
    assert main(["run", str(program)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert main(["run", str(program), "-o", str(out)]) == EXIT_OK
    text = dump_trace(run(parse_program(source)))
    assert out.read_text() == stdout == text


def test_validate_trace_file_equals_dump(work, capsys):
    contract = gen_contract(work)
    traces = work / "traces"
    traces.mkdir()
    assert main(["validate", str(work / "running.tcp"), str(contract), "--proc", "m",
                 "--samples", "1", "--range", "7..7", "--no-proof",
                 "--trace-dir", str(traces)]) == EXIT_OK
    harness = parse_program(RUNNING_SRC.replace("x = m(1)", "x = m(7)"))
    assert (traces / "m_7.trace.json").read_text() == dump_trace(run(harness))


class TestAdequacy:
    def test_adequate_trace(self, work, capsys):
        out = work / "t.json"
        main(["run", str(work / "running.tcp"), "-o", str(out)])
        assert main(["adequacy", str(out)]) == EXIT_OK
        assert main(["adequacy", str(out), "--lenient"]) == EXIT_OK

    def test_inadequate_trace_exit_6(self, work, capsys):
        bad = work / "bad.trace.json"
        bad.write_text(json.dumps([
            {"state": {"x": 0}},
            {"event": {"kind": "pushEv", "proc": "m", "id": 0}},
            {"state": {"x": 0}},
        ]))
        assert main(["adequacy", str(bad)]) == EXIT_INADEQUATE
        out = json.loads(_json_out(capsys, ["adequacy", str(bad), "--json"]))
        assert out["adequate"] is False and out["clause"] == "4"


@pytest.mark.parametrize("kind", ["two-vars", "unflanked", "reused-id"])
def test_bench_mutations_of_a_v2_file_are_inadequate(tmp_path, capsys, monkeypatch, kind):
    corpus = bench_corpus(monkeypatch)
    sources = [RUNNING_SRC, corpus.rec_program(main_arg=10),
               corpus.while_program(random.Random(1), 6),
               corpus.random_program(random.Random(2), 3, 4)]
    for k, source in enumerate(sources):
        program, base = tmp_path / f"p{k}.tcp", tmp_path / f"p{k}.trace.json"
        program.write_text(source)
        assert main(["run", str(program), "-o", str(base)]) == EXIT_OK
        assert json.loads(base.read_text())[0] == V2_HEADER
        for seed in range(12):
            data = corpus.mutate_trace(json.loads(base.read_text()), random.Random(seed), kind)
            mutated = tmp_path / "mutated.trace.json"
            mutated.write_text(json.dumps(data, indent=1))
            capsys.readouterr()
            assert main(["adequacy", str(mutated)]) == EXIT_INADEQUATE, (k, seed)


@pytest.mark.parametrize("text", [
    '{"state": {"x": 0}}',                              # not a list
    '[{"state": {"x": 0}}, {"event": {"kind": "retEv"}}]',  # missing key
    '[{"state": {"x": "a"}}]',                          # non-integer value
    '[{"state": {}}, {"event": {"kind": "callEv", "proc": "m", "arg": 0, "id": [1]}},'
    ' {"state": {}}]',                                  # non-integer event field
    '[{"stat": {"x": 0}}]',                             # neither state nor event
    '[1, 2]',                                           # entries not objects
    'not json at all',
    '[]',                                               # empty trace
    pytest.param('[' * 100_000 + ']' * 100_000, id="nested-too-deep"),
    '[{"format": "tracelet-trace", "version": 3}, {"state": {}}]',   # unknown version
    '[{"format": "tracelet-trace", "version": 2}, {"state": {"x": 0}},'
    ' {"state": {}, "unset": "x"}]',                     # unset not a list of names
    '[{"format": "tracelet-trace", "version": 2}, {"state": {"x": 0}},'
    ' {"state": {}, "unset": [0]}]',                     # unset not a list of names
    '[{"format": "tracelet-trace", "version": 2}, {"state": {"x": 0}},'
    ' {"state": {}, "unset": ["y"]}]',                   # unset of an absent name
    '[{"format": "tracelet-trace", "version": 2}, {"state": {"x": 0}},'
    ' {"state": {"x": "a"}}]',                          # v2 non-integer value
    '[{"format": "tracelet-trace", "version": 2}]',     # v2 empty trace
])
def test_malformed_trace_one_line_error(work, capsys, text):
    bad = work / "bad.trace.json"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["adequacy", str(bad)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def nested(depth: int, inner: str, around: str) -> str:
    left, right = around.split("@")
    return left * depth + inner + right * depth


@pytest.mark.parametrize("argv, files, verdict", [
    (["run", "{dir}/p.tcp"], {"p.tcp": "main { x; x = %s }" % nested(3000, "1", "(@)")}, None),
    (["run", "{dir}/p.tcp"], {"p.tcp": "main { x; x = %s }" % "+".join(["1"] * 50_000)}, None),
    (["run", "{dir}/p.tcp"],
     {"p.tcp": "main { x; %s }" % nested(400, "x = 1", "if (x == 0) { @ }")}, None),
    (["check", "{dir}/t.json", "{dir}/c.tcf"],
     {"c.tcf": "contract c() := %s\n" % nested(3000, "[true]", "(@)")}, None),
    # the parser reads a chain in a loop, and membership descends it within
    # its raised recursion limit
    (["check", "{dir}/t.json", "{dir}/c.tcf"],
     {"c.tcf": "contract c() := %s\n" % " ** ".join(["[true]"] * 20_000)}, "member\n"),
    (["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
      "--result", nested(3000, "n", "(@)"), "--step-inv", "n - 1"], {}, None),
], ids=["parens", "long-sum", "nested-ifs", "deep-formula", "long-chop", "deep-predicate"])
def test_deep_nesting_one_line_error(tmp_path, capsys, argv, files, verdict):
    """Input that nests too deeply ends in one error line; input that
    does not nest, in its verdict."""
    (tmp_path / "t.json").write_text('[\n{"state": {}}\n]\n')
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main([a.format(dir=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    if verdict is not None:
        assert (code, out, err) == (EXIT_OK, verdict, "")
        return
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and "nests too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "{dir}/running.tcp", "-o", "{dir}/missing/t.json"],
    ["run", "{dir}/running.tcp", "-o", "{dir}"],
    ["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
     "--result", "n", "--step-inv", "n - 1", "-o", "{dir}/missing/m.tcf"],
    ["prove", "{dir}/running.tcp", "{dir}/m.tcf", "-o", "{dir}/missing/p.json"],
    ["validate", "{dir}/running.tcp", "{dir}/m.tcf", "--no-proof",
     "--samples", "1", "--range", "1..1", "--trace-dir", "{dir}/missing"],
    ["run", "{dir}/latin1.tcp"],
    ["adequacy", "{dir}/latin1.tcp"],
    ["prove", "{dir}/running.tcp", "{dir}/latin1.tcp"],
    ["run", "{dir}/nul\0.tcp"],
    ["run", "{dir}/running.tcp", "-o", "{dir}/nul\0.json"],
], ids=["run-o-missing-dir", "run-o-directory", "gen-contract-o", "prove-o",
        "validate-trace-dir", "run-not-utf8", "adequacy-not-utf8",
        "prove-contracts-not-utf8", "run-nul-in-path", "run-o-nul-in-path"])
def test_file_error_one_line(work, capsys, argv):
    gen_contract(work)
    (work / "latin1.tcp").write_bytes("main { x; x = 1 } // caf\xe9".encode("latin-1"))
    capsys.readouterr()
    assert main([a.format(dir=work) for a in argv]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "prove", "validate"])
def test_ill_formed_program_one_line_error(work, capsys, command):
    contract = gen_contract(work)
    bad = work / "ill.tcp"
    bad.write_text("main { x; x = 1 < 2; y = 3 }")
    argv = {"run": ["run", str(bad)],
            "prove": ["prove", str(bad), str(contract), "--proc", "m"],
            "validate": ["validate", str(bad), str(contract), "--proc", "m",
                         "--no-proof"]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    # the first fault, at its line and column; the undeclared y comes after it
    assert capsys.readouterr().err == "error: 1:15: comparison in integer position: 1 < 2\n"


# One program per fault kind, with its error line; main calls m(1)
_FAULTS = {
    "undeclared-read": ("m(k) { r; r = y; return r }", "1:15: variable 'y' not in scope"),
    "undeclared-target": ("m(k) { r; y = k; return r }", "1:11: assignment to undeclared 'y'"),
    "param-write": ("m(k) { r; k = 2; return r }",
                    "1:11: procedure writes non-local variable 'k'"),
    "global-write": ("m(k) { r; x = k; return r }", "1:11: assignment to undeclared 'x'"),
    "unknown-callee": ("m(k) { r;\n  r = q(k); return r }", "2:7: call to unknown 'q'"),
    "non-boolean-condition": ("m(k) { r; if (r + 1) { r = 2 }; return r }",
                              "1:15: arithmetic where condition expected: r + 1"),
    "comparison-as-integer": ("m(k) { r; r = 1 + (k < 2); return r }",
                              "1:19: comparison in integer position: k < 2"),
}


def _fault_argv(work, command, program):
    contract = gen_contract(work)
    proof = work / "m.proof.json"
    assert main(["prove", str(work / "running.tcp"), str(contract), "--proc", "m",
                 "-o", str(proof)]) == EXIT_OK
    return {"run": ["run", program],
            "prove": ["prove", program, str(contract), "--proc", "m"],
            "check-proof": ["check-proof", str(proof), "--program", program,
                            "--contracts", str(contract)],
            "validate": ["validate", program, str(contract), "--proc", "m",
                         "--proof", str(proof)]}[command]


@pytest.mark.parametrize("kind, command", [(kind, "run") for kind in _FAULTS] + [
    ("undeclared-read", "prove"), ("param-write", "check-proof"),
    ("unknown-callee", "validate")])
def test_program_fault_at_its_position(work, capsys, kind, command):
    """Each kind of ill-formed program ends in one error line at the fault's
    line and column, and exit 1, whichever command reads it."""
    source, message = _FAULTS[kind]
    bad = work / "ill.tcp"
    bad.write_text(source + "\nmain { x; x = m(1) }")
    argv = _fault_argv(work, command, str(bad))
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("source", [
    "m(k) { r; if (k > 0) { r = m(k - 1) }; return r }\nmain { x; x = m(2) }",
    "f(n) { r; r = g(n); return r }\ng(n) { return n }\nmain { x; x = f(2) }",
], ids=["recursive", "forward"])
def test_recursive_and_forward_calls_parse(work, capsys, source):
    f = work / "calls.tcp"
    f.write_text(source)
    assert main(["run", str(f)]) == EXIT_OK


@pytest.mark.parametrize("argv, message", [
    (["prove", "{dir}/running.tcp", "{dir}/m.tcf", "--proc", "q"],
     "contract file has no 'spec q { ... }' block; proving and validation need the "
     "template fields"),
    (["check", "{dir}/t.json", "{dir}/m.tcf", "--contract", "nope"],
     "no contract named 'nope' in {dir}/m.tcf"),
    (["validate", "{dir}/running.tcp", "{dir}/m.tcf", "--no-proof", "--range", "a..b"],
     "--range expects lo..hi"),
    (["check", "{dir}/t.json", "{dir}/c.tcf", "--contract", "c", "--bind", "n=1"],
     "variable 'q' is unbound"),
    (["check", "{dir}/t.json", "{dir}/m.tcf", "--contract", "m", "--bind", "n"],
     "binding 'n' is not name=value"),
    (["check", "{dir}/t.json", "{dir}/m.tcf", "--contract", "m", "--bind", "n=x"],
     "binding 'n=x': value must be an integer"),
], ids=["prove-no-spec", "check-no-contract", "validate-bad-range", "check-unbound",
        "check-bind-no-value", "check-bind-not-integer"])
def test_input_error_names_it(work, capsys, argv, message):
    gen_contract(work)
    (work / "t.json").write_text('[{"state": {}}]')
    (work / "c.tcf").write_text("contract c(n) := (mu X(a). [a == 0] ** psi())(q)\n")
    capsys.readouterr()
    assert main([a.format(dir=work) for a in argv]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message.replace('{dir}', str(work))}\n"


_SPEC_M = "spec m { base: [n == 0]; step: [n > 0]; inv: n - 1; result: n }\n"
# The layout gen-contract wrote before a spec block became the one source
# of m and m_big_step: the spec, then both contracts written out again.
_WRITTEN_M = ("contract m(n, i) :=\n  mu X_m(n, i). ([n == 0] ** startEv(m, n, i) ~m~ "
              "finishEv(m, n, i) ** [res(i) == n] \\/ [n > 0] ** startEv(m, n, i) ~m~ "
              "X_m(n - 1, fresh(i)) ~m~ finishEv(m, n, i) ** [res(i) == n])\n")
_WRITTEN_BIG_STEP = "contract m_big_step(n, i) :=\n  [n == 0 || n > 0] ~~ [res(i) == n]\n"
_TWICE = {
    "generated-before": (_SPEC_M + "\n" + _WRITTEN_M + "\n" + _WRITTEN_BIG_STEP,
                         "3:10: duplicate contract name 'm': also defined by spec m; delete "
                         "the written contract or regenerate the file with gen-contract"),
    "edited": (_SPEC_M + "\n" + _WRITTEN_M.replace("res(i) == n])", "res(i) == n + 7])"),
               "3:10: duplicate contract name 'm': also defined by spec m; delete "
               "the written contract or regenerate the file with gen-contract"),
    "written-first": (_WRITTEN_BIG_STEP + _SPEC_M,
                      "3:6: duplicate contract name 'm_big_step': also defined by contract "
                      "m_big_step; delete the written contract or regenerate the file with "
                      "gen-contract"),
    "contract-twice": ("contract a() := [true]\ncontract a() := [false]\n",
                       "2:10: duplicate contract name 'a': also defined by contract a"),
    "spec-twice": (_SPEC_M + _SPEC_M.replace("result: n", "result: n + 1"),
                   "2:6: duplicate contract name 'm': also defined by spec m"),
}


@pytest.mark.parametrize("kind, command", [
    ("edited", "prove"), ("edited", "check-proof"), ("edited", "validate"),
    ("edited", "check"), ("generated-before", "prove"), ("written-first", "check"),
    ("contract-twice", "check"), ("spec-twice", "check-proof")])
def test_name_defined_twice_one_line_error(work, capsys, kind, command):
    """A name that a contract file defines twice, by a spec block and a
    written contract, by two contracts or by two specs, is refused at its
    second definition, whichever command reads the file."""
    text, message = _TWICE[kind]
    program, contract, proof = str(work / "running.tcp"), work / "c.tcf", work / "m.proof.json"
    assert main(["prove", program, str(gen_contract(work)), "--proc", "m",
                 "-o", str(proof)]) == EXIT_OK
    assert main(["run", program, "-o", str(work / "t.json")]) == EXIT_OK
    contract.write_text(text)
    argv = {"prove": ["prove", program, str(contract), "--proc", "m"],
            "check-proof": ["check-proof", str(proof), "--program", program,
                            "--contracts", str(contract)],
            "validate": ["validate", program, str(contract), "--proc", "m", "--no-proof"],
            "check": ["check", str(work / "t.json"), str(contract), "--contract",
                      "m_big_step", "--bind", "n=1", "--bind", "i=0"]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("literal", ["²", "9" * 4301], ids=["superscript-digit", "4301-digits"])
@pytest.mark.parametrize("kind", ["tcp", "tcf"])
def test_bad_integer_literal_one_line_error(work, capsys, kind, literal):
    """A digit int() rejects, and a literal past Python's digit limit: a
    parse error at the literal, not a traceback."""
    contract = gen_contract(work)
    bad = work / f"bad.{kind}"
    if kind == "tcp":
        bad.write_text(f"main {{ x;\n x = -{literal} }}")
        argv = ["run", str(bad)]
    else:
        bad.write_text(contract.read_text().replace("[n == 0]", f"[n ==\n -{literal}]"))
        argv = ["prove", str(work / "running.tcp"), str(bad), "--proc", "m"]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("2:7: " if kind == "tcp" else "2:3: ") in err  # the literal's line and column


_SQUARINGS = "x = 10" + "; x = x * x" * 13   # 10^8192: past the 4300-digit limit


@pytest.mark.parametrize("command", ["run", "run-o", "validate", "validate-later-sample"])
def test_unwritable_integer_one_line_error(work, capsys, command):
    """A state value with more digits than Python prints: every writer of
    a trace file reports it in one line and writes no file for it.
    validate writes each sample's trace as it goes, so the traces of the
    samples before it stay."""
    out = work / "out"
    if command.startswith("validate"):
        program = work / "square.tcp"
        program.write_text("m(k) { x; x = 10; if (k > 0) { %s }; return k }\nmain { skip }"
                           % _SQUARINGS.split("; ", 1)[1])
        argv = ["validate", str(program), str(gen_contract(work)), "--proc", "m",
                "--samples", "2", "--range", "1..1" if command == "validate" else "0..1",
                "--no-proof", "--trace-dir", str(work)]
    else:
        program = work / "square.tcp"
        program.write_text("main { x; %s }" % _SQUARINGS)
        argv = ["run", str(program)] + (["-o", str(out)] if command == "run-o" else [])
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write the trace: Exceeds the limit (4300 "
                                   "digits)") and captured.err.count("\n") == 1
    assert not out.exists()
    written = ["m_0.trace.json"] if command == "validate-later-sample" else []
    assert sorted(f.name for f in work.glob("*.trace.json")) == written
    for name in written:
        assert load_trace((work / name).read_text()).last().get("x") == 0  # main's x = m(0)


_EXIT_CODES = {EXIT_OK, EXIT_ERROR, EXIT_FUEL, EXIT_NOT_MEMBER, EXIT_OPEN_PROOF,
               EXIT_VALIDATION_FAILED, EXIT_INADEQUATE, EXIT_PROOF_REJECTED}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    program = work / "m3.tcp"
    program.write_text(m_source(3))
    trace = work / "m3.trace.json"
    assert main(["run", str(program), "-o", str(trace)]) == EXIT_OK
    return work, gen_contract(work), program.read_bytes(), trace.read_bytes()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(fuzz_inputs, data):
    """Byte edits of a trace or a program: a documented exit code, no
    traceback, and an error is one line."""
    work, contract, program, trace = fuzz_inputs
    command = data.draw(st.sampled_from(["adequacy", "check", "run"]))
    source = program if command == "run" else trace
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(source)))
        edit = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
        if edit == "truncate":
            source = source[:k]
        else:
            piece = data.draw(st.binary(min_size=1, max_size=3) |
                              st.sampled_from([b"{", b"}", b"[", b"]", b",", b'"', b"0", b"-"]))
            drop = 0 if edit == "insert" else len(piece) if edit == "replace" else 1
            source = source[:k] + (b"" if edit == "delete" else piece) + source[k + drop:]
    path = work / ("edited.tcp" if command == "run" else "edited.trace.json")
    path.write_bytes(source)
    argv = {"adequacy": ["adequacy", str(path)],
            "check": ["check", str(path), str(contract), "--contract", "m_big_step",
                      "--bind", "n=3", "--bind", "i=0"],
            "run": ["run", str(path), "--fuel", "2000"]}[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in _EXIT_CODES
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == EXIT_ERROR:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
            err.getvalue()


@pytest.mark.parametrize("argv", [
    ["run"],
    [],
    ["validate", "p", "c", "--samples", "abc"],
    ["prove", "p", "c", "--extensions"],
    ["check-proof", "f", "--program", "p", "--contracts", "c", "--extensions"],
    ["validate", "p", "c", "--no-proof", "--extensions"],
    ["bogus", "p"],
    ["run", "p", "q"],
    ["validate", "p", "c", "--pro", "x"],
    ["validate", "p", "c", "--no-proof", "--range", "-1..1"],
    ["prove", "p", "c", "--script", "s", "--repl"],
    ["gen-contract", "m"],
    ["prove", "p", "c", "--max-nodes=abc"],
    ["validate", "p", "c", "--proof", "f", "--no-proof"],
    ["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0", "--result", "n",
     "--step-inv", "n - 1", "--no-big-step"],
], ids=["missing-positional", "no-command", "bad-int", "removed-flag-prove",
        "removed-flag-check-proof", "removed-flag-validate", "unknown-command",
        "extra-positional", "ambiguous-prefix", "negative-range", "script-and-repl",
        "missing-required", "attached-bad-int", "proof-and-no-proof",
        "removed-flag-gen-contract"])
def test_usage_error_one_line_exit_1(capsys, argv):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_proof_and_no_proof_exclusive(capsys):
    # refused before any file is read
    assert main(["validate", "p", "c", "--no-proof", "--proof", "f"]) == EXIT_ERROR
    assert capsys.readouterr().err == ("error: tracelet validate: argument --proof: "
                                       "not allowed with argument --no-proof\n")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_closed_output_pipe_exit_1_without_traceback(work, capsys, monkeypatch, command):
    """A command whose stdout reader has gone stops with exit 1 and no
    traceback, and leaves nothing for the flush at exit to fail on."""
    contract, proof, trace = gen_contract(work), work / "m.proof.json", work / "m.json"
    program = str(work / "running.tcp")
    assert main(["prove", program, str(contract), "--proc", "m", "-o", str(proof)]) == EXIT_OK
    assert main(["run", program, "-o", str(trace)]) == EXIT_OK
    argv = {"run": ["run", program],
            "adequacy": ["adequacy", str(trace), "--json"],
            "check": ["check", str(trace), str(contract), "--contract", "m",
                      "--bind", "n=1", "--bind", "i=0", "--json"],
            "gen-contract": ["gen-contract", "m", "--pre-base", "n == 0", "--pre-step",
                             "n > 0", "--result", "n", "--step-inv", "n - 1"],
            "prove": ["prove", program, str(contract), "--proc", "m",
                      "-o", str(work / "again.proof.json")],
            "check-proof": ["check-proof", str(proof), "--program", program,
                            "--contracts", str(contract)],
            "validate": ["validate", program, str(contract), "--proc", "m",
                         "--proof", str(proof), "--samples", "2", "--json"]}[command]
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        stdout.write("more")
    # closing flushed what was left without a BrokenPipeError
    assert capsys.readouterr().err == ""


def _oracle_commands():
    """The argparse parser of each command, by name."""
    ap = argparse_oracle()
    return next(a for a in ap._actions if a.dest == "command").choices


def test_help_exits_0(capsys):
    assert main(["prove", "-h"]) == EXIT_OK
    assert "--max-nodes" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["-h"]] + [[name, "--help"] for name in COMMANDS],
                         ids=lambda argv: argv[0])
def test_help_lists_every_flag(capsys, argv):
    """-h returns 0 and prints every flag the command has, to stdout."""
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    parser = _oracle_commands()[argv[0]] if len(argv) == 2 else argparse_oracle()
    flags = {f for action in parser._actions for f in action.option_strings}
    assert flags <= set(out.replace(",", " ").split()) and err == ""


_VALUES = ["p", "c", "x", "3", "-3", "-1..1", "0..2", "abc", "", " 4", "-", "a b", "-x y",
           "x=1", "-1.5"]
_UNKNOWN = ["--nope", "--nope=1", "-z", "-zz", "--extensions"]


def _parse_outcome(parse, argv):
    """("ok", every dest and its value) or ("error", the text after "error: ")."""
    try:
        return "ok", vars(parse(list(argv)))
    except (CliError, OracleError) as e:
        return "error", str(e)


@st.composite
def _command_lines(draw):
    """An argv for one command: positionals (one too few or too many at
    times), options by full name, unique and ambiguous prefix, with
    attached values, repeats, unknown flags and one "--", in any order;
    never -h."""
    parsers = _oracle_commands()
    name = draw(st.sampled_from(sorted(parsers) * 3 + ["bogus"]))
    actions = [a for a in parsers.get(name, parsers["run"])._actions if a.dest != "help"]
    takes_value = {f: a.nargs != 0 for a in actions for f in a.option_strings}
    longs = [f for f in takes_value if f.startswith("--")]
    prefixes = sorted({f[:k] for f in longs for k in range(3, len(f))})
    forms = {"full": sorted(takes_value), "attached": sorted(takes_value),
             "unique": [p for p in prefixes if sum(f.startswith(p) for f in longs) == 1],
             "ambiguous": [p for p in prefixes if sum(f.startswith(p) for f in longs) > 1]}
    value = st.just("3") | st.sampled_from(_VALUES)   # "3" suits every option
    wanted = sum(not a.option_strings for a in actions) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    chunks = [[draw(value)] for _ in range(max(0, wanted))]
    if draw(st.booleans()):   # the required options
        chunks += [[f, draw(value)] for a in actions if a.required and a.option_strings
                   for f in a.option_strings]
    for _ in range(draw(st.integers(0, 4))):
        form = draw(st.sampled_from(["full"] * 3 + ["unique", "attached"] * 2
                                    + ["ambiguous", "unknown"]))
        if form == "unknown" or not forms[form]:
            chunks.append([draw(st.sampled_from(_UNKNOWN))])
            continue
        flag = draw(st.sampled_from(forms[form]))
        full = next(f for f in sorted(takes_value) if f.startswith(flag))
        if form == "attached":
            chunks.append([flag + ("=" if flag.startswith("--") else "") + draw(value)])
        elif takes_value[full] == draw(st.sampled_from([True, True, True, True, False])):
            chunks.append([flag, draw(value)])
        else:
            chunks.append([flag])
    if name == "prove" and not draw(st.integers(0, 3)):
        chunks += [["--script", "s"], ["--repl"]]
    chunks = draw(st.permutations(chunks))
    argv = [name] + [token for chunk in chunks for token in chunk]
    if not draw(st.integers(0, 3)):
        argv.insert(len(argv) - draw(st.integers(0, len(argv))), "--")
    if not draw(st.integers(0, 7)):   # an option before the command
        argv.insert(0, draw(st.sampled_from(_UNKNOWN)))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=_command_lines())
def test_parser_agrees_with_argparse(argv):
    """The command-table parser accepts what argparse accepted, with the
    same value for every dest, and rejects the rest with argparse's
    message.  ("--" as an option's value, or a second "--", argparse
    turns into an empty list; such lines are not drawn.)"""
    mine = _parse_outcome(parse_args, argv)
    event(f"{argv[0]} {mine[0]}")
    assert mine == _parse_outcome(argparse_oracle().parse_args, argv), argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory with one valid file of each kind the commands read."""
    work = tmp_path_factory.mktemp("cli-fuzz")
    (work / "m3.tcp").write_text(m_source(3))
    gen_contract(work)
    files = {"program": work / "m3.tcp", "contracts": work / "m.tcf",
             "trace": work / "m3.trace.json", "proof": work / "m.proof.json",
             "script": work / "m.tps"}
    assert main(["run", str(files["program"]), "-o", str(files["trace"])]) == EXIT_OK
    assert main(["prove", str(files["program"]), str(files["contracts"]),
                 "-o", str(files["proof"])]) == EXIT_OK
    files["script"].write_text("ProcedureContract @ 0\nAssign @ 0\n")
    files["traces"], files["missing"] = work / "traces", work / "missing"
    files["traces"].mkdir()
    (work / "cwd").mkdir()   # where prove without -o writes, apart from the inputs
    return work, {k: str(v) for k, v in files.items()}


_SMALL_INTS = st.integers(-2, 4).map(str)
_GARBAGE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                   max_size=6)


def _fuzz_flags(files, out):
    """Per command: its leading arguments (a kind of file, or a literal)
    and its flags, each with the strategy of its value (None for a
    switch)."""
    pred = st.sampled_from(GEN_CONTRACT_FIELD_TEXTS)
    ranges = st.sampled_from(["0..2", "1..3", "2..1", "0..", "a..b", "-1..1"])
    return {
        "run": (["program"], {"--state": st.sampled_from(["x=1", "x", "y=2", "x=a"]),
                              "--fuel": _SMALL_INTS | st.just("300"), "-o": out}),
        "adequacy": (["trace"], {"--lenient": None, "--json": None}),
        "check": (["trace", "contracts", "--contract", "m_big_step", "--bind", "i=0"],
                  {"--contract": st.sampled_from(["m", "m_big_step", "nope"]),
                   "--bind": st.sampled_from(["n=3", "i=0", "n=x", "n"]), "--json": None}),
        "gen-contract": (["m"], {"--pre-base": pred, "--pre-step": pred,
                                 "--result": pred, "--step-inv": pred, "-o": out}),
        "prove": (["program", "contracts"],
                  {"--proc": st.sampled_from(["m", "q"]), "--script": st.just(files["script"]),
                   "--repl": None, "--max-nodes": _SMALL_INTS | st.just("600"), "-o": out}),
        "check-proof": (["proof", "--program", "program", "--contracts", "contracts"],
                        {"--program": st.just(files["program"]),
                         "--contracts": st.just(files["contracts"])}),
        "validate": (["program", "contracts"],
                     {"--proc": st.sampled_from(["m", "q"]), "--samples": _SMALL_INTS,
                      "--seed": _SMALL_INTS, "--range": ranges,
                      "--proof": st.just(files["proof"]), "--no-proof": None,
                      "--fuel": _SMALL_INTS | st.just("2000"), "--json": None,
                      "--trace-dir": st.sampled_from([files["traces"], files["missing"]])}),
    }


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_fuzz_exits_cleanly(cli_files, data):
    """Random argument lists over valid files, garbage and small integers:
    a documented exit code, no traceback, at most one line on stderr."""
    work, files = cli_files
    flags = _fuzz_flags(files, st.just(str(work / "out.txt")))
    command = data.draw(st.sampled_from(sorted(flags)))
    positionals, options = flags[command]
    token = st.sampled_from(sorted(files.values())) | _GARBAGE | _SMALL_INTS
    argv = [command]
    for kind in positionals:
        if kind not in files:
            argv.append(kind)
        elif data.draw(st.integers(0, 4)):
            argv.append(files[kind])
        else:
            argv.append(data.draw(token))
    if command == "validate":
        argv += ["--range", "0..2"]   # later draws may override; keeps runs short
    for _ in range(data.draw(st.integers(0, 5))):
        choice = data.draw(st.sampled_from(sorted(options) + ["<token>"]))
        if choice == "<token>":
            argv.append(data.draw(token))
            continue
        argv.append(choice)
        if options[choice] is not None and data.draw(st.integers(0, 5)):
            argv.append(data.draw(options[choice]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            contextlib.chdir(work / "cwd"), mock.patch("builtins.input", side_effect=EOFError):
        code = main(argv)
    event(f"{command} exit {code}")
    printed = out.getvalue() + err.getvalue()
    assert code in _EXIT_CODES, argv
    assert "Traceback" not in printed, argv
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())


def _json_out(capsys, argv):
    capsys.readouterr()
    main(argv)
    return capsys.readouterr().out


class TestCheck:
    def test_member_and_not(self, work, capsys):
        contract = gen_contract(work)
        trace = work / "m1.trace.json"
        main(["run", str(work / "running.tcp"), "-o", str(trace)])
        # full trace has the trailing main assignment, so strip it first
        data = json.loads(trace.read_text())
        core = work / "core.trace.json"
        core.write_text(json.dumps(data[:-1]))
        assert main(["check", str(core), str(contract), "--contract", "m",
                     "--bind", "n=1", "--bind", "i=0"]) == EXIT_OK
        assert main(["check", str(core), str(contract), "--contract", "m",
                     "--bind", "n=2", "--bind", "i=0"]) == EXIT_NOT_MEMBER
        err = capsys.readouterr().out
        assert "chain element" in err or "not a member" in err

    @staticmethod
    def m7_check(work, v, core=False):
        """argv checking m(v)'s trace, or its core without the final
        assignment, against m(n, i) ** [x == 7]."""
        trace = work / f"m{v}.trace.json"
        (work / f"m{v}.tcp").write_text(RUNNING_SRC.replace("x = m(1)", f"x = m({v})"))
        assert main(["run", str(work / f"m{v}.tcp"), "-o", str(trace)]) == EXIT_OK
        if core:
            trace.write_text(json.dumps(json.loads(trace.read_text())[:-1]))
        formula = work / "m7.tcf"
        formula.write_text(f"contract m7(n, i) := "
                           f"({pretty_formula(contract_m())})(n, i) ** [x == 7]\n")
        return ["check", str(trace), str(formula), "--bind", f"n={v}", "--bind", "i=0"]

    def test_explanation_within_budget(self, work, capsys, monkeypatch):
        # the contract, whose last element has width 1, is only asked on
        # [0, n); on the full trace it fails there, so element #1 is blamed
        argv = self.m7_check(work, 50)
        monkeypatch.setattr("tracelet.logic.MEMBER_BUDGET", 5000)
        capsys.readouterr()
        assert main(argv) == EXIT_NOT_MEMBER
        assert capsys.readouterr().out.startswith(
            "not a member: no match for chain element #1: (mu X_m(n, i).")

    def test_explanation_core_trace(self, work, capsys):
        argv = self.m7_check(work, 50, core=True)
        n = len(json.loads(open(argv[1]).read())) - 1  # the header is no entry
        capsys.readouterr()
        assert main(argv) == EXIT_NOT_MEMBER
        assert capsys.readouterr().out == ("not a member: no match for chain element "
                                           f"#2: [x == 7] (#1..#1 match entries 0..{n - 1})\n")

    def test_explanation_of_deep_trace(self, work, capsys):
        argv = self.m7_check(work, 100)
        capsys.readouterr()
        assert main(argv) == EXIT_NOT_MEMBER
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 and "Traceback" not in out + err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_explanation_costs_no_budget(self, work, capsys, monkeypatch, flags):
        argv = self.m7_check(work, 80)
        monkeypatch.setattr("tracelet.logic.MEMBER_BUDGET", 50)
        assert main(argv + flags) == EXIT_NOT_MEMBER

    def test_one_membership_engine(self, work, capsys, monkeypatch):
        made, init = [], _Member.__init__

        def counted(self, trace):
            made.append(trace)
            init(self, trace)

        argv = self.m7_check(work, 5, core=True)
        monkeypatch.setattr(_Member, "__init__", counted)
        assert main(argv) == EXIT_NOT_MEMBER
        assert len(made) == 1

    @pytest.mark.parametrize("formula, states, reason", [
        ("[x == 0] .. [x == 1] .. [x == 5]", [0, 1, 2],
         "no match for chain element #3: [x == 5] (#1..#2 match entries 0..1)"),
        ("[x == 0] .. [x == 1] .. [x == 5]", [0, 1],
         "the trace has 2 entries; the formula matches traces of exactly 3 entries"),
        ("[x == 0] ** psi() ** [x == 9] ** psi()", [0, 1, 2, 3],
         "no match for chain element #3: [x == 9] (#1..#2 match entries 0..3)"),
    ], ids=["concat-chain", "width", "furthest-prefix"])
    def test_explanation_of_chain(self, tmp_path, capsys, formula, states, reason):
        t = tmp_path / "t.json"
        t.write_text(json.dumps([{"state": {"x": x}} for x in states]))
        f = tmp_path / "f.tcf"
        f.write_text(formula)
        assert main(["check", str(t), str(f)]) == EXIT_NOT_MEMBER
        assert capsys.readouterr().out == f"not a member: {reason}\n"

    @pytest.mark.parametrize("event, entries", [("startEv", "0..5"), ("finishEv", "0..17")])
    def test_unbound_event_argument_matches_no_event(self, work, capsys, event, entries):
        # q is given by no --bind: the event element matches nowhere
        trace = work / "m1.trace.json"
        assert main(["run", str(work / "running.tcp"), "--state", "x=0",
                     "-o", str(trace)]) == EXIT_OK
        f = work / "ev.tcf"
        f.write_text(f"contract c(i) := psi() ** {event}(m, q, i) ** psi()\n")
        capsys.readouterr()
        assert main(["check", str(trace), str(f), "--bind", "i=0"]) == EXIT_NOT_MEMBER
        assert capsys.readouterr().out == ("not a member: no match for chain element #2: "
                                           f"{event}(m, q, i) (#1..#1 match entries {entries})\n")

    def test_spec_only_file_defines_two_contracts(self, work, capsys):
        """spec m defines m and m_big_step, so check needs --contract."""
        t = work / "s.json"
        t.write_text(json.dumps([{"state": {"x": 0}}]))
        f = work / "spec.tcf"
        f.write_text(_SPEC_M)
        assert main(["check", str(t), str(f)]) == EXIT_ERROR
        assert capsys.readouterr().err == ("error: multiple contracts in file; "
                                           "pick one with --contract\n")
        assert main(["check", str(t), str(f), "--contract", "m_big_step",
                     "--bind", "n=0", "--bind", "i=0"]) == EXIT_NOT_MEMBER

    def test_singleton_true(self, work, tmp_path, capsys):
        t = tmp_path / "s.json"
        t.write_text(json.dumps([{"state": {"x": 0}}]))
        f = tmp_path / "f.tcf"
        f.write_text("[true]")
        assert main(["check", str(t), str(f)]) == EXIT_OK

    def test_missing_binding(self, work, capsys):
        contract = gen_contract(work)
        t = work / "s.json"
        t.write_text(json.dumps([{"state": {"x": 0}}]))
        assert main(["check", str(t), str(contract), "--contract", "m"]) == EXIT_ERROR


class TestProve:
    def test_auto_closes_and_checks(self, work, capsys):
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        assert main(["prove", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "-o", str(proof)]) == EXIT_OK
        doc = json.loads(proof.read_text())
        assert doc["closed"] is True and doc["proc"] == "m"
        assert main(["check-proof", str(proof), "--program", str(work / "running.tcp"),
                     "--contracts", str(contract)]) == EXIT_OK

    def test_mutant_program_open_exit_4(self, work, capsys):
        contract = gen_contract(work)
        proof = work / "bad.proof.json"
        assert main(["prove", str(work / "mutant.tcp"), str(contract),
                     "--proc", "m", "-o", str(proof)]) == EXIT_OPEN_PROOF
        out = capsys.readouterr().out
        assert "open" in out

    def test_tampered_proof_rejected_exit_7(self, work, capsys):
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        main(["prove", str(work / "running.tcp"), str(contract),
              "--proc", "m", "-o", str(proof)])
        doc = json.loads(proof.read_text())
        node = doc["root"]["children"][0]
        node["children"] = node["children"][:-1] if len(node["children"]) > 1 \
            else []
        tampered = work / "tampered.proof.json"
        tampered.write_text(json.dumps(doc))
        assert main(["check-proof", str(tampered),
                     "--program", str(work / "running.tcp"),
                     "--contracts", str(contract)]) == EXIT_PROOF_REJECTED

    @pytest.mark.parametrize("rule", ["PrefixEv", "Composition", "AndSplit", "ElimUpdate1",
                                      "ApplyEqRigid", "FiniteTraceEmptyPrefix",
                                      "FiniteTraceEmptyPostfix"])
    def test_deleted_rule_rejected_exit_7(self, work, capsys, rule):
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        main(["prove", str(work / "running.tcp"), str(contract),
              "--proc", "m", "-o", str(proof)])
        doc = json.loads(proof.read_text())
        doc["root"]["children"][0]["rule"] = rule
        edited = work / "edited.proof.json"
        edited.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check-proof", str(edited), "--program", str(work / "running.tcp"),
                     "--contracts", str(contract)]) == EXIT_PROOF_REJECTED
        assert f"unknown rule '{rule}'" in capsys.readouterr().out

    @pytest.mark.parametrize("rule, key", [("SubsumeUpdates", "keep"), ("TrAbs", "call"),
                                           ("TrAbs", "occ"), ("DropResUpdate", "at")])
    def test_null_index_argument_rejected_exit_7(self, work, capsys, rule, key):
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        main(["prove", str(work / "running.tcp"), str(contract),
              "--proc", "m", "-o", str(proof)])
        doc = json.loads(proof.read_text())
        stack = [doc["root"]]
        while stack[-1]["rule"] != rule:
            stack.extend(stack.pop()["children"])
        stack[-1]["args"][key] = None
        proof.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check-proof", str(proof), "--program", str(work / "running.tcp"),
                     "--contracts", str(contract)]) == EXIT_PROOF_REJECTED
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        assert out.endswith(f": {rule}: {key}= must be an integer\n")

    @pytest.mark.parametrize("tamper, code", [(False, EXIT_OK), (True, EXIT_PROOF_REJECTED)],
                             ids=["intact", "tampered"])
    def test_indented_layout_replays(self, work, capsys, tamper, code):
        # the same document in the layout that earlier versions wrote
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        main(["prove", str(work / "running.tcp"), str(contract),
              "--proc", "m", "-o", str(proof)])
        doc = json.loads(proof.read_text())
        if tamper:
            doc["root"]["children"][0]["children"] = []
        proof.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        assert main(["check-proof", str(proof), "--program", str(work / "running.tcp"),
                     "--contracts", str(contract)]) == code

    @pytest.mark.parametrize("proc,goal", [
        ("m", {"kind": "pred", "pred": "1 == 1"}),   # proves the wrong goal
        ("q", {"kind": "pred", "pred": "1 == 1"}),   # names no spec block
    ])
    def test_proof_of_another_goal_rejected_exit_7(self, work, capsys, proc, goal):
        contract = gen_contract(work)
        fake = work / "fake.proof.json"
        fake.write_text(json.dumps({
            "format": "tracelet-proof", "version": 1, "proc": proc, "closed": True,
            "root": {"sequent": {"gamma": [], "goal": goal},
                     "rule": "Close", "args": {}, "children": []}}))
        program = str(work / "running.tcp")
        assert main(["check-proof", str(fake), "--program", program,
                     "--contracts", str(contract)]) == EXIT_PROOF_REJECTED
        assert main(["validate", program, str(contract), "--proc", "m",
                     "--samples", "1", "--range", "0..0",
                     "--proof", str(fake)]) == EXIT_PROOF_REJECTED
        assert "proof rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        '{"format": "tracelet-proof", "proc": "m"}', '[]', 'not json',
        '{"format": "tracelet-proof", "proc": 1, "root": {}}',
        '{"format": "tracelet-proof", "proc": "m", "root": []}',
        *('{"format": "tracelet-proof", "proc": "m", "root": {"sequent": {}, %s}}' % node
          for node in ('"rule": 0, "args": {}, "children": []',
                       '"rule": null, "args": [], "children": []',
                       '"rule": null, "args": {}, "children": {}'))])
    def test_malformed_proof_one_line_error(self, work, capsys, text):
        contract = gen_contract(work)
        bad = work / "bad.proof.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["check-proof", str(bad), "--program", str(work / "running.tcp"),
                     "--contracts", str(contract)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load proof") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["prove", "validate", "check-proof"])
    def test_spec_of_undefined_procedure_one_line_error(self, work, capsys, command):
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        assert main(["prove", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "-o", str(proof)]) == EXIT_OK
        no_m = work / "no_m.tcp"
        no_m.write_text("q(k) { return k }\nmain { x; x = q(1) }")
        argv = {"prove": ["prove", str(no_m), str(contract), "--proc", "m",
                          "-o", str(work / "q.proof.json")],
                "validate": ["validate", str(no_m), str(contract), "--proc", "m",
                             "--no-proof"],
                "check-proof": ["check-proof", str(proof), "--program", str(no_m),
                                "--contracts", str(contract)]}[command]
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_script_mode(self, work, capsys):
        contract = gen_contract(work)
        script = work / "start.tps"
        script.write_text("ProcedureContract @ 0\nAssign @ 0\nVarDecl @ 0\n")
        proof = work / "partial.proof.json"
        assert main(["prove", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--script", str(script),
                     "-o", str(proof)]) == EXIT_OPEN_PROOF

    def test_script_error_one_line(self, work, capsys):
        contract = gen_contract(work)
        script = work / "bad.tps"
        script.write_text("ApplyUpdate @ 0 at=x\n")
        capsys.readouterr()
        assert main(["prove", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--script", str(script),
                     "-o", str(work / "bad.proof.json")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ApplyUpdate failed") and err.count("\n") == 1

    def test_while_unsupported(self, work, tmp_path, capsys):
        # m writes no parameter, so the program is well-formed and the
        # prover itself meets the loop
        f = tmp_path / "loopy.tcp"
        f.write_text("m(k) { r; j; j = k; while (j > 0) { r = r + 1; j = j - 1 }; return r }\n"
                     "main { skip }")
        contract = gen_contract(work)
        capsys.readouterr()
        assert main(["prove", str(f), str(contract), "--proc", "m",
                     "-o", str(tmp_path / "loopy.proof.json")]) == EXIT_ERROR
        assert capsys.readouterr().err == ("error: unsupported construct: no calculus rule "
                                           "covers while loops\n")

    def test_no_node_budget_leaves_the_goal_open(self, work, capsys):
        contract = gen_contract(work)
        proof = work / "none.proof.json"
        assert main(["prove", str(work / "running.tcp"), str(contract), "--proc", "m",
                     "--max-nodes", "0", "-o", str(proof)]) == EXIT_OPEN_PROOF
        assert "proof has 1 open goals" in capsys.readouterr().out
        assert json.loads(proof.read_text())["root"]["rule"] is None

    def test_two_spec_blocks_need_proc(self, work, capsys):
        program, contract = two_specs(work)
        capsys.readouterr()
        assert main(["prove", str(program), str(contract)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: pick a procedure with --proc\n"


def two_specs(work):
    """A program with procedures m and q, and a contract file with a spec
    block for each."""
    program = work / "two.tcp"
    program.write_text("q(k) { r; r = k; return r }\n" + RUNNING_SRC)
    contract = work / "two.tcf"
    contract.write_text("".join(
        f"spec {p} {{ base: [n == 0]; step: [n > 0]; inv: n - 1; result: n }}\n"
        for p in "mq"))
    return program, contract


@pytest.fixture(scope="module")
def proof_doc(tmp_path_factory):
    work = tmp_path_factory.mktemp("proof")
    (work / "running.tcp").write_text(RUNNING_SRC)
    contract = gen_contract(work)
    proof = work / "m.proof.json"
    assert main(["prove", str(work / "running.tcp"), str(contract),
                 "--proc", "m", "-o", str(proof)]) == EXIT_OK
    return work, json.loads(proof.read_text())


def _nodes(doc):
    out, stack = [], [doc["root"]]
    while stack:
        out.append(stack.pop())
        stack.extend(out[-1]["children"])
    return out


_JSON_VALUES = [None, False, 0, 1.5, "x", [], {}]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_proof_file_exits_1_or_7(proof_doc, data):
    """One structural edit to a valid proof file: a shape error (1) or a
    replay rejection (7), reported in one line."""
    work, doc = proof_doc
    doc = copy.deepcopy(doc)
    node = data.draw(st.sampled_from(_nodes(doc)))
    edit = data.draw(st.sampled_from(["drop", "retype", "rule", "sequent"]))
    if edit == "drop":
        container, key = data.draw(st.sampled_from(
            [(doc, k) for k in ("format", "proc", "root")] + [(node, k) for k in node]))
        del container[key]
    elif edit == "retype":
        # "fresh" records the rule's own choice of witnesses and is not read
        container, key = data.draw(st.sampled_from(
            [(doc, k) for k in ("format", "proc", "root")] + [(node, k) for k in node]
            + [(node["args"], k) for k in node["args"] if k != "fresh"]))
        old = container[key]
        container[key] = data.draw(st.sampled_from(
            [v for v in _JSON_VALUES if type(v) is not type(old)]))
    elif edit == "rule":
        node["rule"] = data.draw(st.sampled_from([None, 0, 1.5, True, [], {}]))
    else:
        seq = node["sequent"]
        slots = [(a, k) for a in seq["gamma"] for k in a] + \
            [(seq["goal"], k) for k, v in seq["goal"].items() if isinstance(v, str)]
        container, key = data.draw(st.sampled_from(slots))
        text = data.draw(st.text(max_size=12))
        container[key] = text if text != container[key] else text + "x"
    path = work / "edited.proof.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-proof", str(path), "--program", str(work / "running.tcp"),
                     "--contracts", str(work / "m.tcf")])
    printed = out.getvalue() + err.getvalue()
    assert code in (EXIT_ERROR, EXIT_PROOF_REJECTED), printed
    if edit == "sequent":
        assert code == EXIT_PROOF_REJECTED
    assert printed.count("\n") == 1 and "Traceback" not in printed


class TestValidate:
    def test_pass_with_proof(self, work, capsys):
        contract = gen_contract(work)
        proof = work / "m.proof.json"
        main(["prove", str(work / "running.tcp"), str(contract),
              "--proc", "m", "-o", str(proof)])
        capsys.readouterr()
        code = main(["validate", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--samples", "6", "--range", "0..5",
                     "--proof", str(proof), "--json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "pass"
        assert [s["n"] for s in report["samples"]] == [0, 1, 2, 3, 4, 5]

    def test_proof_of_another_procedure_rejected_exit_7(self, work, capsys):
        program, contract = two_specs(work)
        proof = work / "m.proof.json"
        assert main(["prove", str(program), str(contract), "--proc", "m",
                     "-o", str(proof)]) == EXIT_OK
        doc = json.loads(proof.read_text())
        doc["proc"] = "q"
        proof.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(program), str(contract), "--proc", "m",
                     "--proof", str(proof)]) == EXIT_PROOF_REJECTED
        assert capsys.readouterr().out == "proof rejected: the proof is for 'q', not 'm'\n"

    def test_mutant_fails_at_smallest_recursive_n(self, work, capsys):
        contract = gen_contract(work)
        capsys.readouterr()
        code = main(["validate", str(work / "mutant.tcp"), str(contract),
                     "--proc", "m", "--samples", "6", "--range", "0..5",
                     "--no-proof", "--json"])
        assert code == EXIT_VALIDATION_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "fail"
        assert report["counterexample"]["n"] == 1

    def test_vacuous_pass_when_pre_unsatisfiable(self, work, tmp_path, capsys):
        contract = tmp_path / "never.tcf"
        assert main(["gen-contract", "m", "--pre-base", "false",
                     "--pre-step", "false", "--result", "n",
                     "--step-inv", "n - 1", "-o", str(contract)]) == EXIT_OK
        capsys.readouterr()
        code = main(["validate", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--samples", "5", "--range", "0..5",
                     "--no-proof", "--json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == [] and report["note"]

    @pytest.mark.parametrize("flags", [["--range", "5..1"], ["--samples", "-1"]])
    def test_bad_arguments_one_line_error(self, work, capsys, flags):
        contract = gen_contract(work)
        capsys.readouterr()
        code = main(["validate", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--no-proof"] + flags)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,env", [
        (["run", "{dir}/running.tcp", "--fuel", "-5"], None),
        (["run", "{dir}/running.tcp"], "-5"),
        (["validate", "{dir}/running.tcp", "{dir}/m.tcf", "--no-proof",
          "--fuel", "-5"], None),
        (["prove", "{dir}/running.tcp", "{dir}/m.tcf", "--max-nodes", "-1",
          "-o", "{dir}/neg.proof.json"], None),
    ], ids=["run-fuel", "env-fuel", "validate-fuel", "prove-max-nodes"])
    def test_negative_budget_one_line_error(self, work, capsys, monkeypatch,
                                            argv, env):
        gen_contract(work)
        if env is not None:
            monkeypatch.setenv("TRACELET_FUEL", env)
        capsys.readouterr()
        assert main([a.format(dir=work) for a in argv]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (work / "neg.proof.json").exists()

    @pytest.mark.parametrize("name,error,verdict", [
        ("run", RunError("undefined variable"), "run-error"),
        ("member", MemberBudgetExceeded("budget"), "member-budget-exceeded"),
        ("run", FuelExhausted(None), "fuel-exhausted"),
    ], ids=["run", "member", "fuel"])
    def test_sample_error_is_its_verdict(self, work, capsys, monkeypatch,
                                         name, error, verdict):
        contract = gen_contract(work)

        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(f"tracelet.cli.{name}", fail)
        capsys.readouterr()
        code = main(["validate", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--samples", "2", "--range", "0..1",
                     "--no-proof", "--json"])
        assert code == EXIT_VALIDATION_FAILED
        report = json.loads(capsys.readouterr().out)
        assert [s["verdict"] for s in report["samples"]] == [verdict, verdict]
        assert report["overall"] == "fail"

    def test_member_budget_exceeded_is_its_verdict(self, work, capsys,
                                                   monkeypatch):
        contract = gen_contract(work)
        monkeypatch.setattr("tracelet.logic.MEMBER_BUDGET", 2)
        capsys.readouterr()
        code = main(["validate", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--samples", "1", "--range", "3..3",
                     "--no-proof", "--json"])
        assert code == EXIT_VALIDATION_FAILED
        report = json.loads(capsys.readouterr().out)
        assert [s["verdict"] for s in report["samples"]] == ["member-budget-exceeded"]

    @pytest.mark.parametrize("program,overall", [("running.tcp", "pass"),
                                                  ("mutant.tcp", "fail")])
    def test_member_work_linear_in_calls(self, work, capsys, monkeypatch,
                                         program, overall):
        # one fixed-point item per call of m(200) suffices; allow twice that
        contract = gen_contract(work)
        monkeypatch.setattr("tracelet.logic.MEMBER_BUDGET", 402)
        capsys.readouterr()
        main(["validate", str(work / program), str(contract), "--proc", "m",
              "--samples", "1", "--range", "200..200", "--no-proof", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == overall
        assert report["samples"][0]["verdict"] != "member-budget-exceeded"

    def test_reports_reproducible(self, work, capsys):
        contract = gen_contract(work)
        argv = ["validate", str(work / "running.tcp"), str(contract),
                "--proc", "m", "--samples", "3", "--range", "0..9",
                "--seed", "7", "--no-proof", "--json"]
        first = _json_out(capsys, argv)
        second = _json_out(capsys, argv)
        assert first == second


class TestGenContract:
    def test_output_parses_back(self, work, capsys):
        """The file is the spec line alone, which defines m and m_big_step."""
        contract = gen_contract(work)
        from tracelet.logic import parse_contract_file
        assert contract.read_text() == _SPEC_M
        cf = parse_contract_file(contract.read_text())
        assert set(cf.contracts) == {"m", "m_big_step"}
        assert set(cf.specs) == {"m"}
        assert cf.contracts["m"] == (("n", "i"), contract_m())

    def test_output_to_stdout_equals_the_file(self, work, capsys):
        contract = gen_contract(work)
        capsys.readouterr()
        assert main(["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
                     "--result", "n", "--step-inv", "n - 1"]) == EXIT_OK
        assert capsys.readouterr().out == contract.read_text()

    @pytest.mark.parametrize("field", ["--result", "--step-inv"])
    def test_res_in_a_term_one_line_error(self, work, capsys, field):
        out = work / "res.tcf"
        argv = ["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
                "--result", "n", "--step-inv", "n - 1", "-o", str(out)]
        argv[argv.index(field) + 1] = "res(0)"
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("field, text", [("--result", "true"), ("--step-inv", "n < 1"),
                                             ("--result", "!n"), ("--step-inv", "psi")])
    def test_malformed_term_one_line_error(self, work, capsys, field, text):
        # a term is arithmetic: the file would not read back
        out = work / "bad.tcf"
        argv = ["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
                "--result", "n", "--step-inv", "n - 1", "-o", str(out)]
        argv[argv.index(field) + 1] = text
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("field, text, message", [
        ("--result", "true", "1:1: 'true' not allowed here"),
        ("--step-inv", "n < 1", "1:1: expected an arithmetic term, found 'n < 1'"),
        ("--result", "n n", "1:3: trailing input"),
        ("--pre-step", "n >", "1:4: expected expression, found ''"),
        ("--pre-base", "k == 0", "1:1: spec field base may name only n, found 'k'"),
        ("--pre-step", "res(n) > j", "1:10: spec field step may name only n, found 'j'"),
        ("--result", "n + k", "1:5: spec field result may name only n, found 'k'"),
        ("--step-inv", "i - 1", "1:1: spec field inv may name only n, found 'i'")])
    def test_error_names_the_option_and_its_column(self, work, capsys, field, text, message):
        argv = ["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
                "--result", "n", "--step-inv", "n - 1"]
        argv[argv.index(field) + 1] = text
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {field}: {message}\n"

    def test_check_rejects_a_reserved_word_as_term(self, work, capsys):
        trace, contract = work / "t.json", work / "bad.tcf"
        trace.write_text('[\n{"state": {}}\n]\n')
        contract.write_text("contract c(i) := startEv(m, true, i)\n")
        capsys.readouterr()
        assert main(["check", str(trace), str(contract), "--bind", "i=0"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: 1:29: 'true' not allowed here\n"


@pytest.mark.parametrize("command, text, message", [
    ("check", "(mu X(a). [a == 0] ** X(1, 2))(0)",
     "1:23: arity mismatch for X: 2 args, expected 1"),
    ("check", "(mu X(a). [a == 0] ** X)(0)", "1:23: arity mismatch for X: 0 args, expected 1"),
    ("check", "(mu X(a). [a == 0])(0, 1)", "1:20: arity mismatch for X: 2 args, expected 1"),
    ("check", "[true] ** Y(1)", "1:11: unbound recursion variable Y"),
    ("check", "contract c(a) := mu X(a, b). [a == 0]",
     "1:18: fixed point X takes 2 parameters, the contract 1"),
    ("check", "mu X(a). [a == 0]", "1:1: fixed point X takes 1 parameters, the contract 0"),
    ("check", "contract c(i) := startEv(m, fresh(i), i)",
     "1:29: fresh(...) must be a whole argument of a recursion"),
    ("check", "contract c(i) := finishEv(m, 0, fresh(i))",
     "1:33: fresh(...) must be a whole argument of a recursion"),
    ("prove", "result: fresh(n)", "1:61: fresh(...) must be a whole argument of a recursion"),
    ("prove", "inv: fresh(n)", "1:46: fresh(...) must be a whole argument of a recursion"),
    ("prove", "base: [k == 0]", "1:17: spec field base may name only n, found 'k'"),
    ("prove", "step: [n > k]", "1:37: spec field step may name only n, found 'k'"),
    ("prove", "inv: n - i", "1:50: spec field inv may name only n, found 'i'"),
    ("prove", "result: k", "1:61: spec field result may name only n, found 'k'"),
], ids=["arity", "arity-bare", "arity-applied", "unbound", "contract-params",
        "formula-file-params", "fresh-start", "fresh-finish", "fresh-result", "fresh-inv",
        "name-base", "name-step", "name-inv", "name-result"])
def test_contract_fault_at_its_token(work, capsys, command, text, message):
    """A contract file the parser rejects: one error line with the line
    and column of the fault, and exit 1."""
    bad = work / "bad.tcf"
    if command == "check":
        bad.write_text(text)
        (work / "t.json").write_text('[\n{"state": {}}\n]\n')
        argv = ["check", str(work / "t.json"), str(bad), "--bind", "a=0", "--bind", "i=0"]
    else:
        field = text.split(":")[0]
        spec = gen_contract(work).read_text()
        bad.write_text(spec.replace({"base": "base: [n == 0]", "step": "step: [n > 0]",
                                     "result": "result: n", "inv": "inv: n - 1"}[field],
                                    text))
        argv = ["prove", str(work / "running.tcp"), str(bad), "--proc", "m"]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


class TestRepl:
    def test_repl_accepts_rule_commands(self, work, capsys, monkeypatch):
        contract = gen_contract(work)
        lines = iter(["goals", "ProcedureContract @ 0", "auto", "done"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        proof = work / "repl.proof.json"
        code = main(["prove", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--repl", "-o", str(proof)])
        assert code == EXIT_OK
        assert json.loads(proof.read_text())["closed"] is True

    @pytest.mark.parametrize("stdin,options,code,shown", [
        ("\ngoals\nshow 0\nshow x\nshow 5\nBogus @ 0\ndone\n", [], EXIT_OPEN_PROOF,
         ["  0:  |- C_m\n", "]>  |- C_m\n",
          "]> usage: show N\n[1 open]> error: goal index 5 out of range (1 open)\n",
          "error: line 1: Bogus failed: unknown rule 'Bogus'"]),
        ("show -1\nshow 1\n", [], EXIT_OPEN_PROOF,
         ["]> error: goal index -1 out of range (1 open)\n"
          "[1 open]> error: goal index 1 out of range (1 open)\n[1 open]> "]),
        ("auto\n", [], EXIT_OK, ["proof closed.\n"]),
        # auto searches within --max-nodes: with none, the goal stays open
        ("auto\n", ["--max-nodes", "0"], EXIT_OPEN_PROOF, ["]> [1 open]> proof has 1 open goals"]),
        ("", [], EXIT_OPEN_PROOF, []),
    ], ids=["commands", "show-out-of-range", "auto", "auto-max-nodes-0", "eof"])
    def test_repl_reads_stdin(self, work, capsys, monkeypatch, stdin, options, code, shown):
        contract = gen_contract(work)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        capsys.readouterr()
        assert main(["prove", str(work / "running.tcp"), str(contract), "--proc", "m",
                     "--repl", "-o", str(work / "repl.proof.json")] + options) == code
        out = capsys.readouterr().out
        for text in shown:
            assert text in out

    def test_repl_quit_leaves_open(self, work, capsys, monkeypatch):
        contract = gen_contract(work)
        lines = iter(["quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = main(["prove", str(work / "running.tcp"), str(contract),
                     "--proc", "m", "--repl", "-o", str(work / "open.proof.json")])
        assert code == EXIT_OPEN_PROOF
