"""Command-line surface: run, adequacy, check, gen-contract, prove,
check-proof, validate.

Exit codes are a total function of the verdict class:
  0 success / member / adequate / closed proof / validation pass
  1 usage or input error
  2 fuel exhausted
  3 trace is not a member
  4 proof has open goals
  5 validation failed
  6 trace inadequate
  7 proof rejected by the checker
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional

from .calculus import ContractAssumption, RuleContext, contract_goal
from .interp import DEFAULT_FUEL, FuelExhausted, RunError, initial_state, run
from .lang import (Binary, CallAssign, IntLit, ParseError, Program, ResVar,
                   TokenStream, Var, parse_program, record, tokenize)
from .logic import (Chop, ContractSpec, LogicError, MemberBudgetExceeded,
                    MuApp, StatePred, applied, contract_file_text, member,
                    parse_contract_file, parse_spec_field)
from .proofs import (ProofFileError, check_proof, dump_proof, load_proof,
                     node_count)
from .prover import (MAX_NODES, ProofNode, ScriptError, UnsupportedConstruct,
                     apply_script, prove_auto, run_script)
from .traces import (State, Trace, TraceError, dump_trace, eval_expr,
                     is_adequate, load_trace)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FUEL = 2
EXIT_NOT_MEMBER = 3
EXIT_OPEN_PROOF = 4
EXIT_VALIDATION_FAILED = 5
EXIT_INADEQUATE = 6
EXIT_PROOF_REJECTED = 7


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e)) from None
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    except ValueError as e:  # a path no file can have, e.g. with a NUL byte
        raise CliError(f"{path!r}: {e}") from None


# Below glibc's 128 KiB mmap threshold, so each slice's buffers come from the
# heap and are reused, where one whole-text write maps fresh pages for its copy.
_WRITE_SLICE = 1 << 16


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(0, len(text), _WRITE_SLICE):
                fh.write(text[k:k + _WRITE_SLICE])
    except OSError as e:
        raise CliError(str(e)) from None
    except ValueError as e:
        raise CliError(f"{path!r}: {e}") from None


def _parse_bindings(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"binding {pair!r} is not name=value")
        name, value = pair.split("=", 1)
        try:
            out[name] = int(value)
        except ValueError:
            raise CliError(f"binding {pair!r}: value must be an integer") from None
    return out


def _fuel(args) -> int:
    fuel = args.fuel
    if fuel is None:
        env = os.environ.get("TRACELET_FUEL")
        if not env:
            return DEFAULT_FUEL
        try:
            fuel = int(env)
        except ValueError:
            raise CliError("TRACELET_FUEL must be an integer") from None
    if fuel < 0:
        raise CliError(f"fuel must not be negative, got {fuel}")
    return fuel


def _assumptions(program: Program, cf) -> Dict[str, ContractAssumption]:
    """The contract assumption of every spec block, by procedure name."""
    defined = {p.name for p in program.procs}
    for proc in cf.specs:
        if proc not in defined:
            raise CliError(f"spec block for {proc!r} names a procedure "
                           "the program does not define")
    return {proc: ContractAssumption.from_spec(s) for proc, s in cf.specs.items()}


def _pick_proc(args, assumptions) -> str:
    proc = args.proc or (next(iter(assumptions)) if len(assumptions) == 1 else None)
    if proc is None:
        raise CliError("pick a procedure with --proc")
    if proc not in assumptions:
        raise CliError(f"contract file has no 'spec {proc} {{ ... }}' block; "
                       "proving and validation need the template fields")
    return proc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    program = parse_program(_read(args.program))
    overrides = _parse_bindings(args.state or [])
    fuel = _fuel(args)
    state = initial_state(program, overrides)
    try:
        trace = run(program, state, fuel=fuel)
    except FuelExhausted:
        print("fuel exhausted before termination", file=sys.stderr)
        return EXIT_FUEL
    text = dump_trace(trace)
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output} ({len(trace.entries)} entries)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# adequacy
# ---------------------------------------------------------------------------

def cmd_adequacy(args) -> int:
    trace = load_trace(_read(args.trace))
    verdict = is_adequate(trace, strict=not args.lenient)
    if args.json:
        print(json.dumps({"adequate": verdict.adequate, "clause": verdict.clause,
                          "position": verdict.position, "reason": verdict.reason}))
    elif verdict:
        print("adequate")
    else:
        print(f"inadequate: clause {verdict.clause} at entry {verdict.position}: "
              f"{verdict.reason}")
    return EXIT_OK if verdict else EXIT_INADEQUATE


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    trace = load_trace(_read(args.trace))
    cf = parse_contract_file(_read(args.formula))
    name = args.contract
    if name is None:
        if len(cf.contracts) != 1:   # a file defines at least one
            raise CliError("multiple contracts in file; pick one with --contract")
        name = next(iter(cf.contracts))
    if name not in cf.contracts:
        raise CliError(f"no contract named {name!r} in {args.formula}")
    params, formula = cf.contracts[name]
    env = _parse_bindings(args.bind or [])
    missing = [p for p in params if p not in env]
    if missing:
        raise CliError(f"missing --bind for parameters: {', '.join(missing)}")
    formula = applied(formula, params)
    why = []
    ok = member(trace, formula, env, why)
    if args.json:
        print(json.dumps({"member": ok, "contract": name, "bindings": env}))
    elif ok:
        print("member")
    else:
        print("not a member: " + why[0])
    return EXIT_OK if ok else EXIT_NOT_MEMBER


# ---------------------------------------------------------------------------
# gen-contract
# ---------------------------------------------------------------------------

def _parse_field(option: str, text: str, key: str):
    """An option's text, read whole as the spec field key; an error names
    the option and the line and column within its text."""
    try:
        ts = TokenStream(tokenize(text))
        e = parse_spec_field(ts, key)
        if ts.peek().kind != "eof":
            ts.error("trailing input")
    except ParseError as err:
        raise CliError(f"{option}: {err}") from None
    return e


def cmd_gen_contract(args) -> int:
    spec = ContractSpec(args.proc,
                        _parse_field("--pre-base", args.pre_base, "base"),
                        _parse_field("--pre-step", args.pre_step, "step"),
                        _parse_field("--result", args.result, "result"),
                        _parse_field("--step-inv", args.step_inv, "inv"))
    text = contract_file_text(spec)
    parse_contract_file(text)  # never write a file that does not read back
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

def _repl(root_seq, ctx, max_nodes: int) -> ProofNode:
    root = ProofNode(root_seq)
    print("interactive proof mode; commands: goals | show N | RULE @ N [k=v ...] "
          "| auto | done")
    while True:
        goals = root.open_goals()
        if not goals:
            print("proof closed.")
            return root
        try:
            line = input(f"[{len(goals)} open]> ").strip()
        except EOFError:
            return root
        if not line:
            continue
        if line in ("done", "quit", "exit"):
            return root
        if line == "goals":
            for k, g in enumerate(goals):
                print(f"  {k}: {g.sequent!r}")
            continue
        if line.startswith("show"):
            try:
                k = int(line.split()[1])
            except (IndexError, ValueError):
                print("usage: show N")
                continue
            print(repr(goals[k].sequent) if 0 <= k < len(goals)
                  else f"error: goal index {k} out of range ({len(goals)} open)")
            continue
        if line == "auto":
            for g in goals:
                sub = prove_auto(g.sequent, ctx, max_nodes)
                if sub.closed:
                    g.rule, g.args, g.children = sub.rule, sub.args, sub.children
            continue
        try:
            apply_script(root, ctx, line)
        except ScriptError as e:
            print(f"error: {e}")


def cmd_prove(args) -> int:
    if args.max_nodes < 0:
        raise CliError(f"--max-nodes must not be negative, got {args.max_nodes}")
    program = parse_program(_read(args.program))
    assumptions = _assumptions(program, parse_contract_file(_read(args.contracts)))
    proc = _pick_proc(args, assumptions)
    ctx = RuleContext.for_program(program, assumptions.values())
    goal = contract_goal(proc)
    try:
        if args.script:
            tree = run_script(goal, ctx, _read(args.script))
        elif args.repl:
            tree = _repl(goal, ctx, args.max_nodes)
        else:
            tree = prove_auto(goal, ctx, max_nodes=args.max_nodes)
    except UnsupportedConstruct as e:
        raise CliError(f"unsupported construct: {e}") from None
    out = args.output or f"{proc}.proof.json"
    _write(out, dump_proof(tree, proc))
    if tree.closed:
        print(f"closed proof ({tree.size()} nodes), wrote {out}")
        return EXIT_OK
    print(f"proof has {len(tree.open_goals())} open goals, wrote {out}")
    for g in tree.open_goals()[:10]:
        print(f"  open: {g.sequent!r}")
    return EXIT_OPEN_PROOF


def _replay_proof(args, program: Program, assumptions,
                  want: Optional[str] = None):
    """Load args.proof and replay it against the contract it names.

    Returns (proc, root, reason); reason is None when the proof is valid.
    A valid proof must start from the contract goal of a procedure with
    a spec block (and, when want is given, of that procedure).
    """
    ctx = RuleContext.for_program(program, assumptions.values())
    try:
        proc, root = load_proof(_read(args.proof))
    except ProofFileError as e:
        raise CliError(f"cannot load proof: {e}") from None
    if proc not in assumptions:
        return proc, root, f"the contract file has no spec block for {proc!r}"
    if want is not None and proc != want:
        return proc, root, f"the proof is for {proc!r}, not {want!r}"
    return proc, root, check_proof(root, proc, ctx)


def cmd_check_proof(args) -> int:
    program = parse_program(_read(args.program))
    assumptions = _assumptions(program, parse_contract_file(_read(args.contracts)))
    proc, root, bad = _replay_proof(args, program, assumptions)
    if bad is None:
        print(f"proof of {proc} is valid ({node_count(root)} nodes)")
        return EXIT_OK
    print(f"proof rejected: {bad}")
    return EXIT_PROOF_REJECTED


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@record
class SampleResult:
    n: int
    seed: int
    verdict: str
    result_ok: bool
    member_ok: bool
    trace_file: Optional[str] = None


@record
class ValidationReport:
    contract: str
    samples: List[SampleResult]
    overall: str = "pass"
    counterexample: Optional[dict] = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "contract": self.contract,
            "overall": self.overall,
            "note": self.note,
            "counterexample": self.counterexample,
            "samples": [
                {"n": s.n, "seed": s.seed, "verdict": s.verdict,
                 "result_ok": s.result_ok, "member_ok": s.member_ok,
                 "trace": s.trace_file}
                for s in self.samples
            ],
        }


def validate_contract(program: Program, assumption: ContractAssumption,
                      lo: int, hi: int, samples: int, seed: int,
                      fuel: int = DEFAULT_FUEL,
                      trace_dir: Optional[str] = None) -> ValidationReport:
    """Run the procedure concretely and check trace membership per sample."""
    report = ValidationReport(assumption.proc, [])
    env_pre = lambda v: bool(eval_expr(State({}), assumption.pre, {"n": v}))
    candidates = [v for v in range(lo, hi + 1) if env_pre(v)]
    if not candidates:
        report.note = "no parameter value in range satisfies the precondition"
        return report
    if samples >= len(candidates):
        chosen = candidates
    else:
        rng = random.Random(seed)
        chosen = sorted(rng.sample(candidates, samples))
    phi = Chop(MuApp(assumption.phi, (Var("n"), Var("i"))),
               StatePred(Binary("==", ResVar(Var("i")), assumption.result)))
    for v in chosen:
        harness = Program(program.procs, ("x",),
                          CallAssign(Var("x"), assumption.proc, IntLit(v)))
        verdict = "pass"
        result_ok = member_ok = False
        trace_file = None
        try:
            trace = run(harness, fuel=fuel)
            expected = eval_expr(State({}), assumption.result, {"n": v})
            result_ok = trace.last().get("x") == expected
            core = Trace(trace.entries[:-1])
            member_ok = member(core, phi, {"n": v, "i": 0})
            if trace_dir:
                trace_file = os.path.join(trace_dir, f"{assumption.proc}_{v}.trace.json")
                _write(trace_file, dump_trace(trace))
        except FuelExhausted:
            verdict = "fuel-exhausted"
        except RunError:
            verdict = "run-error"
        except MemberBudgetExceeded:
            verdict = "member-budget-exceeded"
        if verdict == "pass" and not (result_ok and member_ok):
            verdict = "fail"
        report.samples.append(SampleResult(v, seed, verdict, result_ok,
                                           member_ok, trace_file))
        if verdict != "pass" and report.overall == "pass":
            report.overall = "fail"
            report.counterexample = {"program": assumption.proc, "n": v, "seed": seed}
    return report


def cmd_validate(args) -> int:
    program = parse_program(_read(args.program))
    assumptions = _assumptions(program, parse_contract_file(_read(args.contracts)))
    proc = _pick_proc(args, assumptions)
    try:
        lo_s, hi_s = args.range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise CliError("--range expects lo..hi") from None
    if lo > hi:
        raise CliError(f"--range {args.range} is empty")
    if args.samples < 1:
        raise CliError("--samples must be at least 1")
    fuel = _fuel(args)
    if not args.no_proof:
        if not args.proof:
            raise CliError("validate needs --proof FILE (or --no-proof for a "
                           "purely semantic check)")
        _, _, bad = _replay_proof(args, program, assumptions, want=proc)
        if bad is not None:
            print(f"proof rejected: {bad}")
            return EXIT_PROOF_REJECTED
    report = validate_contract(program, assumptions[proc], lo, hi, args.samples,
                               args.seed, fuel=fuel,
                               trace_dir=args.trace_dir)
    if args.json:
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        for s in report.samples:
            print(f"  n={s.n}: {s.verdict} (result {'ok' if s.result_ok else 'BAD'}, "
                  f"membership {'ok' if s.member_ok else 'BAD'})")
        print(f"overall: {report.overall}"
              + (f" counterexample: {report.counterexample}" if report.counterexample else "")
              + (f" ({report.note})" if report.note else ""))
    return EXIT_OK if report.overall == "pass" else EXIT_VALIDATION_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# The command table: (handler, help line, positionals, options, required options,
# mutually exclusive options).  An option is (flags, kind[, default]); kind str or
# int takes a value, bool is a switch and list collects the value of every use.
COMMANDS = {
    "run": (cmd_run, "run a program and emit its trace", ("program",),
            (("--state", list), ("--fuel", int), ("-o --output", str)), (), ()),
    "adequacy": (cmd_adequacy, "check trace adequacy", ("trace",),
                 (("--lenient", bool), ("--json", bool)), (), ()),
    "check": (cmd_check, "check trace membership in a formula", ("trace", "formula"),
              (("--contract", str), ("--bind", list), ("--json", bool)), (), ()),
    "gen-contract": (cmd_gen_contract, "emit the recursive-contract template", ("proc",),
                     (("--pre-base", str), ("--pre-step", str), ("--result", str),
                      ("--step-inv", str), ("-o --output", str)),
                     ("--pre-base", "--pre-step", "--result", "--step-inv"), ()),
    "prove": (cmd_prove, "prove a procedure contract", ("program", "contracts"),
              (("--proc", str), ("--script", str), ("--repl", bool),
               ("--max-nodes", int, MAX_NODES), ("-o --output", str)), (), ("--script", "--repl")),
    "check-proof": (cmd_check_proof, "replay and verify a proof file", ("proof",),
                    (("--program", str), ("--contracts", str)), ("--program", "--contracts"), ()),
    "validate": (cmd_validate, "differential check of a proved contract", ("program", "contracts"),
                 (("--proc", str), ("--samples", int, 20), ("--seed", int, 0),
                  ("--range", str, "0..25"), ("--proof", str), ("--no-proof", bool),
                  ("--fuel", int), ("--trace-dir", str), ("--json", bool)), (),
                 ("--proof", "--no-proof")),
}
_TOP = (None, "Trace-based contract toolkit", ("command",), (), (), ())   # tracelet's own
_HELP = ("-h --help", bool)
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")   # a negative number is a value, not an option


def _dest(flags: str) -> str:
    return flags.split()[-1].lstrip("-").replace("-", "_")


def _option(prog: str, table: dict, token: str):
    """(option, attached value or None) for a token naming an option of the
    table or a unique prefix of a long one, (None, None) for an unknown
    option, and None for a value."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    if name in table:
        return table[name], value if eq else None
    if token[1] == "-":
        found, value = [f for f in table if f.startswith(name)], value if eq else None
    else:   # -oVALUE
        found, value = [f for f in table if f == token[:2]], token[2:]
    if len(found) > 1:
        raise CliError(f"{prog}: ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return table[found[0]], value
    return None if _NUMBER.match(token) or " " in token else (None, None)


def parse_args(tokens: List[str], name: Optional[str] = None, extras: Optional[list] = None):
    """The arguments of a command line (of a command's tokens when name is
    given) by argparse's rules: options may come before, between or after the
    positionals, the last of repeated values counts, and "--" ends options."""
    func, _, wanted, options, required, exclusive = COMMANDS[name] if name else _TOP
    prog, extras = f"tracelet {name or ''}".strip(), [] if extras is None else extras
    table = {f: o for o in (_HELP,) + options for f in o[0].split()}
    values = {o[0]: o[2] if len(o) > 2 else (False if o[1] is bool else None) for o in options}
    end = (tokens.index("--") if "--" in tokens else len(tokens)) if name else \
        len(tokens) - (tokens[-1:] == ["--"])   # before the command "--" is a name, unless last
    kinds = [_option(prog, table, t) for t in tokens[:end]] + [None] * (len(tokens) - end)
    positionals, given, filled, k = [], set(), False, 0
    while k < len(tokens):
        token, kind, k = tokens[k], kinds[k], k + 1
        if k - 1 == end:   # "--" is an extra unless it stands next to a positional
            if len(positionals) == len(wanted) and not filled:
                extras.append(token)
            continue
        filled = kind is None and len(positionals) < len(wanted)
        if kind is None or kind[0] is None:   # a value, or an unknown option
            (positionals if filled else extras).append(token)
            if name is None and positionals:
                if token not in COMMANDS:
                    raise CliError(f"tracelet: argument command: invalid choice: {token!r} "
                                   f"(choose from {', '.join(map(repr, COMMANDS))})")
                return parse_args(tokens[k:], token, extras)
            continue
        (flags, type_, *_), value = kind
        option = "/".join(flags.split())
        if type_ is bool and value is not None:
            raise CliError(f"{prog}: argument {option}: ignored explicit argument {value!r}")
        if flags == _HELP[0]:   # a command that prints the usage; the rest goes unparsed
            return SimpleNamespace(command=name, func=lambda _: print(_usage(name)) or EXIT_OK)
        if type_ is not bool and value is None:
            if k == len(tokens) or k == end or kinds[k] is not None:
                raise CliError(f"{prog}: argument {option}: expected one argument")
            value, k = tokens[k], k + 1
        try:
            value = True if type_ is bool else int(value) if type_ is int else value
        except ValueError:
            raise CliError(f"{prog}: argument {option}: invalid int value: {value!r}") from None
        if flags in exclusive and (clash := [f for f in exclusive if f != flags and f in given]):
            raise CliError(f"{prog}: argument {option}: not allowed with argument {clash[0]}")
        given.add(flags)
        values[flags] = (values[flags] or []) + [value] if type_ is list else value
    missing = list(wanted[len(positionals):]) + [f for f in required if f not in given]
    if missing:
        raise CliError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extras:
        raise CliError(f"tracelet: unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, func=func, **dict(zip(wanted, positionals)),
                           **{_dest(flags): value for flags, value in values.items()})


def _usage(name: Optional[str]) -> str:
    """The -h text of a command, or of tracelet when name is None."""
    _, about, positionals, options, required, exclusive = COMMANDS[name] if name else _TOP
    commands = "".join(f"  {n:<13} {c[1]}\n" for n, c in COMMANDS.items() if not name)
    return ("usage: " + " ".join(filter(None, ("tracelet", name, "[options]") + positionals))
            + f"\n\n{about}\n\n" + (f"commands:\n{commands}\n" if commands else "")
            + "options:\n" + "\n".join(
                "  " + ", ".join(o[0].split()) + f" {_dest(o[0]).upper()}" * (o[1] is not bool)
                + " (required)" * (o[0] in required) + " (exclusive)" * (o[0] in exclusive)
                for o in (_HELP,) + options))


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except (CliError, ParseError, LogicError, TraceError, RunError,
            ScriptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: the input nests too deeply to process", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # stop quietly, and send what stdout still holds to the null device,
        # so that its flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
