"""Seeded corpus for the tracelet benchmark.

Every input is built here, and its expected exit code follows from how it
was built: a correct or a mutant program, an intact or a mutated trace, an
intact or a tampered proof, a provable or an unprovable spec.  Nothing in
this module imports tracelet; the few base traces and proofs that the
mutators start from are produced through the CLI by ``run.py`` during
set-up, and this module only rewrites their JSON.

A workload is a list of ``Cmd`` per pass.  Sizes come from fixed strata
with a seeded phase, so every seed gives a pass of about the same cost
while the individual inputs differ.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional

EXIT_OK = 0
EXIT_NOT_MEMBER = 3
EXIT_OPEN_PROOF = 4
EXIT_VALIDATION_FAILED = 5
EXIT_INADEQUATE = 6
EXIT_PROOF_REJECTED = 7


@dataclass
class Cmd:
    """One CLI invocation and the exit code its construction implies."""
    argv: List[str]
    expect: int
    kind: str            # input family; the exponent fits pick points by it
    entries: Optional[int] = None   # trace length a ``run -o`` must report

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Corpus:
    """Files written to ``root``, the set-up steps that complete them, the
    warm-up commands (one per command kind) and the per-pass command list."""
    root: str
    setup: List[Cmd] = field(default_factory=list)
    # run after ``setup``; builds files from the set-up's outputs
    derive: Optional[Callable[[], None]] = None
    warmup: List[Cmd] = field(default_factory=list)
    commands: List[Cmd] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p


def strata(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``count`` sizes spread evenly over ``lo..hi`` with a seeded phase."""
    width = hi - lo + 1
    u = rng.random()
    return [lo + int((k + u) * width / count) for k in range(count)]


# ---------------------------------------------------------------------------
# Programs and contracts
# ---------------------------------------------------------------------------

def rec_program(step: str = "r = r + 1", base: str = "", call_arg: str = "k - 1",
                main_arg: int = 1, extra_local: bool = False) -> str:
    """The recursive ``m`` of the paper and its variants."""
    if extra_local:
        decls, call = "r; t;", f"t = m({call_arg}); r = t + 1"
    else:
        decls, call = "r;", f"r = m({call_arg}); {step}"
    base_line = f"  if (k == 0) {{ {base} }};\n" if base else ""
    return (f"m(k) {{\n  {decls}\n{base_line}"
            f"  if (k != 0) {{ {call} }};\n  return r\n}}\n\n"
            f"main {{ x; x = m({main_arg}) }}\n")


def gen_contract_cmd(out: str, result: str) -> Cmd:
    return Cmd(["gen-contract", "m", "--pre-base", "n == 0", "--pre-step", "n > 0",
                "--result", result, "--step-inv", "n - 1", "-o", out],
               EXIT_OK, "contract")


def while_program(rng: random.Random, turns: int) -> str:
    """A two-variable loop: one entry per assignment, so its run has
    3 + 2 * turns entries."""
    c = rng.randint(1, 9)
    return (f"main {{ i; s; i = 0; s = 0; "
            f"while (i < {turns}) {{ s = s + i * {c}; i = i + 1 }} }}\n")


def random_program(rng: random.Random, nprocs: int, main_arg: int) -> str:
    """A terminating multi-procedure program.

    Procedure ``p<i>`` recurses on ``k - 1`` under ``k > 0``, calls
    ``p<i-1>(1)`` once and runs a two-turn loop, so ``p<i>(k)`` makes
    (k + 1) * (1 + calls of p<i-1>(1)) calls: the call count is fixed by
    ``nprocs`` and ``main_arg``, and the seed picks the arithmetic.  Only
    declared locals are written.
    """
    procs = []
    for i in range(nprocs):
        a, b, c = rng.randint(1, 5), rng.randint(0, 9), rng.randint(1, 3)
        lines = [rng.choice([f"r = k * {a} + {b}", f"r = {b} - k", f"r = k + {a} * {b}"]),
                 "if (k > 0) { t = p%d(k - 1); %s }" % (
                     i, rng.choice(["r = r + t", "r = t - r", f"r = r + t * {c}"]))]
        if i > 0:
            lines.append(f"t = p{i - 1}(1)")
            lines.append(rng.choice([f"r = r - t * {c}", f"r = t + r", f"r = r * {c} - t"]))
        lines.append("j = 0; while (j < 2) { r = r + j; j = j + 1 }")
        procs.append(f"p{i}(k) {{\n  r; t; j;\n  " + ";\n  ".join(lines)
                     + ";\n  return r\n}\n")
    main = (f"main {{ x; y; x = p{nprocs - 1}({main_arg}); "
            f"y = x + {rng.randint(1, 9)} }}\n")
    return "\n".join(procs) + "\n" + main


# ---------------------------------------------------------------------------
# Mutators: each one's output is inadequate / rejected by construction
# ---------------------------------------------------------------------------

def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mutate_trace(data: list, rng: random.Random, kind: str) -> list:
    """Break a valid trace (JSON entry list) so that strict adequacy fails.

    ``two-vars``: a state reached by a state step gains two variables, so
    clause 1 (one variable per step), the res-update check or the
    flanking check fails at that position.  ``unflanked``: the state after
    an event differs from the one before it.  ``reused-id``: a later
    callEv takes the first call's identifier (clause 2).
    """
    data = [dict(e) for e in data]
    states = [k for k in range(1, len(data))
              if "state" in data[k] and "state" in data[k - 1]]
    events = [k for k in range(1, len(data) - 1) if "event" in data[k]]
    calls = [k for k in events if data[k]["event"]["kind"] == "callEv"]
    if kind == "reused-id" and len(calls) < 2:
        kind = "unflanked"
    if kind == "unflanked" and not events:
        kind = "two-vars"
    if kind == "two-vars":
        k = rng.choice(states)
        st = dict(data[k]["state"])
        st["zz_a"], st["zz_b"] = rng.randint(1, 9), rng.randint(1, 9)
        data[k] = {"state": st}
    elif kind == "unflanked":
        k = rng.choice(events) + 1
        st = dict(data[k]["state"])
        st["zz_a"] = rng.randint(1, 9)
        data[k] = {"state": st}
    else:
        k = rng.choice(calls[1:])
        ev = dict(data[k]["event"])
        ev["id"] = data[calls[0]]["event"]["id"]
        data[k] = {"event": ev}
    return data


_INT = re.compile(r"(?<![\w'#])\d+(?![\w'#])")


def tamper_proof(doc: dict, rng: random.Random) -> dict:
    """Perturb one premise (a non-root node's sequent) of a closed proof.

    Either an integer literal in one of its predicates changes, or it gains
    an assumption.  The replaying checker rebuilds that premise from its
    parent's rule and finds it differs, so the proof is rejected.
    """
    doc = json.loads(json.dumps(doc))
    nodes = []

    def walk(node, depth):
        if depth:
            nodes.append(node)
        for c in node["children"]:
            walk(c, depth + 1)
    walk(doc["root"], 0)
    seq = rng.choice(nodes)["sequent"]
    preds = [a for a in seq["gamma"] if "pred" in a and _INT.search(a["pred"])]
    if seq["goal"].get("kind") == "pred" and _INT.search(seq["goal"]["pred"]):
        preds.append(seq["goal"])
    if preds and rng.random() < 0.5:
        target = rng.choice(preds)
        hits = list(_INT.finditer(target["pred"]))
        h = rng.choice(hits)
        bumped = str(int(h.group()) + rng.randint(1, 9))
        target["pred"] = target["pred"][:h.start()] + bumped + target["pred"][h.end():]
    else:
        seq["gamma"].append({"pred": f"0 <= {rng.randint(1, 9)}"})
    return doc


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def validate_sweep(root: str, rng: random.Random, smoke: bool) -> Corpus:
    """Fixed-point membership: ``validate`` of ``m`` at sizes n.

    Correct runs go with ``--proof`` (exit 0), so each also replays the
    proof; mutant runs (``r = r + 2``) at n >= 1 go with ``--no-proof``
    (exit 5: its result is 2n, not n).  Three in ten of the slots with
    n >= 1 in each stratum are mutants.
    """
    c = Corpus(root)
    good, mutant = c.write("m.tcp", rec_program()), c.write(
        "mutant.tcp", rec_program("r = r + 2"))
    tcf, proof = c.path("m.tcf"), c.path("m.proof.json")
    c.setup = [gen_contract_cmd(tcf, "n"),
               Cmd(["prove", good, tcf, "--proc", "m", "-o", proof], EXIT_OK, "prove")]

    def validate(n: int, is_mutant: bool) -> Cmd:
        argv = ["validate", mutant if is_mutant else good, tcf, "--proc", "m",
                "--samples", "1", "--range", f"{n}..{n}",
                "--seed", str(rng.randrange(1 << 16))]
        argv += ["--no-proof"] if is_mutant else ["--proof", proof]
        return Cmd(argv, EXIT_VALIDATION_FAILED if is_mutant else EXIT_OK, "fixpoint")

    c.warmup = [validate(2, False), validate(2, True)]
    table = ([(0, 2, 4), (3, 5, 4), (6, 8, 4)] if smoke else
             [(0, 5, 11), (6, 9, 11), (10, 13, 12), (14, 17, 12), (18, 21, 4)])
    for lo, hi, count in table:
        sizes = strata(rng, lo, hi, count)
        eligible = [k for k, n in enumerate(sizes) if n >= 1]
        mutants = set(rng.sample(eligible, round(0.3 * len(eligible))))
        c.commands += [validate(n, k in mutants) for k, n in enumerate(sizes)]
    rng.shuffle(c.commands)
    return c


def trace_pipeline(root: str, rng: random.Random, smoke: bool) -> Corpus:
    """Interpreter and trace JSON work: ``run -o``, ``adequacy``, ``check``.

    Narrow-state ``while`` loops, deep recursion ``m(N)`` (the largest N is
    fixed, since it sets peak memory) and random multi-procedure programs
    are run and their traces checked for adequacy (exit 0).  Mutated
    traces fail adequacy (exit 6).  ``m(N)`` traces are checked against the
    flat ``m_big_step`` contract at n = N (exit 0) and n != N (exit 3).
    """
    c = Corpus(root)
    tcf = c.path("m.tcf")
    c.setup = [gen_contract_cmd(tcf, "n")]
    jobs: List[List[Cmd]] = []

    def run_job(name: str, src: str, kind: str, entries: Optional[int] = None) -> str:
        prog, trace = c.write(f"{name}.tcp", src), c.path(f"{name}.trace.json")
        jobs.append([Cmd(["run", prog, "-o", trace], EXIT_OK, kind, entries),
                     Cmd(["adequacy", trace], EXIT_OK, kind)])
        return trace

    def check(trace: str, bound: int, expect: int) -> Cmd:
        return Cmd(["check", trace, tcf, "--contract", "m_big_step",
                    "--bind", f"n={bound}", "--bind", "i=0"], expect, "big-step")

    # narrow strata: these runs are quadratic and set most of a pass's cost
    while_strata = ([(100, 119), (200, 239), (400, 439), (800, 800)] if smoke else
                    [(1000, 1199), (2000, 2399), (4000, 4399), (8000, 8000)])
    for k, (lo, hi) in enumerate(while_strata):
        turns = strata(rng, lo, hi, 1)[0]
        run_job(f"while{k}", while_program(rng, turns), "while", 3 + 2 * turns)
    rec_strata = ([(10, 12), (19, 21), (29, 31), (40, 40)] if smoke else
                  [(100, 110), (190, 210), (290, 310), (400, 400)])
    for k, (lo, hi) in enumerate(rec_strata):
        n = strata(rng, lo, hi, 1)[0]
        trace = run_job(f"rec{k}", rec_program(main_arg=n), "rec")
        if k < 3:
            jobs[-1].append(check(trace, n, EXIT_OK))
        if k < 2:
            jobs[-1].append(check(trace, n + rng.choice([-2, -1, 1, 2]), EXIT_NOT_MEMBER))
    # p1(6) and p2(2) both make 21 calls: equal cost, different shapes
    for k in range(6 if smoke else 12):
        nprocs, arg = (2, 6) if k % 2 else (3, 2)
        run_job(f"rand{k}", random_program(rng, nprocs, arg), "random")

    # base traces for the mutators, written by the set-up
    bases = []
    for k in range(3):
        prog = c.write(f"base{k}.tcp", random_program(rng, 3, 1 + k))
        bases.append(c.path(f"base{k}.trace.json"))
        c.setup.append(Cmd(["run", prog, "-o", bases[-1]], EXIT_OK, "random"))
    prog = c.write("base3.tcp", rec_program(main_arg=10))
    bases.append(c.path("base3.trace.json"))
    c.setup.append(Cmd(["run", prog, "-o", bases[-1]], EXIT_OK, "rec"))
    kinds = ["two-vars", "unflanked", "reused-id"]
    plan = [(rng.choice(bases), kinds[k % 3], rng.randrange(1 << 30))
            for k in range(4)]
    for k in range(len(plan)):
        jobs.append([Cmd(["adequacy", c.path(f"mutated{k}.trace.json")],
                         EXIT_INADEQUATE, "mutated")])

    def derive():
        for k, (base, kind, seed) in enumerate(plan):
            data = mutate_trace(_load(base), random.Random(seed), kind)
            c.write(f"mutated{k}.trace.json", json.dumps(data, indent=1))
    c.derive = derive

    small = c.write("warm.tcp", rec_program(main_arg=3))
    warm_trace = c.path("warm.trace.json")
    c.warmup = [Cmd(["run", small, "-o", warm_trace], EXIT_OK, "rec"),
                Cmd(["adequacy", warm_trace], EXIT_OK, "rec"),
                check(warm_trace, 3, EXIT_OK)]
    rng.shuffle(jobs)
    c.commands = [cmd for job in jobs for cmd in job]
    return c


def prove_replay(root: str, rng: random.Random, smoke: bool) -> Corpus:
    """``prove -o`` then ``check-proof`` over procedure/spec pairs.

    Closed (exit 0, replay 0): identity, ``a * n``, ``n + b`` and an extra
    local.  Open (exit 4, replay 7 for the open goal): the mutant that adds
    ``a + d`` per step against ``a * n``, and the ``k - 2`` step against an
    ``n - 1`` invariant; both specs are false at n = 1 or n = 2.  Each
    closed pair's set-up proof is tampered once (replay 7).  A pass holds
    two copies of the six pairs, each with its own constants, so that one
    seed's constants weigh less; ``smoke`` keeps one copy.
    """
    c = Corpus(root)
    pairs = []
    for copy in range(1 if smoke else 2):
        a, b, d = rng.randint(2, 9), rng.randint(1, 9), rng.randint(1, 2)
        pairs += [(f"identity{copy}", rec_program(), "n", True),
                  (f"scaled{copy}", rec_program(f"r = r + {a}"), f"{a} * n", True),
                  (f"offset{copy}", rec_program(base=f"r = {b}"), f"n + {b}", True),
                  (f"local{copy}", rec_program(extra_local=True), "n", True),
                  (f"mutant{copy}", rec_program(f"r = r + {a + d}"), f"{a} * n", False),
                  (f"step2{copy}", rec_program(call_arg="k - 2"), "n", False)]
    jobs: List[List[Cmd]] = []
    tampered = []
    for name, src, result, provable in pairs:
        prog, tcf = c.write(f"{name}.tcp", src), c.path(f"{name}.tcf")
        proof = c.path(f"{name}.proof.json")
        c.setup.append(gen_contract_cmd(tcf, result))
        check = ["check-proof", proof, "--program", prog, "--contracts", tcf]
        jobs.append([Cmd(["prove", prog, tcf, "--proc", "m", "-o", proof],
                         EXIT_OK if provable else EXIT_OPEN_PROOF, "prove"),
                     Cmd(check, EXIT_OK if provable else EXIT_PROOF_REJECTED, "replay")])
        if provable:
            base = c.path(f"{name}.base.proof.json")
            c.setup.append(Cmd(["prove", prog, tcf, "--proc", "m", "-o", base],
                               EXIT_OK, "prove"))
            bad = c.path(f"{name}.tampered.proof.json")
            tampered.append((base, bad, rng.randrange(1 << 30)))
            jobs.append([Cmd(["check-proof", bad, "--program", prog, "--contracts", tcf],
                             EXIT_PROOF_REJECTED, "tampered")])

    def derive():
        for base, bad, seed in tampered:
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump(tamper_proof(_load(base), random.Random(seed)), fh, indent=1)
    c.derive = derive
    c.warmup = list(jobs[0])
    rng.shuffle(jobs)
    c.commands = [cmd for job in jobs for cmd in job]
    return c


WORKLOADS = {"validate-sweep": validate_sweep,
             "trace-pipeline": trace_pipeline,
             "prove-replay": prove_replay}


def build(workload: str, root: str, seed: int, smoke: bool = False) -> Corpus:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](root, rng, smoke)
