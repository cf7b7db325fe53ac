"""The tracelet benchmark: end-to-end and per-layer numbers for the CLI.

    python3 bench/run.py --workload validate-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; tracelet is imported from its
``src/``.  The benchmark builds a seeded corpus under ``.bench_tmp/`` in the
checkout, each input with the exit code its construction implies, and
drives ``tracelet.cli.main(argv)`` as a closed loop with one client, in
whole passes over the workload's command list, each command in a child
forked from this process.  Every exit code
is compared with the expected one; a mismatch, an exception or a printed
traceback is reported and counted as a failed command.

The end-to-end times are scaled to a reference host speed: a fixed
calibration loop is timed between commands, and the run's wall times are
multiplied by ``REF_S`` over the loop's mean time.  The host's speed
drifts by up to 1.5x over seconds to minutes; the scaling cancels that
drift between runs, and the raw wall times are printed beside the scaled
ones.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
command twice, untraced and traced in alternating order, and reports the
per-layer metrics from the spans (see ``tracing.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs each workload in its own process.
``--smoke`` runs one short pass at tiny sizes and prints both metric sets.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = list(corpus.WORKLOADS)
COMMANDS = ("run", "adequacy", "check", "prove", "check-proof", "validate")
MIN_COMMANDS = 100       # per --trace 0 run, so ten samples lie beyond p90
SETUP_REPEATS = 9
REF_S = 0.002            # the calibration loop's time at the reference speed
PHASE_CAP_S = 120        # no new pass starts after this, whatever --seconds says

END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def calibrate() -> float:
    """Median time (s) of three runs of a fixed loop of the dict, tuple and
    string work that tracelet's commands are made of; ``REF_S`` over it is
    the host's speed at this moment."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        table, parts = {}, []
        for i in range(6000):
            key = (i & 63, i >> 6)
            table[key] = table.get(key, 0) + i
            if i % 7 == 0:
                parts.append(str(i))
        ",".join(parts)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Executing commands
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cli = None
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def load(self) -> float:
        """(Re)import tracelet from the checkout; returns the seconds taken."""
        for name in [m for m in sys.modules if m == "tracelet" or m.startswith("tracelet.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        self.cli = importlib.import_module("tracelet.cli")
        took = time.perf_counter() - t0
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            fail(f"imported tracelet from {self.cli.__file__}, not from {SRC}")
        return took

    def call(self, cmd: corpus.Cmd, tracer=None, cid: int = 0) -> dict:
        """Run one command in this process; with a tracer, under a
        ``cli.<command>`` span numbered ``cid``."""
        out = io.StringIO()
        main = self.cli.main
        problem, first = None, len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                if tracer is None:
                    code = main(cmd.argv)
                else:
                    code = tracer.command(cid, cmd.command, lambda: main(cmd.argv))
            except SystemExit as e:       # argparse rejected the arguments
                code = e.code
            except Exception:             # noqa: BLE001 - any escape is a failure
                code, problem = None, traceback.format_exc(limit=3)
        took = time.perf_counter() - t0
        spans = [vars(sp) for sp in tracer.spans[first:]] if tracer else []
        return {"code": code, "took": took, "text": out.getvalue(),
                "problem": problem, "spans": spans}

    def forked(self, cmd: corpus.Cmd, tracer=None, cid: int = 0) -> dict:
        """``call`` in a child of this process, which has tracelet imported
        and warmed up.  Like a fresh CLI process, every command starts from
        the same heap: in one long-lived process the same command's time
        varied twofold with the state earlier commands had left the
        allocator's arenas in."""
        gc.collect()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:                      # the child: report and leave at once
            os.close(rfd)
            status = 1
            try:
                if tracer is not None:
                    tracer.install()
                data = json.dumps(self.call(cmd, tracer, cid)).encode()
                with os.fdopen(wfd, "wb") as fh:
                    fh.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not data:
            return {"code": None, "took": 0.0, "text": "", "spans": [],
                    "problem": f"the child ended with wait status {status}"}
        report = json.loads(data)
        if tracer is not None:
            tracer.spans += [tracing.Span(**sp) for sp in report["spans"]]
        return report

    def execute(self, cmd: corpus.Cmd, tracer=None, cid: int = 0, fork: bool = True) -> float:
        """Run one command, check its exit code, and return its wall time (s)."""
        report = self.forked(cmd, tracer, cid) if fork else self.call(cmd)
        self.attempted += 1
        text, code, problem = report["text"], report["code"], report["problem"]
        if problem is None and "Traceback (most recent call last)" in text:
            problem = text
        if problem is None and code != cmd.expect:
            problem = f"exit {code}, expected {cmd.expect}: {text.strip()[-300:]}"
        if problem is None and cmd.entries is not None \
                and f"({cmd.entries} entries)" not in text:
            problem = f"expected a trace of {cmd.entries} entries: {text.strip()[-300:]}"
        if problem is not None:
            self.failed += 1
            if self.reported < 20:
                self.reported += 1
                print(f"MISMATCH {' '.join(cmd.argv)}\n  {problem.strip()}")
        return report["took"]

    def phase(self, commands, seconds: float, min_commands: int, tracer=None):
        """Whole passes over ``commands`` until another pass would overrun
        ``seconds`` (and at least ``min_commands`` ran).

        Returns (wall, scaled, traced, passes): each command's wall time,
        the same scaled to the reference speed, and, with a tracer, the wall
        time of each command's traced twin.  The twin runs right before or
        right after the untraced command, alternately, so the host's drift
        cancels in the ratio of the two.

        The calibration loop runs between commands.  The host's speed over
        the run is the mean of its times around each command, weighted by
        the command's time; one factor scales the whole run.  (The speed
        also flickers within a second, so the loop's time right around a
        command says little about that command alone.)
        """
        wall, around, traced, passes = [], [], [], 0
        started, before = time.perf_counter(), calibrate()
        while True:
            for cmd in commands:
                cid = len(wall)
                if tracer is not None and cid % 2:
                    traced.append(self.execute(cmd, tracer, cid))
                took = self.execute(cmd)
                after = calibrate()
                wall.append(took)
                around.append((before + after) / 2)
                before = after
                if tracer is not None and not cid % 2:
                    traced.append(self.execute(cmd, tracer, cid))
            passes += 1
            elapsed = time.perf_counter() - started
            if elapsed > PHASE_CAP_S:
                break
            if len(wall) < min_commands:
                continue
            if elapsed + elapsed / passes > seconds:
                break
        ref = sum(t * r for t, r in zip(wall, around)) / sum(wall)
        return wall, [t * REF_S / ref for t in wall], traced, passes


def setup(runner: Runner, workload: str, seed: int, smoke: bool):
    """Import, corpus generation and one warm-up per command kind, repeated;
    returns the median time, scaled to the reference speed like the
    commands, and the last corpus built."""
    times, built = [], None
    for rep in range(1 if smoke else SETUP_REPEATS):
        root = os.path.join(runner.workdir, f"corpus{rep}")
        os.makedirs(root)
        gc.collect()
        before = calibrate()
        took = runner.load()
        t0 = time.perf_counter()
        built = corpus.build(workload, root, seed, smoke)
        for cmd in built.setup:
            runner.execute(cmd, fork=False)
        if built.derive:
            built.derive()
        for cmd in built.warmup:          # in this process, so children start warm
            runner.execute(cmd, fork=False)
        took += time.perf_counter() - t0
        gc.collect()
        times.append(took * 2 * REF_S / (before + calibrate()))
    return statistics.median(times), built


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights, so a quantile that falls between two clusters of command costs
    moves smoothly instead of jumping from one cluster to the other.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    # Beta density at 16 points inside each rank interval, in log space
    grid = [(i + (k + 0.5) / 16) / n for i in range(n) for k in range(16)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in grid]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[16 * i:16 * i + 16]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(latencies, setup_s: float) -> dict:
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
            "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
            "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
            "setup_s": setup_s}


def per_layer(tracer: tracing.Tracer, commands, wall, traced, passes: int,
              notes: list) -> dict:
    """Per-layer metrics from the traced commands' spans (``passes``
    passes), in unscaled wall time."""
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def mean_ms(name):
        got = calls(name)
        return statistics.fmean(s.ms for s in got) if got else 0.0

    def total(name, key):
        return sum((s.counts or {}).get(key, 0) for s in calls(name)) / passes

    def ratio(name, key):
        got = calls(name)
        return sum((s.counts or {}).get(key, 0) for s in got) / len(got) if got else 0.0

    def exponent(prefix, name, kind, min_entries=1):
        points = [(s.counts["entries"], s.ms) for s in calls(name)
                  if s.counts and commands[s.cmd % len(commands)].kind == kind]
        fit = tracing.fit_exponent(points, min_entries)
        if fit is None:
            notes.append(f"{prefix} fit: fewer than 4 sizes on this workload, reported as 0")
            return {prefix: 0.0, prefix + ".r2": 0.0}
        slope, r2, sizes = fit
        notes.append(f"{prefix} fit: slope {slope:.3f}, R^2 {r2:.4f}, over entries {sizes}")
        return {prefix: slope, prefix + ".r2": r2}

    m = {}
    run_ms = sum(s.ms for s in calls("interp.run"))
    run_entries = sum(s.counts["entries"] for s in calls("interp.run") if s.counts)
    m["interp.run.ms"] = mean_ms("interp.run")
    m["interp.entries"] = run_entries / passes
    m["interp.us_per_entry"] = run_ms * 1e3 / run_entries if run_entries else 0.0
    m.update(exponent("interp.exponent", "interp.run", "while"))
    m["traces.is_adequate.ms"] = mean_ms("traces.is_adequate")
    m.update(exponent("traces.adequacy.exponent", "traces.is_adequate", "rec"))
    m["traces.dump_trace.ms"] = mean_ms("traces.dump_trace")
    m["traces.dump_trace.bytes"] = total("traces.dump_trace", "bytes")
    m["traces.load_trace.ms"] = mean_ms("traces.load_trace")
    m["logic.member.calls"] = len(calls("logic.member")) / passes
    m["logic.member.ms"] = mean_ms("logic.member")
    # below ~100 entries (n < 8) the per-call constant hides the growth
    m.update(exponent("logic.member.exponent", "logic.member", "fixpoint", 100))
    m["logic.parse_contract_file.ms"] = mean_ms("logic.parse_contract_file")
    m["lang.parse_program.ms"] = mean_ms("lang.parse_program")
    for name in ("load_proof", "dump_proof", "check_proof", "prove_auto"):
        m[f"calculus.{name}.ms"] = mean_ms(f"calculus.{name}")
    m["calculus.dump_proof.bytes"] = total("calculus.dump_proof", "bytes")
    m["calculus.prove_auto.nodes"] = total("calculus.prove_auto", "nodes")
    m["calculus.prove_auto.closed_ratio"] = ratio("calculus.prove_auto", "closed")
    m["fo.fo_valid.calls"] = len(calls("fo.fo_valid")) / passes
    m["fo.fo_valid.ms"] = mean_ms("fo.fo_valid")
    m["fo.fo_valid.valid_ratio"] = ratio("fo.fo_valid", "valid")
    for name in COMMANDS:
        got = calls(f"cli.{name}")
        m[f"cli.{name}.p50_ms"] = statistics.median(s.ms for s in got) if got else 0.0
    for layer, ms in tracing.self_ms(spans).items():
        m[f"{layer}.self_ms"] = ms / len(traced)
    # untraced ops_per_s / traced ops_per_s, over the same commands
    m["trace.overhead_ratio"] = sum(traced) / sum(wall)
    return m


def print_metrics(workload: str, metrics: dict, units: dict):
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "tracelet", "cli.py")):
        fail(f"no tracelet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    units = dict(END_TO_END)
    units.update(per_layer_units())
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    runner = Runner(workdir)
    try:
        setup_s, built = setup(runner, args.workload, args.seed, args.smoke)
        commands = built.commands
        traced_run = args.trace or args.smoke
        tracer = tracing.Tracer() if traced_run else None
        wall, scaled, traced, passes = runner.phase(
            commands, 0 if args.smoke else args.seconds,
            1 if traced_run else MIN_COMMANDS, tracer)
        print(f"{args.workload}: {len(commands)} commands per pass, {passes} passes, "
              f"{len(wall)} latency samples ({len(wall) // 10} beyond p90); host speed "
              f"{sum(scaled) / sum(wall):.3f} of the reference")
        metrics = end_to_end(scaled, setup_s)
        raw = end_to_end(wall, setup_s)
        print(f"{args.workload} unscaled: ops_per_s = {raw['ops_per_s']:.6g} 1/s, "
              f"latency_p50_ms = {raw['latency_p50_ms']:.6g} ms, "
              f"latency_p90_ms = {raw['latency_p90_ms']:.6g} ms")
        notes = []
        if traced_run:
            bad = tracing.check_nesting(tracer.spans)
            if bad:
                print(f"MISMATCH {bad} spans exceed their parent")
                runner.failed += bad
            if args.spans:
                tracer.dump(args.spans)
            layer = per_layer(tracer, commands, wall, traced, passes, notes)
            metrics = {**metrics, **layer} if args.smoke else layer
        for note in notes:
            print(f"{args.workload} {note}")
        rate = runner.failed / runner.attempted
        print(f"{args.workload} failed_op_rate = {rate:.6g} ratio "
              f"({runner.failed} of {runner.attempted} commands)")
        print_metrics(args.workload, metrics, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process; a combined result on the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"{workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass at tiny sizes; print both metric sets")
    ap.add_argument("--spans", metavar="FILE",
                    help="with tracing, also write the raw spans as JSON")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
