"""The benchmark's own checks: smoke run, corpus determinism, hygiene.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402


def _git_status():
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke():
    before = _git_status()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all",
                           "--seed", "3", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), before


def test_every_metric_printed_with_unit(smoke):
    lines, _ = smoke
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in corpus.WORKLOADS:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            prefix = f"{workload} {metric['name']} = "
            hits = [ln for ln in lines if ln.startswith(prefix)]
            assert len(hits) == 1, prefix
            assert hits[0].endswith(f" {metric['unit']}"), hits[0]


def test_no_failed_commands(smoke):
    lines, _ = smoke
    assert not [ln for ln in lines if ln.startswith("MISMATCH")]
    for workload in corpus.WORKLOADS:
        assert any(ln.startswith(f"{workload} failed_op_rate = 0 ratio") for ln in lines)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_working_tree_unchanged(smoke):
    _, before = smoke
    if before is None:
        pytest.skip("not a git checkout")
    assert _git_status() == before


@pytest.mark.parametrize("workload,names", [
    ("validate-sweep", {"cli.validate", "logic.member", "calculus.load_proof",
                        "calculus.check_proof", "lang.parse_program"}),
    ("prove-replay", {"cli.prove", "cli.check-proof", "calculus.prove_auto",
                      "calculus.dump_proof", "calculus.load_proof", "fo.fo_valid"}),
    ("trace-pipeline", {"cli.run", "cli.adequacy", "cli.check", "interp.run",
                        "traces.dump_trace", "traces.load_trace", "traces.is_adequate"}),
])
def test_spans_nest_inside_their_parents(tmp_path, workload, names):
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "4", "--smoke", "--spans", str(spans_file)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_file.read_text())
    assert names <= {s["name"] for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["cmd"] == s["cmd"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "validate-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(tmp_path, workload):
    def argvs(name, seed):
        root = tmp_path / name
        root.mkdir()
        built = corpus.build(workload, str(root), seed)
        return [[a.replace(str(root), "") for a in c.argv] for c in built.commands]

    assert argvs("a", 5) == argvs("b", 5)
    assert argvs("c", 5) != argvs("d", 6)


def test_tampered_proof_differs_in_one_premise():
    leaf = {"sequent": {"gamma": [{"pred": "n' >= 0"}], "goal": {"kind": "pred",
                                                              "pred": "n' > 0"}},
            "rule": "Close", "args": {}, "children": []}
    doc = {"root": {"sequent": {"gamma": [], "goal": {"kind": "contract", "proc": "m"}},
                    "rule": "X", "args": {}, "children": [leaf]}}
    for seed in range(20):
        out = corpus.tamper_proof(doc, random.Random(seed))
        assert out["root"]["sequent"] == doc["root"]["sequent"]
        assert out["root"]["children"][0]["sequent"] != leaf["sequent"]
