"""Self-tests of the benchmark: deterministic inputs, and checks that catch wrong output.

    python -m pytest perfbench/test_bench.py
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402


def _inputs_text(workload, seed, workdir):
    inputs = workloads.generate(workload, seed, workdir)
    return [(r.argv, r.law) for r in inputs.round + inputs.probe], inputs.files


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_gives_identical_inputs_and_another_seed_different(workload, tmp_path):
    first = _inputs_text(workload, 7, tmp_path)
    assert _inputs_text(workload, 7, tmp_path) == first
    assert _inputs_text(workload, 8, tmp_path) != first


def test_inputs_do_not_depend_on_string_hashing(tmp_path):
    script = (
        "import hashlib, json, sys; from pathlib import Path; "
        f"sys.path[:0] = {[str(HERE), str(ROOT / 'src'), str(ROOT / 'tests')]!r}; "
        "import test_bench as t; "
        "inputs = [t._inputs_text(w, 7, Path(sys.argv[1])) for w in t.run.WORKLOADS]; "
        "print(hashlib.sha256(json.dumps(inputs).encode()).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(digests) == 1


def _plant(request):
    """A copy of the request whose reference is wrong in one value."""
    wrong = copy.deepcopy(request)
    expect = wrong.expect
    if request.kind == "check":
        expect["code"] = 1 - expect["code"]
    elif request.kind == "eval-json":
        expect["entries"]["in"] += "1"
    elif request.kind == "eval-open":
        expect["unbound"] = []
    elif request.kind == "sweep-json":
        expect["rows"][-1]["status"] = "null" if expect["rows"][-1]["status"] == "ok" else "ok"
    elif request.kind == "sweep-text":
        expect["rows"][1][0] = "1/3"
    elif request.kind == "exact":
        expect["stdout"] = expect["stdout"].replace(": ", ": 1", 2)
    elif request.kind == "open-tests":
        expect["open"] = expect["open"][1:]
    elif request.kind == "law":
        expect["failures"] = 1
    return wrong


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_outputs_match_references_and_a_planted_wrong_reference_is_caught(workload, tmp_path):
    inputs = workloads.generate(workload, 3, tmp_path)
    workloads.write_files(inputs, tmp_path)
    client = run.Client()
    for request in inputs.round:
        outcome = client.execute(request)
        assert workloads.check(request, outcome) is None, request.kind
        assert workloads.check(_plant(request), outcome) is not None, request.kind


def test_probe_inputs_either_hit_the_recursion_limit_or_match_their_reference(tmp_path):
    inputs = workloads.generate("scale", 3, tmp_path)
    workloads.write_files(inputs, tmp_path)
    recursion_errors, wrong = run.run_probe(inputs)
    assert wrong == []
    assert 0 <= recursion_errors <= len(inputs.probe) == len(workloads.FLAT_PROBE_SIZES)
