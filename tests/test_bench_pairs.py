"""scripts/bench_pairs.py: the schema of the BENCH_<label>.json it writes."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def git(repo: Path, *args: str) -> str:
    cmd = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", "-C", str(repo), *args]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()


def test_one_short_pair_writes_the_pinned_schema(tmp_path):
    # a scratch repository: this checkout's program and benchmark, then a
    # change that adds one line to src/gmapkit
    repo = tmp_path / "repo"
    for part in ("src/gmapkit", "perfbench"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "base")
    with open(repo / "src/gmapkit/errors.py", "a", encoding="utf-8") as f:
        f.write("# one more line\n")
    git(repo, "commit", "-qam", "head")

    out = tmp_path / "out"
    argv = [sys.executable, str(ROOT / "scripts/bench_pairs.py"), "smoke", "--pairs", "1",
            "--seconds", "0.05", "--workloads", "rewrite-chain", "--seed0", "7", "--out", str(out)]
    subprocess.run(argv, cwd=repo, check=True, capture_output=True, text=True)

    doc = json.loads((out / "BENCH_smoke.json").read_text())
    assert set(doc) == {"label", "seeds", "seconds", "python", "nproc", "base", "head", "workloads"}
    assert (doc["label"], doc["seeds"], doc["seconds"]) == ("smoke", [7], 0.05)
    assert isinstance(doc["python"], str) and doc["nproc"] >= 1
    for side, rev in (("base", "HEAD~1"), ("head", "HEAD")):
        assert doc[side] == {
            "rev": rev,
            "commit": git(repo, "rev-parse", rev),
            "src_tree": git(repo, "rev-parse", f"{rev}:src/gmapkit"),
            "src_lines": doc[side]["src_lines"],
        }
    assert doc["head"]["src_lines"] == doc["base"]["src_lines"] + 1

    assert list(doc["workloads"]) == ["rewrite-chain"]
    result = doc["workloads"]["rewrite-chain"]
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"unit", "better", "base", "head", "ratio", "head_won", "pairs", "base_runs", "head_runs"}
        assert (metric["unit"], metric["better"], metric["pairs"]) == (m["unit"], m["better"], 1)
        for side in ("base", "head"):
            (value,) = metric[f"{side}_runs"]
            assert metric[side] == {"median": value, "q1": value, "q3": value}
        assert metric["head_won"] in (0, 1)
    # the temporary worktrees are gone
    assert git(repo, "worktree", "list").count("\n") == 0


def test_quartiles_of_ten_runs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts/bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.summary([float(v) for v in range(10, 0, -1)]) == {"median": 5.5, "q1": 3.25, "q3": 7.75}
