#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py LABEL [--base REV] [--head REV]
        [--workloads a,b,...] [--pairs N] [--seconds S] [--seed0 N] [--out DIR]

Checks out ``--base`` (default ``HEAD~1``) and ``--head`` (default
``HEAD``) of the repository this script is run in into temporary
``git worktree``s, and runs each side's own ``perfbench/run.py`` with
``--trace 0``.  Pair ``p`` runs both sides on seed ``seed0 + p``, the base
first in even pairs and the head first in odd ones, so a drift of the
machine's speed falls on both sides alike.

It writes ``BENCH_<LABEL>.json`` to ``--out`` (default: the current
directory).  Per workload and end-to-end metric it holds each side's
median and quartiles, the head/base ratio of the medians, the number of
pairs the head won (by the metric's direction in the head's
``BENCHMARK.json``) and every run's value.  The file also records the
seeds, ``--seconds``, Python, nproc, and per side the commit, the tree id
and the line count of ``src/gmapkit``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def side_info(tree: Path) -> dict:
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (tree / "src" / "gmapkit").glob("*.py")
    )
    return {
        "commit": git(tree, "rev-parse", "HEAD"),
        "src_tree": git(tree, "rev-parse", "HEAD:src/gmapkit"),
        "src_lines": lines,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its end-to-end metric values and whether
    every operation was correct."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side imports its own src
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "values": values, "units": units}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def directions(tree: Path) -> dict[str, str]:
    """Whether lower or higher is better, per end-to-end metric of ``tree``."""
    declared = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    return {m["name"]: m["better"] for m in declared}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' medians and quartiles, the head/base ratio
    of the medians and the pairs the head won."""
    out = {}
    for name, unit in runs[0]["base"]["units"].items():
        base = [r["base"]["values"][name] for r in runs]
        head = [r["head"]["values"][name] for r in runs]
        lower = better.get(name, "lower") == "lower"
        won = sum(h < b if lower else h > b for b, h in zip(base, head))
        b, h = summary(base), summary(head)
        out[name] = {
            "unit": unit,
            "better": "lower" if lower else "higher",
            "base": b,
            "head": h,
            "ratio": h["median"] / b["median"] if b["median"] else None,
            "head_won": won,
            "pairs": len(runs),
            "base_runs": base,
            "head_runs": head,
        }
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label")
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--workloads", default="pipeline,rewrite-chain,validate-broken,global-dual")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--out", type=Path, default=Path("."))
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    seeds = [args.seed0 + p for p in range(args.pairs)]
    workloads = [w for w in args.workloads.split(",") if w]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        try:
            for side, rev in (("base", args.base), ("head", args.head)):
                git(repo, "worktree", "add", "--detach", str(trees[side]), rev)
            doc = {
                "label": args.label,
                "seeds": seeds,
                "seconds": args.seconds,
                "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "base": {"rev": args.base, **side_info(trees["base"])},
                "head": {"rev": args.head, **side_info(trees["head"])},
                "workloads": {},
            }
            better = directions(trees["head"])
            for workload in workloads:
                runs = []
                for p, seed in enumerate(seeds):
                    order = ("base", "head") if p % 2 == 0 else ("head", "base")
                    run = {}
                    for side in order:
                        run[side] = run_once(trees[side], workload, seed, args.seconds)
                        print(f"# {workload} seed {seed} {side}: {run[side]['values']}", file=sys.stderr)
                    runs.append(run)
                doc["workloads"][workload] = {
                    "correct": all(r[s]["correct"] for r in runs for s in ("base", "head")),
                    "metrics": compare(runs, better),
                }
        finally:
            for tree in trees.values():
                if tree.exists():
                    git(repo, "worktree", "remove", "--force", str(tree))
            git(repo, "worktree", "prune")
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
