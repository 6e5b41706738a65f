"""Self-check of the benchmark: a tiny-size run of every workload, traced
and untraced, and proof that each checker rejects a planted bad output.

    python3 perfbench/selfcheck.py

Exits 0 when every check holds and 1 otherwise.  Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

# grid sizes small enough for a quick run; validate-broken needs room for
# one defect of each kind at the planted separation
TINY = {"pipeline": 4, "rewrite-chain": 4, "validate-broken": 9, "global-dual": 4}


def smoke(failures: list) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    for name, k in TINY.items():
        for trace in (0, 1):
            result = run.run(name, seed=7, seconds=0.5, trace=bool(trace), k=k)
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: not correct: {result}")
            if list(result["metrics"]) != wanted[trace]:
                failures.append(f"{name} trace={trace}: metrics {list(result['metrics'])} != {wanted[trace]}")


def expect_rejected(failures: list, label: str, check) -> None:
    from check import CheckFailure

    try:
        check()
    except CheckFailure:
        return
    failures.append(f"checker accepted a planted bad output: {label}")


def planted(failures: list, workdir: Path) -> None:
    from check import RawMap, checked_alphas

    workloads = run.load_program()

    def ready(name):
        work = workloads.WORKLOADS[name](3, TINY[name], workdir)
        work.setup()
        work.prepare()
        return work

    # a re-sewn pair of 2-links breaks alpha0 alpha2 alpha0 alpha2 = id
    chain = ready("rewrite-chain")
    raw = RawMap.of_gmap(chain.pristine)
    twos = [i for i, (dim, ends) in enumerate(raw.links) if dim == 2 and len(ends) == 2]
    (i, (_, (a, b))), (j, (_, (c, d))) = [(k, raw.links[k]) for k in (twos[0], twos[len(twos) // 2])]
    raw.links[i], raw.links[j] = (2, (a, c)), (2, (b, d))
    expect_rejected(failures, "re-sewn 2-links", lambda: checked_alphas(raw))

    # a rewrite that changed nothing
    inp = chain.next_input(0)
    expect_rejected(failures, "rewrite-chain result equal to its input", lambda: chain.check(inp, inp[0]))

    # a dual that is not one
    dual = ready("global-dual")
    inp = dual.next_input(0)
    expect_rejected(failures, "global-dual result equal to its input", lambda: dual.check(inp, inp[0]))

    # a report that lost one planted violation
    broken = ready("validate-broken")
    lines = broken.op(0)
    broken.check(0, lines)
    broken.prepare()
    dropped = [l for l in lines if l != next(l for l in lines if l.startswith("E_INCIDENCE"))]
    expect_rejected(failures, "report without one E_INCIDENCE line", lambda: broken.check(0, dropped))

    # an OBJ file with one vertex moved
    pipe = ready("pipeline")
    inp = pipe.next_input(0)
    said, failure, _, _ = run.timed_op(pipe, inp, [run.REFERENCE_MS])
    if failure is not None:
        raise failure
    pipe.check(inp, said)
    text = pipe.obj.read_text().splitlines()
    v = next(n for n, line in enumerate(text) if line.startswith("v "))
    text[v] = "v 1e9 0.0 0.0"
    pipe.obj.write_text("\n".join(text) + "\n")
    expect_rejected(failures, "OBJ with a moved vertex", lambda: pipe.check(inp, said))


def main() -> int:
    failures: list = []
    smoke(failures)
    workdir = run.RUN_DIR / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        planted(failures, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
