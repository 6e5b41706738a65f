"""gmapkit benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Lines before it starting with ``#`` are a readable
summary, raw wall-clock figures included.  Scratch files and the span
dump go to ``.perfbench_run/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import GeneratorType

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".perfbench_run"

#: operations needed before op_p90_ms is reported (at least ten beyond it)
P90_MIN_SAMPLES = 100

#: Times are reported in ms or s of a machine on which reference_ms()
#: takes this long.  Shared virtual machines can change speed by 10-60%
#: over seconds to minutes, for the program and the reference loop
#: alike, so each timing is scaled by the reference loop measured next
#: to it.
REFERENCE_MS = 8.0

# 300,000 distinct int objects (about 11 MB) read at fixed random places:
# the large-map workloads wait on memory, and so must the reference loop
_SPREAD = [i * 7 + 100_000 for i in range(300_000)]
_ORDER = random.Random(0).sample(range(len(_SPREAD)), 12_000)


def reference_ms() -> float:
    """Wall time of one fixed pure-Python loop, in ms: string keys into a
    dict and a sort, then reads scattered over a large list."""
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's heap is not machine speed
    try:
        t0 = perf_counter()
        table = {}
        for i in range(2000):
            key = f"v{i}e{i % 97}-{i % 13}f{i % 31}"
            table[key] = (i, key)
        sum(len(table[key][1]) for key in sorted(table))
        sum(_SPREAD[j] for j in _ORDER)
        return (perf_counter() - t0) * 1000
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-speed time, for an interval
    between reference loops that took ``before`` and ``after`` ms."""
    return REFERENCE_MS / ((before + after) / 2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import the program from ``src/`` and the benchmark modules beside this file."""
    src = ROOT / "src"
    if not (src / "gmapkit" / "__init__.py").is_file():
        raise ImportError(f"no gmapkit package under {src}")
    sys.dont_write_bytecode = True
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def metadata() -> dict:
    head = "unknown"
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_file = git / ref[5:]
            head = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            head = ref
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "gmapkit").glob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": head,
        "src_gmapkit_lines": lines,
    }


class Phase:
    """The outcome of one timed loop; ``latencies`` are at reference speed."""

    def __init__(self):
        self.latencies: list[float] = []  # successful operations only
        self.raw: list[float] = []  # the same, wall clock
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # wall seconds inside operations, failed ones included
        self.scaled_busy = 0.0  # the same, at reference speed
        self.references: list[float] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.scaled_busy if self.scaled_busy else 0.0


def report_failure(kind: str, exc: BaseException, phase: Phase) -> None:
    if phase.failed <= 3:
        print(f"# {kind} failed: {exc}", file=sys.stderr)
        if kind == "operation":
            traceback.print_exception(exc, file=sys.stderr)


def timed_op(work, inp, references: list, tracer=None):
    """Run one operation: (output, exception, wall s, reference-speed s).

    A reference loop runs after the operation and at each ``yield`` of a
    stepwise one; each stretch is scaled by the loops on either side.
    """
    wall = scaled = 0.0
    out = failure = None

    def lap(t0):
        nonlocal wall, scaled
        dt = perf_counter() - t0
        references.append(reference_ms())
        wall += dt
        scaled += dt * scale(*references[-2:])

    t0 = perf_counter()
    try:
        with tracer.span("op") if tracer else nullcontext():
            out = work.op(inp)
            if isinstance(out, GeneratorType):
                steps, out = out, None
                while True:
                    try:
                        next(steps)
                    except StopIteration as stop:
                        out = stop.value
                        break
                    with tracer.span("reference") if tracer else nullcontext():
                        lap(t0)
                    t0 = perf_counter()
    except Exception as exc:  # a failed operation is counted, not fatal
        failure = exc
    lap(t0)
    return out, failure, wall, scaled


def measure(work, seconds: float, start: int, tracer=None) -> Phase:
    """Closed loop: each operation starts when the previous one has been
    checked, until ``seconds`` of wall time have been spent inside
    operations, or twice that in all (operations that fail at once)."""
    from check import CheckFailure

    phase = Phase()
    phase.references.append(reference_ms())
    deadline = perf_counter() + 2 * seconds
    i = start
    while phase.busy < seconds and perf_counter() < deadline:
        inp = work.next_input(i)
        i += 1
        phase.attempted += 1
        out, failure, wall, scaled = timed_op(work, inp, phase.references, tracer)
        phase.busy += wall
        phase.scaled_busy += scaled
        if failure is not None:
            phase.failed += 1
            report_failure("operation", failure, phase)
            continue
        try:
            work.check(inp, out)
        except CheckFailure as exc:
            phase.failed += 1
            report_failure("check", exc, phase)
            continue
        phase.latencies.append(scaled)
        phase.raw.append(wall)
    return phase


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gmapkit, gmapkit.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter, timed inside it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-B", "-c", _IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def set_up(cls, seed, k, workdir, tracer=None):
    """Set up ``cls.setups`` times, each after a fresh import of the program
    and between reference loops.  Returns the last workload object, the
    wall and reference-speed seconds of each set-up, and the loop times."""
    wall, scaled = [], []
    references = [reference_ms()]
    for _ in range(cls.setups):
        work = None  # collect the previous set-up before timing the next
        gc.collect()
        imported = import_seconds()
        span = tracer.span("setup") if tracer else nullcontext()
        t0 = perf_counter()
        with span:
            work = cls(seed, k, workdir)
            work.setup()
        wall.append(imported + perf_counter() - t0)
        references.append(reference_ms())
        scaled.append(wall[-1] * scale(*references[-2:]))
    work.prepare()
    gc.collect()
    return work, wall, scaled, references


def end_to_end(setup_s: float, phase: Phase) -> dict:
    lat = phase.latencies
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000 if lat else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (len(lat) / phase.attempted if phase.attempted else 0.0, "share"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, k: int | None = None) -> dict:
    """One benchmark run; returns the result object that ``main`` prints."""
    workloads = load_program()
    from spans import Tracer

    cls = workloads.WORKLOADS[workload]
    k = k or cls.k
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            work, setup_wall, setup_scaled, refs = set_up(cls, seed, k, workdir, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if not tracer:
            phases = [measure(work, seconds, 0)]
        else:
            plain = measure(work, seconds / 2, 0)
            tracer.install()
            try:
                traced = measure(work, seconds / 2, plain.attempted, tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    meta = metadata()
    meta.update(workload=workload, seed=seed, seconds=seconds, k=k, setups=len(setup_wall))
    print("# " + json.dumps(meta))
    print(f"# failed_share {failed / attempted!r} ({failed} of {attempted} operations)")
    references = refs + [r for p in phases for r in p.references]
    print(f"# reference loop median {statistics.median(references)!r} ms (unit: {REFERENCE_MS} ms)")
    if tracer:
        overhead = plain.ops_per_s / traced.ops_per_s - 1 if traced.ops_per_s else 0.0
        speed = REFERENCE_MS / statistics.median(refs + traced.references)
        metrics = tracer.layer_metrics(overhead, speed)
        dump = RUN_DIR / f"trace-{workload}.jsonl"
        tracer.dump(dump, meta)
        print(f"# untraced {plain.ops_per_s!r} ops/s, traced {traced.ops_per_s!r} ops/s; spans in {dump}")
    else:
        phase = phases[0]
        metrics = end_to_end(statistics.median(setup_scaled), phase)
        raw = phase.raw
        print(f"# wall clock: setup_s {statistics.median(setup_wall)!r} s, ops_per_s {len(raw) / phase.busy if phase.busy else 0.0!r} 1/s, "
              f"op_p50_ms {statistics.median(raw) * 1000 if raw else 0.0!r} ms")
        lat = sorted(phase.latencies)
        if len(lat) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(lat, n=10)[8] * 1000
            print(f"# op_p90_ms {p90!r} ms (n={len(lat)})")
        else:
            print(f"# op_p90_ms not reported: {len(lat)} operations, fewer than {P90_MIN_SAMPLES}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        names = load_program().WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(names)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
