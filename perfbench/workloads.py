"""The four workloads.

Each workload object is built once per set-up.  ``setup`` is timed and
makes the inputs and whatever the program must load before the first
operation; ``prepare`` makes the checker's expectations (untimed);
``next_input`` picks the next operation's argument (untimed); ``op`` is
one timed operation; ``check`` verifies its output (untimed) and raises
:class:`check.CheckFailure` when it is wrong.  An ``op`` that runs for
more than a fraction of a second is a generator: each ``yield`` lets the
benchmark measure machine speed before the next step, and its return
value is the output.

Calls into the program go through module attributes (``cli.main``,
``textio.parse_gmap``, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

from gmapkit import cli, rewrite, scheme, textio

from check import Alphas, RawMap, check_obj, check_report, checked_alphas, read_gmap, require
from inputs import DUAL_RULE, VI_DIRECTIVE, VI_RULE, break_map, dart_name, grid_mesh


def run_cli(argv: list[str]) -> str:
    """One ``gmapkit`` command; its standard output, or an error if it failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gmapkit {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    k = 0  # grid size of the base mesh
    setups = 3  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, k: int, workdir: Path):
        self.k = k
        self.workdir = workdir
        self.rng = random.Random(f"{seed}:inputs")
        self.op_rng = random.Random(f"{seed}:ops")

    def unified_host(self) -> str:
        """Generate the seeded mesh and turn it into a .gmap document the
        way a user does: ``gmapkit unify mesh.off -o host.gmap``."""
        self.mesh = grid_mesh(self.k, self.rng)
        off = self.workdir / "mesh.off"
        off.write_text(self.mesh.off_text())
        host = self.workdir / "host.gmap"
        run_cli(["unify", str(off), "-o", str(host)])
        return host.read_text()


class Pipeline(Workload):
    """One CLI pass: unify -> validate -> apply VI -> export-obj."""

    # k=40 (14.4k darts) takes about 7.5 s a pass, so a 20 s run held only
    # three passes and its median followed the shared machine's noise
    k = 20
    # its set-up is little more than the program's import, which varies
    # by 20% between samples, so take the median of more of them
    setups = 9

    def setup(self):
        self.mesh = grid_mesh(self.k, self.rng)
        self.off = self.workdir / "mesh.off"
        self.off.write_text(self.mesh.off_text())
        self.rule = self.workdir / "vi.jrule"
        self.rule.write_text(VI_RULE)
        self.host = self.workdir / "host.gmap"
        self.out = self.workdir / "out.gmap"
        self.obj = self.workdir / "out.obj"

    def prepare(self):
        self.edge_uses = self.mesh.edge_uses()

    def next_input(self, i):
        m = self.op_rng.randrange(len(self.mesh.faces))
        face = self.mesh.faces[m]
        p = self.op_rng.randrange(len(face))
        v, w = face[p], face[(p + 1) % len(face)]
        return (v, w), dart_name(v, (v, w), m)

    def op(self, inp):
        _, dart = inp
        run_cli(["unify", str(self.off), "-o", str(self.host)])
        yield
        said = run_cli(["validate", str(self.host)])
        yield
        run_cli(["apply", str(self.rule), str(self.host), "--dart", dart,
                 "--ebd", VI_DIRECTIVE, "-o", str(self.out)])
        yield
        run_cli(["export-obj", str(self.out), "--pos", "pos", "-o", str(self.obj)])
        return said

    def check(self, inp, said):
        (v, w), _ = inp
        require(said == "ok\n", f"validate printed {said!r}")
        corners = self.mesh.corners()
        host = read_gmap(self.host.read_text())
        checked_alphas(host)
        require(len(host.darts) == 2 * corners, "unify made the wrong number of darts")
        interior = self.edge_uses[(min(v, w), max(v, w))] == 2
        out = read_gmap(self.out.read_text())
        checked_alphas(out)
        require(len(out.darts) == len(host.darts) + (4 if interior else 2), "VI added the wrong darts")
        vs = self.mesh.vertices
        mid = tuple((a + b) / 2 for a, b in zip(vs[v], vs[w]))
        check_obj(self.obj.read_text(), vs + [mid], len(self.mesh.faces), corners + (2 if interior else 1))


class RewriteChain(Workload):
    """Chained vertex insertions at seeded darts, restarting every 10."""

    k = 20
    chain = 10

    def setup(self):
        self.pristine = textio.parse_gmap(self.unified_host())
        self.rule = textio.parse_rule_scheme(VI_RULE)
        self.directives = [rewrite.parse_directive(VI_DIRECTIVE)]

    def prepare(self):
        raw = RawMap.of_gmap(self.pristine)
        self.euler = self._euler(checked_alphas(raw))
        self.current = self.pristine

    @staticmethod
    def _euler(alphas: Alphas) -> int:
        v, e, f = alphas.cell_counts()
        return v - e + f

    def next_input(self, i):
        if i % self.chain == 0:
            self.current = self.pristine
        return self.current, self.op_rng.choice(self.current.darts)

    def op(self, inp):
        g, dart = inp
        inst = scheme.instantiate_rule(self.rule, g, dart)
        match = rewrite.complete_match(inst, g)
        return rewrite.apply_rule(inst, g, match, self.directives)

    def check(self, inp, result):
        g, _ = inp
        alphas = checked_alphas(RawMap.of_gmap(result))
        require(len(result.darts) - len(g.darts) in (2, 4), "VI changed the dart count by neither 2 nor 4")
        require(self._euler(alphas) == self.euler, "VI changed the Euler characteristic")
        self.current = result


class ValidateBroken(Workload):
    """Full validation and report rendering of seeded broken maps, in rotation."""

    k = 40
    maps = 2

    def setup(self):
        raw = read_gmap(self.unified_host())
        alphas = Alphas(raw)
        self.broken = []
        self.expected = []
        for _ in range(self.maps):
            text, expected = break_map(raw, alphas, self.rng)
            self.broken.append(textio.parse_gmap(text))
            self.expected.append(expected)

    def prepare(self):
        self.first_report = [None] * self.maps

    def next_input(self, i):
        return i % self.maps

    def op(self, j):
        return self.broken[j].validate().lines()

    def check(self, j, lines):
        if self.first_report[j] is None:
            check_report(lines, self.expected[j])
            self.first_report[j] = lines
        else:
            require(lines == self.first_report[j], "report changed between validations of one map")


class GlobalDual(Workload):
    """The Dual rule on the whole map, so two applications restore it."""

    k = 20

    def setup(self):
        text = self.unified_host()
        # pos on <1,2> would not survive the dual; the same values on <1>
        # (corners) do, since 1-links stay 1-links.
        require(text.count("    orbit: 1 2\n") == 1, "host has no single vertex layer")
        self.pristine = textio.parse_gmap(text.replace("    orbit: 1 2\n", "    orbit: 1\n"))
        self.rule = textio.parse_rule_scheme(DUAL_RULE)

    def prepare(self):
        raw = RawMap.of_gmap(self.pristine)
        self.links = raw.link_multiset()
        self.counts = checked_alphas(raw).cell_counts()
        self.current = self.pristine
        self.applied = 0

    def next_input(self, i):
        return self.current, self.op_rng.choice(self.current.darts)

    def op(self, inp):
        g, dart = inp
        inst = scheme.instantiate_rule(self.rule, g, dart)
        yield
        match = rewrite.complete_match(inst, g)
        yield
        return rewrite.apply_rule(inst, g, match, ())

    def check(self, inp, result):
        raw = RawMap.of_gmap(result)
        v, e, f = checked_alphas(raw).cell_counts()
        pv, pe, pf = self.counts
        require((v, e, f) == (pf, pe, pv), f"dual has V,E,F = {v},{e},{f} after {pv},{pe},{pf}")
        if self.applied % 2 == 1:
            require(raw.link_multiset() == self.links, "two duals did not restore the links")
        self.applied += 1
        self.counts = (v, e, f)
        self.current = result


WORKLOADS = {
    "pipeline": Pipeline,
    "rewrite-chain": RewriteChain,
    "validate-broken": ValidateBroken,
    "global-dual": GlobalDual,
}
