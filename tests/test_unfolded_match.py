"""Match completion from the left side's sets against the walk.

``complete_match`` unfolds the match of a left instance from its hook
(``rewrite._unfolded``) and hands a host that disagrees to
``extend_match``, which walks ``rule.left``.  So the unfolding must give
what the walk gives from ``rule.seed()``: the same mapping and the same
host ``Link`` object per left link id where the walk succeeds, and
``None`` exactly where it raises.  ``complete_match`` must give the same
mapping and links, or the same error class and message.

The generated rules have hook decorations other than the parameter,
``_`` decorations, arcs in both directions and nodes that no arc
reaches.  Hosts come from ``random_valid_gmap`` or are a closed
tetrahedron, some marked by ``validate``, and some get a planted fault: a repeated dim, a missing
dim, two loops where a link was, or no anchor dart.
"""

import random

from hypothesis import given, settings, strategies as st

from gmapkit import (
    REMOVE,
    GeneralizedOrbitType,
    GraphScheme,
    OrbitType,
    RuleScheme,
    SchemeArc,
    complete_match,
    extend_match,
    instantiate_rule,
)
from gmapkit.mesh import PolygonalMesh, unify
from gmapkit.rewrite import _unfolded

from oracle import random_valid_gmap

FAULTS = ("none", "repeated", "missing", "loops", "gone")
TETRAHEDRON = PolygonalMesh(
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)),
)


def random_rule(rng: random.Random, n: int) -> RuleScheme:
    """A rule over a random parameter of dims in ``0..n`` whose left and
    right sides are one random scheme of 1-3 nodes.

    The nodes form a chain from the hook, and most links of the chain are
    arcs.  Most arcs have a dim outside the parameter, and most nodes keep
    just the links of the node before them that commute with their arc
    (dims at least 2 apart), so that matches with arcs are found, not only
    refused."""
    names = [f"n{k}" for k in range(rng.randint(1, 3))]
    # an arc from a whole-map orbit stays in it, where it cannot be injective
    dims = tuple(sorted(rng.sample(range(n + 1), rng.randint(0, n + (len(names) == 1)))))

    def decoration(removing: bool) -> GeneralizedOrbitType:
        targets = rng.sample(range(n + 1), len(dims))  # injective on dims
        share = rng.choice([0.0, 0.3, 1.0]) if removing else 0.0
        return GeneralizedOrbitType(tuple(REMOVE if rng.random() < share else t for t in targets))

    hook = rng.choice(names)
    chain = [hook] + rng.sample([m for m in names if m != hook], len(names) - 1)
    decorations = {hook: GeneralizedOrbitType(dims) if rng.random() < 0.4 else decoration(False)}
    outside = [k for k in range(n + 1) if k not in dims] or list(range(n + 1))
    arcs = []
    for a, b in zip(chain, chain[1:]):
        k = rng.choice(outside if rng.random() < 0.8 else range(n + 1))
        if rng.random() < 0.6:
            commuting = (REMOVE if e is REMOVE or abs(e - k) < 2 else e for e in decorations[a])
            decorations[b] = GeneralizedOrbitType(tuple(commuting))
        else:
            decorations[b] = decoration(True)
        if rng.random() < 0.8:
            arcs.append(SchemeArc(a, k, b) if rng.random() < 0.5 else SchemeArc(b, k, a))
    # a few more arcs, which mostly make the match conflict
    arcs += [SchemeArc(a, rng.randint(0, n), b) for a in names for b in names if a != b and rng.random() < 0.05]
    side = GraphScheme(OrbitType(dims), tuple((m, decorations[m]) for m in names), tuple(arcs))
    return RuleScheme("R", OrbitType(dims), side, side, hook)


def plant(rng: random.Random, host, dart: str, fault: str):
    """A copy of ``host`` with ``fault`` planted at ``dart``."""
    host = host.copy()
    graph = host.graph
    at = graph.incident_links(dart)
    if fault == "repeated":
        other = rng.choice(sorted(graph.nodes))
        graph._edit(links=[(rng.randint(0, host.n), (dart, other))])
    elif fault == "missing":
        graph._edit(drop=[rng.choice(at).id])
    elif fault == "loops":
        sewn = [l for l in at if len(l.ends) == 2]
        if sewn:
            link = rng.choice(sewn)
            graph._edit(drop=[link.id], links=[(link.dim, (u,)) for u in link.ends])
    elif fault == "gone":
        graph._edit(drop=[l.id for l in at], drop_nodes=[dart])
    return host


def random_case(seed: int):
    """``(instantiated rule, host to match against, fault)``."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        host = unify(TETRAHEDRON)  # closed: no dart is free in any dim
    else:
        host = random_valid_gmap(rng.randrange(2**16), n=rng.randint(0, 3), max_darts=14)
    rule = random_rule(rng, host.n)
    if rng.random() < 0.3:
        host.validate()  # marked: its darts have one link per dim
    anchor = rng.choice(sorted(host.darts))
    fault = rng.choice(FAULTS)
    faulty = host
    if fault == "gone":
        faulty = plant(rng, host, anchor, fault)
    elif fault != "none":
        orbit = host.orbit_darts(rule.parameter, anchor)
        faulty = plant(rng, host, rng.choice(orbit), fault)
    # instantiated on the host the match reads, or on the one before the fault
    inst = instantiate_rule(rule, host if fault == "gone" else rng.choice([host, faulty]), anchor)
    return inst, faulty, fault


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the class and message are the outcome
        return (type(exc), str(exc))


def check(inst, host):
    """Assert the unfolding and ``complete_match`` agree with the walk;
    whether the walk found a match."""
    walked = outcome(lambda: extend_match(inst.left, host, inst.seed()))
    unfolded = _unfolded(inst, host)
    completed = outcome(lambda: complete_match(inst, host))
    if isinstance(walked, tuple):
        assert unfolded is None
        assert completed == walked
        return False
    for match in (unfolded, completed):
        assert match.mapping == walked.mapping
        assert match.links.keys() == walked.links.keys()
        assert all(match.links[k] is h for k, h in walked.links.items())
    return True


@settings(max_examples=400, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_unfolded_match_agrees_with_the_walk(seed):
    inst, host, _ = random_case(seed)
    check(inst, host)


def test_the_cases_reach_every_branch_of_the_unfolding():
    # matches found through a relabeling hook and through arcs, and each
    # planted fault refused at least once
    seen = set()
    for seed in range(400):
        inst, host, fault = random_case(seed)
        decorations = dict(inst.rule.left.nodes)
        identity = tuple(decorations[inst.rule.hook]) == inst.rule.parameter.dims
        if check(inst, host):
            seen.add("hook" if identity else "relabeling hook")
            if len(inst.rule.left.nodes) > 1 and len(inst.orbit_graph) > 1:
                seen.add("arcs")
        else:
            seen.add(fault)
    assert seen == {"hook", "relabeling hook", "arcs", *FAULTS}

