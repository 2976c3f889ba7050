"""Seeded metamorphic tests on generated Burling sets.

Renaming the elements of a Burling set by a random injection changes the
sorted order every tie-break in the library follows, but not the structure:
the axioms still hold, the optimum weight is the same, and frames built from
the renamed set give back the renamed set.  Restricting to a subset keeps
the axioms (they are universal statements about the elements they name) and
can only lower the optimum.
"""

from __future__ import annotations

import random

import pytest

from burling import (
    BurlingSet,
    GeneratorConfig,
    build_frames,
    extract_burling,
    gen_burling,
    restrict,
    solve_indep,
    verify_axioms,
)


def _relabel(b, name):
    return BurlingSet(
        (name[x] for x in b.elements),
        ((name[a], name[c]) for a, c in b.prec),
        ((name[a], name[c]) for a, c in b.adj),
    )


@pytest.mark.parametrize("seed", range(30))
def test_relabelling_and_restriction(seed):
    rng = random.Random(seed)
    b = gen_burling(
        GeneratorConfig(
            seed=seed,
            target_size=rng.randrange(1, 40),
            probe_bias=rng.random(),
            join_mix=rng.random(),
        )
    )
    ids = b.ordered()
    name = dict(zip(ids, rng.sample(range(10 * len(ids)), len(ids))))
    c = _relabel(b, name)
    weights = {name[x]: rng.randrange(100) for x in ids}

    assert verify_axioms(c).ok
    total = solve_indep(c, weights)[1]
    assert solve_indep(b, {x: weights[name[x]] for x in ids})[1] == total
    for linear in (False, True):
        assert extract_burling(build_frames(c, linear)) == c

    u = rng.sample(sorted(c.elements), rng.randrange(1, len(ids) + 1))
    r = restrict(c, u)
    assert verify_axioms(r).ok
    assert solve_indep(r, {x: weights[x] for x in u})[1] <= total
