"""Seeded random Burling set generator.

Grows a set one element at a time from a singleton, using only moves that
provably preserve the axioms: attaching a fresh probe to an exposed
element, an outer join of a fresh crossing partner at a root, and an inner
join folding the current probes into a fresh enclosing element.  Each move
records its adj pairs and the covers it sets in place, and the set is built
once, at the end, held by its covers (see core).  The moves make it a
Burling set, so it is not verified here: verify_axioms is for sets that
come from outside.

The random stream is splitmix64, fixed here by recurrence so corpora are
reproducible bit for bit from the seed:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z ^ (z >> 31)
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BurlingSet
from .errors import InputError

_MASK = (1 << 64) - 1

# The largest target_size: with every move an inner join, prec grows to
# 1 997 001 pairs here.  The set is held by its covers, about 0.1 s and
# 17 MB; building prec when it is read takes about 1 s and 220 MB more.
_MAX_TARGET_SIZE = 2000


class SplitMix64:
    """The splitmix64 pseudo-random stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next() % n

    def coin(self) -> bool:
        return bool(self.next() & 1)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    target_size: int
    probe_bias: float = 0.5  # chance of attaching a probe vs joining
    join_mix: float = 0.5  # chance a join folds probes vs adds a crossing

    def __post_init__(self):
        for name in ("seed", "target_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"{name} must be an integer, got {v!r}")
        if not 1 <= self.target_size <= _MAX_TARGET_SIZE:
            raise InputError(f"target_size must be between 1 and {_MAX_TARGET_SIZE}")
        for name in ("probe_bias", "join_mix"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must be a number in [0, 1], got {v!r}")


def _pick(rng: SplitMix64, pool) -> object:
    items = sorted(pool)
    return items[rng.randrange(len(items))]


def gen_burling(cfg: GeneratorConfig) -> BurlingSet:
    """A random Burling set with exactly cfg.target_size elements 0..k-1."""
    rng = SplitMix64(cfg.seed)
    attach_cut = int(cfg.probe_bias * (1 << 64))
    inner_cut = int(cfg.join_mix * (1 << 64))

    cover = dict.fromkeys(range(cfg.target_size))
    adj = set()
    probes = {0}
    roots = {0}
    exposed = {0}  # the elements without a cover

    for fresh in range(1, cfg.target_size):
        if rng.next() < attach_cut:
            # fresh probe crossing out of an exposed element; the target
            # keeps its exposure, the new element is a probe
            q = _pick(rng, exposed)
            adj.add((fresh, q))
            probes.discard(q)
            probes.add(fresh)
            exposed.add(fresh)
        elif rng.next() < inner_cut:
            # fold a probe subset under a fresh enclosing element: the chosen
            # probes cross out of it, every other element nests inside it,
            # covered by it when it had no cover
            chosen = {p for p in sorted(probes) if rng.coin()}
            if not chosen:
                chosen = {_pick(rng, probes)}
            for x in exposed - chosen:
                cover[x] = fresh
            adj.update((p, fresh) for p in chosen)
            probes = set(chosen)
            roots = {fresh}
            exposed = set(chosen) | {fresh}
        else:
            # give a root a fresh crossing target; the root stays exposed
            q = _pick(rng, roots)
            adj.add((q, fresh))
            roots.discard(q)
            roots.add(fresh)
            exposed.add(fresh)

    return BurlingSet._from_covers(range(cfg.target_size), cover, adj)
