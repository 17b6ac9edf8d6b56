"""The benchmark's workloads: which seaweeds a run verifies, and in what order.

A spec is named by a key "<type><rank>:<pi1>|<pi2>", e.g. "A3:1,3|2", with
the simple-root indices of pi1 and pi2 in increasing order.  Inputs depend
only on the workload and the seed; the program receives only the specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    types: tuple            # ((type_label, rank), ...), built during set-up
    path: str               # "verify" (verify_report), "info" (info_fragment)
    max_degree: int | None = None
    sample: int | None = None  # seeded specs per type, drawn from a fixed pool
    orbits: bool = False    # one spec per symmetry orbit (see _orbit_reps)


# How many specs per type the fixed pool of a sampled workload holds; the
# recorded digests cover exactly this pool.
POOL_SIZE = 512
# How many of the largest pool specs per type every sample includes.
TOP = 6

WORKLOADS = {w.name: w for w in (
    # The rank <= 2 sweeps of the acceptance suite (its session fixture).
    # A3 (11 s) and C3 (73-97 s) are left out: a run must fit about three
    # passes into 30 s, so that medians over passes absorb timing noise.
    Workload("acceptance", (("A", 1), ("A", 2), ("B", 2), ("G", 2)),
             "verify"),
    # A4 at degree 1: invariant subcomplexes, rigidity certificates and the
    # center split dominate, not adjoint cohomology (A4's C^3 of the whole
    # algebra has 48,576 cochains, out of budget at this commit).
    Workload("rank4-certify", (("A", 4),), "verify", max_degree=1,
             orbits=True),
    # E6/E7 construction with the full Jacobi check, then the info path.
    # E8 is left out: one E8 set-up (10 s) would dominate every run.  The
    # whole E7 algebra is not forced into the pool: alone it took 3.5-6.5 s
    # from run to run on a shared 2-core VM, beyond the benchmark's bounds.
    Workload("structure-E", (("E", 6), ("E", 7)), "info", sample=64),
    # A2 only: small enough for the benchmark's own tests.
    Workload("tiny", (("A", 2),), "verify"),
)}


def spec_key(type_label, rank, pi1, pi2):
    def fmt(pi):
        return ",".join(str(i) for i in sorted(pi))
    return f"{type_label}{rank}:{fmt(pi1)}|{fmt(pi2)}"


def parse_key(key):
    """(type_label, rank, pi1, pi2) with pi1, pi2 as tuples of ints."""
    head, pis = key.split(":")
    a, b = pis.split("|")

    def parse(text):
        return tuple(int(t) for t in text.split(",")) if text else ()
    return head[0], int(head[1:]), parse(a), parse(b)


def _subset(rank, mask):
    return tuple(i + 1 for i in range(rank) if mask >> i & 1)


def _sweep(type_label, rank):
    n = 1 << rank
    return [spec_key(type_label, rank, _subset(rank, a), _subset(rank, b))
            for a in range(n) for b in range(n)]


def _orbit_reps(type_label, rank):
    """The least spec of each orbit under (pi1|pi2) -> (pi2|pi1), which the
    Chevalley involution realizes, and the type-A diagram flip i -> rank+1-i.
    Specs in one orbit are isomorphic seaweeds with the same checks."""
    def flip(mask):
        return sum(1 << (rank - 1 - i) for i in range(rank) if mask >> i & 1)
    n = 1 << rank
    reps = [(a, b) for a in range(n) for b in range(n)
            if (a, b) == min((a, b), (b, a), (flip(a), flip(b)),
                             (flip(b), flip(a)))]
    return [spec_key(type_label, rank, _subset(rank, a), _subset(rank, b))
            for a, b in reps]


def _sample_pool(type_label, rank):
    """POOL_SIZE distinct (pi1|pi2) pairs, drawn once with a fixed seed."""
    rng = random.Random(f"pool:{type_label}{rank}")
    seen = set()
    while len(seen) < POOL_SIZE:
        seen.add((rng.randrange(1 << rank), rng.randrange(1 << rank)))
    return [spec_key(type_label, rank, _subset(rank, a), _subset(rank, b))
            for a, b in sorted(seen)]


def pool(workload):
    """Every spec a run of this workload can verify, in a fixed order."""
    out = []
    for type_label, rank in workload.types:
        if workload.sample:
            out += _sample_pool(type_label, rank)
        elif workload.orbits:
            out += _orbit_reps(type_label, rank)
        else:
            out += _sweep(type_label, rank)
    return out


def inputs(workload, seed, dims):
    """The specs of one run, in run order.

    Sweeps are permuted by the seed.  A sampled workload takes, per type,
    the TOP largest pool specs by dim s (so the worst spec is the same on
    every seed) and one spec from each of `sample - TOP` strata of the rest
    ordered by dim s (so every seed sees the same spread of sizes); `dims`
    maps each pool key to its dim s.
    """
    rng = random.Random(seed)
    keys = pool(workload)
    if workload.sample:
        keys = []
        for type_label, rank in workload.types:
            ranked = sorted(_sample_pool(type_label, rank),
                            key=lambda k: (-dims[k], k))
            keys += ranked[:TOP]
            rest, strata = ranked[TOP:], workload.sample - TOP
            for i in range(strata):
                lo, hi = i * len(rest) // strata, (i + 1) * len(rest) // strata
                keys.append(rest[rng.randrange(lo, hi)])
    rng.shuffle(keys)
    return keys


def run_spec(workload, cli, seaweed, ambients, key):
    """One spec through the program's public API: build, then report."""
    type_label, rank, pi1, pi2 = parse_key(key)
    spec = seaweed.SeaweedSpec.make(type_label, rank, pi1, pi2)
    sw = seaweed.build_seaweed(ambients[(type_label, rank)], spec)
    if workload.path == "info":
        return cli.info_fragment(sw, spec)
    return cli.verify_report(sw, spec, max_degree=workload.max_degree)
