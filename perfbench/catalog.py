"""Job catalogs and the seeded passes drawn from them.

Every job is the argv a user would pass to ``grslice``.  The catalogs are
fixed lists, so each job has a golden document hash in ``goldens.json``.
A catalog is split into strata; a pass issues ``copies`` jobs of every
stratum, so every pass has the same cost mix.  Which members of a stratum a
pass takes depends on the pass number alone: members of one stratum differ
in cost by up to 40% (chamber, sign of mu), and runs with different seeds
should differ in order, not in cost.  The seed decides the order in which
each pass issues its jobs.

a1-exact, higher-rank
    A stratum is one command on one slice (on A1, mu and -mu together); its
    members differ in chamber, polarization, bundle or sign of mu.
    Successive passes take different members, and every job misses the
    cache.
cached-replay
    A stratum is one request, and its copies are repeats of it: a pass
    issues a small catalog of cheap jobs with large documents, in both
    output formats, each a number of times that falls off with its rank as
    an assumed Zipf law.  The first request for a key computes and stores
    it; repeats read it back, so cache reads and writes alternate through
    the pass.
"""

from __future__ import annotations

import math
import random
from typing import List, NamedTuple, Tuple


class Job(NamedTuple):
    argv: Tuple[str, ...]

    @property
    def key(self) -> str:
        """Identity of the job, and its key in the golden table."""
        return " ".join(self.argv)

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"


class Stratum(NamedTuple):
    name: str
    copies: int  # jobs of this stratum in every pass
    jobs: List[Job]


def _slice_args(letter: str, rank: int, lam: str, mu: str) -> List[str]:
    return ["--type", letter, "--rank", str(rank), "--lambda", lam, "--mu", mu]


def _signs(pattern: str, count: int) -> str:
    if pattern == "alternating":
        return ",".join("+1" if i % 2 == 0 else "-1" for i in range(count))
    return ",".join(["-1"] * count)


# -- a1-exact -----------------------------------------------------------------------

# Rank-one slices lambda = (1,...,1) of length l <= 7 with at least two fixed
# points.  Jobs that take longer than about a second at the seed commit are
# left out (verify duality and recursion at l = 7, |mu| = 1).  No traffic
# record says which slices users ask for, so every stratum gets one job per
# pass.
_A1_LENGTHS = (3, 4, 5, 6, 7)
# Rational coordinates name the same two chambers; they are distinct requests.
_A1_CHAMBERS = ("dominant", "antidominant", "1/2", "-3")
_A1_POLARIZATIONS = ("repelling", "alternating", "negative")


def _a1_strata() -> List[Stratum]:
    strata: List[Stratum] = []
    for length in _A1_LENGTHS:
        lam = ",".join(["1"] * length)
        for size in range(length % 2, length - 1, 2):
            # mu and -mu give mirror-image slices of the same cost
            mus = sorted({size, -size})
            where = f"A1 l={length} |mu|={size}"
            commands = [["stab-exact"]]
            if not (length == 7 and size == 1):
                commands += [["verify", "duality"], ["verify", "recursion"]]
            for command in commands:
                jobs = []
                for mu in mus:
                    points = math.comb(length, (length + mu) // 2)
                    for chamber in _A1_CHAMBERS:
                        for pol in _A1_POLARIZATIONS:
                            extra = ["--chamber", chamber]
                            if pol != "repelling":
                                # one token: argparse takes "-1,..." for an option
                                extra.append("--polarization=" + _signs(pol, points))
                            argv = command + _slice_args("A", 1, lam, str(mu)) + extra
                            jobs.append(Job(tuple(argv)))
                strata.append(Stratum(f"{' '.join(command)} {where}", 1, jobs))
            bundles = sorted({f"L{length // 2}", "L1", "E1", f"E{length}"})
            jobs = [Job(tuple(["mult"] + _slice_args("A", 1, lam, str(mu))
                              + ["--chamber", chamber, "--bundle", bundle]))
                    for mu in mus for chamber in _A1_CHAMBERS for bundle in bundles]
            strata.append(Stratum(f"mult {where}", 1, jobs))
    return strata


# -- higher-rank ---------------------------------------------------------------------

# (type, rank, lambda, mu, checks): small slices of rank two to four.  Each
# slice gets stab-mod-h2 and mult jobs, plus the verify suites listed with
# it: those that finish within about half a second at the seed commit
# (verify oracle on A2 (1,1,1) takes 2 s, on A3 (1,3) one second).
_HIGHER_RANK_SLICES = (
    ("A", 2, "1,1,1", "0,0", ("wallcross",)),
    ("A", 2, "1,2", "0,0", ("wallcross", "oracle")),
    ("A", 2, "2,1", "0,0", ("wallcross", "oracle")),
    ("A", 2, "1,1,1", "3,0", ("wallcross", "oracle")),
    ("A", 2, "1,1,1", "1,1", ("wallcross", "oracle")),
    ("A", 2, "1,1,1,1", "1,0", ()),
    ("A", 2, "2,2,2", "0,0", ("wallcross",)),
    ("A", 2, "1,2,1,2", "0,0", ()),
    ("A", 2, "1,1,2,2", "0,0", ()),
    ("A", 3, "1,3", "0,0,0", ("wallcross",)),
    ("A", 3, "3,1", "0,0,0", ("wallcross",)),
    ("A", 3, "2,2", "0,0,0", ()),
    ("A", 3, "1,1,2", "0,0,0", ()),
    ("B", 2, "2,2", "0,0", ("wallcross", "oracle")),
    ("B", 2, "2,2", "1,0", ("wallcross", "oracle")),
    ("C", 2, "1,1", "0,0", ("wallcross",)),
    ("C", 2, "1,1", "0,1", ("wallcross", "oracle")),
    ("D", 4, "1,1", "0,0,0,0", ()),
    ("D", 4, "1,1", "0,1,0,0", ("wallcross", "oracle")),
    ("D", 4, "3,3", "0,1,0,0", ("wallcross", "oracle")),
)
# Besides the two standard chambers, one generic chamber per type given by
# coordinates that avoid every root hyperplane.
_HIGHER_RANK_CHAMBERS = {
    ("A", 2): ("dominant", "antidominant", "2,-1"),
    ("A", 3): ("dominant", "antidominant", "2,-1,2"),
    ("B", 2): ("dominant", "antidominant", "3,-1"),
    ("C", 2): ("dominant", "antidominant", "3,-1"),
    ("D", 4): ("dominant", "antidominant", "1,-2,3,3"),
}

def _higher_rank_strata() -> List[Stratum]:
    strata: List[Stratum] = []
    for letter, rank, lam, mu, checks in _HIGHER_RANK_SLICES:
        base = _slice_args(letter, rank, lam, mu)
        chambers = [["--chamber", chamber] for chamber in _HIGHER_RANK_CHAMBERS[letter, rank]]
        length = len(lam.split(","))
        bundles = [f"L{k}" for k in range(1, length)] + [f"E{i}" for i in range(1, length + 1)]
        where = f"{letter}{rank} {lam} mu={mu}"
        strata.append(Stratum(f"stab-mod-h2 {where}", 1,
                              [Job(tuple(["stab-mod-h2"] + base + ch)) for ch in chambers]))
        strata.append(Stratum(f"mult {where}", 1,
                              [Job(tuple(["mult"] + base + ch + ["--bundle", bundle]))
                               for ch in chambers for bundle in bundles]))
        for check in checks:
            strata.append(Stratum(f"verify {check} {where}", 1,
                                  [Job(tuple(["verify", check] + base + ch)) for ch in chambers]))
    return strata


# -- cached-replay ----------------------------------------------------------------------

# Cheap to compute, large to return: the two largest tangent documents are
# 1.2 and 1.4 MB of JSON.  No record of grslice traffic exists, so the skew
# is an assumption: the job of rank r (its place in this list) is requested
# round(_REPLAY_HEAD / r) times per pass in each output format, a Zipf law of
# exponent 1, the usual model of request popularity in front of a cache.
# The ranking puts large and small documents near the head, so that hits of
# both sizes are common.  _REPLAY_HEAD sets the length of a pass (about
# seven seconds of job time at the seed commit); it is not taken from any
# measurement.
_REPLAY_HEAD = 12
_REPLAY_JOBS = (
    ("tangent", "A", 1, ",".join(["1"] * 12), "0"),
    ("stab-exact", "A", 1, "1,1,1,1,1", "1"),
    ("tangent", "A", 3, "1,2,3,1,2,3", "0,0,0"),
    ("fixed-points", "A", 1, ",".join(["1"] * 12), "0"),
    ("mult", "A", 2, "1,1,1", "0,0"),
    ("tangent", "B", 2, "2,2,2,2,2,2", "0,0"),
    ("tangent", "C", 2, "1,1,1,1,1,1", "0,0"),
    ("tangent", "D", 4, "1,1,3,3", "0,0,0,0"),
    ("stab-mod-h2", "A", 2, "1,1,1", "0,0"),
    ("tangent", "A", 2, "1,1,1,1,1,1", "0,0"),
    ("fixed-points", "A", 3, "1,2,3,1,2,3", "0,0,0"),
    ("tangent", "A", 1, ",".join(["1"] * 10), "2"),
    ("stab-exact", "A", 1, "1,1,1,1,1,1", "2"),
    ("tangent", "A", 1, ",".join(["1"] * 11), "1"),
    ("fixed-points", "A", 1, ",".join(["1"] * 10), "0"),
    ("mult", "A", 1, "1,1,1,1,1", "1"),
    ("stab-exact", "A", 1, "1,1,1,1", "0"),
    ("fixed-points", "A", 2, "1,1,1,1,1,1", "0,0"),
    ("tangent", "A", 3, "1,1,1,1", "0,0,0"),
    ("stab-mod-h2", "B", 2, "2,2", "0,0"),
)
_REPLAY_FORMATS = ("json", "table")


def _replay_strata() -> List[Stratum]:
    strata: List[Stratum] = []
    for place, (command, letter, rank, lam, mu) in enumerate(_REPLAY_JOBS, 1):
        count = max(1, round(_REPLAY_HEAD / place))
        argv = [command] + _slice_args(letter, rank, lam, mu)
        if command == "mult":
            argv += ["--bundle", "L1"]
        for fmt in _REPLAY_FORMATS:
            job = Job(tuple(argv + ["--format", fmt]))
            strata.append(Stratum(job.key, count, [job]))
    return strata


# -- passes -----------------------------------------------------------------------

STRATA = {
    "a1-exact": _a1_strata,
    "higher-rank": _higher_rank_strata,
    "cached-replay": _replay_strata,
}
WORKLOADS = tuple(STRATA)


def catalog(workload: str) -> List[Job]:
    return [job for stratum in STRATA[workload]() for job in stratum.jobs]


def datums(workload: str) -> List[Tuple[str, int]]:
    """The (type, rank) pairs the workload's jobs use, in a fixed order."""
    found = set()
    for job in catalog(workload):
        argv = job.argv
        found.add((argv[argv.index("--type") + 1], int(argv[argv.index("--rank") + 1])))
    return sorted(found)


def pass_jobs(workload: str, seed: int, number: int) -> List[Job]:
    """The jobs of pass `number` of a run with this seed, in issue order.

    Each stratum contributes its copies, taken in turn from a fixed
    permutation of its members, so passes differ until a stratum's members
    run out; a one-member stratum repeats its job.
    """
    jobs: List[Job] = []
    for stratum in STRATA[workload]():
        members = random.Random(stratum.name).sample(stratum.jobs, len(stratum.jobs))
        start = number * stratum.copies
        jobs += [members[(start + c) % len(members)] for c in range(stratum.copies)]
    random.Random(f"{workload}:{seed}:pass{number}").shuffle(jobs)
    return jobs
