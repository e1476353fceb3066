"""Seeded command streams for the three benchmark workloads.

A stream is an endless sequence of cycles; a cycle is a short list of CLI
argv lists.  Every cycle holds the same slots in a seed-shuffled order, and
each slot draws its size parameter (|z|, levels, n_max, grid points, ...)
from a stratified sequence: cycle k uses the k-th point of the base-2 van
der Corput sequence, with a small per-seed jitter.  Any run of whole cycles
therefore sees the same mix of commands and an evenly spread range of
sizes, which keeps run-to-run spread small while the seed still changes
every input.  Cycle k depends only on (workload, seed, k), so the same seed
always gives the same stream.

The program sees nothing of this: it only receives the generated argv.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Callable, Iterator

Argv = list[str]
Cycle = list[Argv]


def _vdc(k: int, base: int) -> float:
    """k-th point of the van der Corput sequence in `base`, in [0, 1)."""
    x, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        x += digit * scale
        scale /= base
    return x


class _Strata:
    """Stratified draws in [0, 1) for cycle k: the k-th van der Corput point,
    shifted by a jitter below JITTER fixed per (workload, seed, slot).

    Latency is close to exponential in these draws (the level count of a
    moment problem, the n_max of a kernel), so a percentile moves by tens of
    percent when the draws of a run shift by one stratum.  The small jitter
    keeps the sizes of every run on nearly the same schedule; the seed varies
    the kappas, phases and order instead.  A second size drawn for the same
    command takes base 3, so the pair is spread over the square (a Halton
    sequence) rather than locked together."""

    JITTER = 1 / 256

    def __init__(self, prefix: str, k: int):
        self._prefix = prefix
        self._k = k

    def __call__(self, slot: str, base: int = 2) -> float:
        offset = self.JITTER * random.Random(f"{self._prefix}/{slot}").random()
        return (_vdc(self._k, base) + offset) % 1.0


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def fmt_kappas(kappas) -> str:
    return ",".join(str(Fraction(k)) for k in kappas)


def fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _polar(rng: random.Random, modulus: float) -> complex:
    theta = rng.uniform(-math.pi, math.pi)
    return complex(modulus * math.cos(theta), modulus * math.sin(theta))


def _phi(rng: random.Random) -> str:
    return repr(round(rng.uniform(-math.pi, math.pi), 6))


# ----------------------------------------------------------------- states
#
# The pool has the same shape for every seed (one entry per cost class) and
# slots take pool entries in rotation, so the seed changes the kappas but
# not how much work a cycle holds.

def _states_pool(rng: random.Random) -> dict:
    """A small per-seed pool of ladders, two of each cost class; every
    command picks from it, so kappas repeat within a run."""

    def finite(lo: int, hi: int) -> tuple[Fraction, ...]:
        d = rng.randint(lo, hi)
        return (Fraction(-1, d - 1), Fraction(1, rng.randint(1, 5)))[: rng.randint(1, 2)]

    r1, multi, finites = [], [], []
    for _ in range(2):
        r1 += [(Fraction(1, rng.randint(4, 9)),), (Fraction(rng.randint(1, 3), 2),)]
        multi.append((Fraction(1, rng.randint(2, 4)), Fraction(rng.randint(1, 3), 3)))
        finites += [finite(4, 10), finite(30, 40), finite(150, 200)]
    return {
        "zero": (Fraction(0),),
        "r1": r1,
        "infinite": r1[:2] + multi[:1] + r1[2:] + multi[1:],
        "finite": finites,
    }


def _states_cycle(pool: dict, rng: random.Random, u: _Strata, k: int) -> Cycle:
    finite, infinite, r1 = pool["finite"], pool["infinite"], pool["r1"]
    unbounded = [pool["zero"]] + infinite
    anywhere = unbounded + finite
    out: Cycle = []

    for i in range(2):
        kappas = anywhere[(k + 6 * i) % len(anywhere)]
        nmax = round(_log_between(1, 200, u(f"spectrum{i}")))
        out.append(["spectrum", "--kappa", fmt_kappas(kappas), "--nmax", str(nmax)])

    for i in range(2):
        kappas = finite[(2 * k + i) % 6]
        out.append(["rep-check", "--kappa", fmt_kappas(kappas), "--phi", _phi(rng)])
    window = round(_log_between(10, 200, u("rep-check")))
    out.append(["rep-check", "--kappa", fmt_kappas(unbounded[k % 7]),
                "--window", str(window), "--phi", _phi(rng)])

    for i in range(2):
        window = round(_log_between(4, 120, u(f"truncate{i}")))
        s = 1 + int(u(f"truncate-s{i}", base=3) * (window - 1))
        out.append(["truncate", "--kappa", fmt_kappas(infinite[(2 * k + i) % 6]),
                    "--window", str(window), "--s", str(s)])

    # cs-bg: one kappa = 0 slot across the double-overflow point |z| = 27,
    # one kappa = 0 slot below it, six slots on the other infinite ladders
    bg_slots = [(pool["zero"], 20.0, 35.0), (pool["zero"], 0.1, 20.0)]
    bg_slots += [(kappas, 0.1, 35.0) for kappas in infinite]
    for i, (kappas, lo, hi) in enumerate(bg_slots):
        z = _polar(rng, _log_between(lo, hi, u(f"cs-bg{i}")))
        argv = ["cs-bg", "--kappa", fmt_kappas(kappas), "--z", fmt_complex(z), "--phi", _phi(rng)]
        if (k + i) % 2:
            argv.append("--normalize")
        out.append(argv)

    per_slots = [(finite[(3 * k + i) % 6], "finite") for i in range(3)]
    per_slots += [(r1[(2 * k) % 4], "disk"), (r1[(2 * k + 1) % 4], "disk"), (pool["zero"], "zero")]
    # k % 4 would tie each kappa to one quarter of the strata (the top two
    # bits of the van der Corput point), so the dearest edge points, which
    # make the tail, would all take one kappa; k // 4 spreads them over all
    per_slots.append((r1[(k // 4) % 4], "edge"))
    if k == 0:
        per_slots.append((r1[1], "cap"))
    for i, (kappas, where) in enumerate(per_slots):
        v = u(f"cs-perelomov{i}")
        if where == "finite":
            modulus = _log_between(0.1, 5.0, v)
        elif where == "zero":
            modulus = _log_between(0.1, 8.0, v)
        else:
            if where == "disk":
                rho = 0.95 * v
            elif where == "edge":  # the last 1% of the disk: thousands of terms
                rho = 1.0 - 10.0 ** -(2.0 + 0.5 * v)
            else:  # so close to the rim that the series hits the term cap
                rho = 1.0 - 10.0 ** -4.5
            modulus = rho / math.sqrt(kappas[0])
        argv = ["cs-perelomov", "--kappa", fmt_kappas(kappas),
                "--z", fmt_complex(_polar(rng, modulus)), "--phi", _phi(rng)]
        if (k + i) % 2:
            argv.append("--normalize")
        out.append(argv)

    for kappas in finite[3 * (k % 2):][:2]:  # the small and mid ladders
        out.append(["cs-grassmann", "--kappa", fmt_kappas(kappas), "--phi", _phi(rng)])
    dim = round(_log_between(2, 60, u("cs-grassmann")))
    out.append(["cs-grassmann", "--kappa", fmt_kappas(unbounded[k % 7]),
                "--dim", str(dim), "--phi", _phi(rng)])
    return out


# ---------------------------------------------------------------- moments

def _moments_cycle(pool: None, rng: random.Random, u: _Strata, k: int) -> Cycle:
    """Fresh kappas for every command, so kappas almost never repeat.  The
    level counts and the numerators and denominators of the kappas, which
    set the size of the exact rationals, are all stratified."""

    def levels(slot: str, even: bool = False) -> int:
        n = round(_log_between(6, 64, u(slot)))
        return n + (n % 2) if even else n

    def integer(slot: str, lo: int, hi: int, base: int) -> int:
        return lo + int(u(slot, base) * (hi - lo + 1))

    def ells(slot: str, r: int) -> str:
        return ",".join(str(integer(f"{slot}{j}", 1, 9, (3, 5, 7)[j])) for j in range(r))

    q_ratio = integer("bg-ratio-q", 2, 29, 3)
    q_disk = integer("per-ratio-q", 2, 29, 3)
    # a perelomov measure on an infinite ladder exists only for kappa < 1
    # (kappa = 1 puts all mass on the rim, H_2 = 0), and near 1 the identity
    # check sums series at nodes by the rim, so kappa stays in [0.05, 0.7]
    p_disk = max(1, round((0.05 + 0.65 * u("per-ratio-p", 5)) * q_disk))
    return [
        ["measure", "--kappa", "0", "--kind", "barut-girardello",
         "--levels", str(levels("bg-zero"))],
        ["measure", "--kappa", fmt_kappas([Fraction(integer("bg-ratio-p", 1, 9, 5), q_ratio)]),
         "--kind", "barut-girardello", "--levels", str(levels("bg-ratio"))],
        ["measure", "--ell", ells("bg-ell", 1 + k % 3), "--kind", "barut-girardello",
         "--levels", str(levels("bg-ell"))],
        # an infinite-ladder perelomov rule takes an even moment count, so
        # that no completed node can leave the existence disk
        ["measure", "--kappa", fmt_kappas([Fraction(p_disk, q_disk)]), "--kind", "perelomov",
         "--levels", str(levels("per-ratio", even=True))],
        ["measure", "--ell", str(integer("per-ell", 2, 9, 3)), "--kind", "perelomov",
         "--levels", str(levels("per-ell", even=True))],
        ["measure", "--kappa", fmt_kappas([Fraction(-1, integer("finite", 2, 31, 2))]),
         "--kind", "perelomov"],
    ]


# ----------------------------------------------------------------- growth

def _growth_pool(rng: random.Random) -> list[str]:
    """Two ell tuples for each r = 1, 2, 3."""
    return [",".join(str(rng.randint(1, 6)) for _ in range(r)) for r in (1, 2, 3, 1, 2, 3)]


def _growth_cycle(pool: list[str], rng: random.Random, u: _Strata, k: int) -> Cycle:
    out: Cycle = []
    for i in range(3):
        nmax = round(_log_between(2000, 50000, u(f"growth{i}")))
        out.append(["bargmann-growth", "--ell", pool[(k + i) % 6], "--nmax", str(nmax)])
    for i in range(2):
        points = 2 * int(_log_between(4.5, 21, u(f"schwarz{i}"))) + 1  # odd, 9 .. 41
        w = _polar(rng, 1.5 * u(f"schwarz-w{i}", base=3))
        radius = 1.0 + 3.0 * u(f"schwarz-radius{i}", base=5)
        out.append(["schwarz", "--ell", pool[(k + i + 3) % 6], "--w", fmt_complex(w),
                    "--grid-points", str(points), "--grid-radius", repr(round(radius, 3)),
                    "--phi", _phi(rng)])
    return out


_WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "states": (_states_pool, _states_cycle),
    "moments": (lambda rng: None, _moments_cycle),
    "growth": (_growth_pool, _growth_cycle),
}

WORKLOADS = tuple(_WORKLOADS)


def cycles(workload: str, seed: int) -> Iterator[Cycle]:
    """The endless cycle stream of one workload; identical for equal seeds."""
    make_pool, make_cycle = _WORKLOADS[workload]
    pool = make_pool(random.Random(f"{workload}/{seed}"))
    for k in itertools.count():
        rng = random.Random(f"{workload}/{seed}/{k}")
        cycle = make_cycle(pool, rng, _Strata(f"{workload}/{seed}/strata", k), k)
        rng.shuffle(cycle)
        yield cycle


def argv_digest(argvs) -> str:
    """sha256 over the argv lists, for showing two runs got the same load."""
    h = hashlib.sha256()
    for argv in argvs:
        h.update(json.dumps(argv).encode())
        h.update(b"\n")
    return h.hexdigest()


def kappa_key(argv: Argv) -> str:
    """The ladder a command runs on, with --ell folded into kappas."""
    for flag in ("--kappa", "--ell"):
        if flag in argv:
            text = argv[argv.index(flag) + 1]
            if flag == "--ell":
                return fmt_kappas(Fraction(1, int(e)) for e in text.split(","))
            return fmt_kappas(text.split(","))
    raise ValueError(f"no ladder parameters in {argv}")
