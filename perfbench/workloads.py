"""Workload definitions: which CLI invocations one pass makes, at which size.

A pass calls `finsler_solitons.cli.main(argv)` once per invocation, in order.
Each invocation's `--seed` comes from the benchmark seed, so a seed gives the
same inputs on every run and a different seed gives fresh ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call without its seed: `verify` on a fixture or `crosscheck` on a suite."""

    command: str            # "verify" or "crosscheck"
    target: str             # fixture or suite name
    size: int               # --samples (verify) or --count (crosscheck)
    perturb: str | None = None
    draws_per_count: int = 1  # flags or points a crosscheck suite draws per --count

    @property
    def key(self) -> str:
        """Seed-free identity, used to look up the reference record."""
        return " ".join(self.argv(None))

    @property
    def flags(self) -> int:
        return self.size * self.draws_per_count

    def argv(self, seed: int | None) -> list[str]:
        if self.command == "verify":
            out = ["verify", "--fixture", self.target, "--samples", str(self.size)]
            if self.perturb is not None:
                out += ["--perturb", self.perturb]
        else:
            out = ["crosscheck", "--suite", self.target, "--count", str(self.size)]
        if seed is not None:
            out += ["--seed", str(seed)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict             # size name -> tuple[Invocation, ...]
    fixtures: tuple         # (name, perturb) pairs that set-up builds
    jet_spaces: tuple       # (nvars, order) pairs every pass uses


def _verify(fixtures, samples, control=None, repeats=1):
    out = [Invocation("verify", fx, samples) for _ in range(repeats) for fx in fixtures]
    if control is not None:
        out.append(Invocation("verify", control[0], samples, perturb=control[1]))
    return tuple(out)


def _crosscheck(counts):
    # Flags or points each suite draws per unit of --count (see suites.py).
    per_count = {"randers-ricci": 16, "lie-identity": 2, "navigation": 1,
                 "riemann-reduction": 1, "jets-vs-fd": 2, "isotropic-s": 1}
    suites = tuple(Invocation("crosscheck", s, c, draws_per_count=per_count[s])
                   for s, c in counts)
    # A 2-sample verify (about 2 % of a pass) runs the layers no suite
    # calls (sample_flags, _flag_rows, the soliton bundles and fits), so every
    # per-layer metric is measured on this workload too.
    return suites + (Invocation("verify", CROSSCHECK_VERIFY, 2),)


PLANE = ("gaussian", "gaussian-riemannian", "cigar")
CYLINDER = ("shrinking", "expanding")
CONTROL = ("cigar", "f:1e-2")
CROSSCHECK_VERIFY = "cigar"

WORKLOADS = {
    "verify-plane": Workload(
        name="verify-plane",
        why="dim-2 fixtures plus a negative control: per-call jet overhead and all four "
            "soliton bundles dominate, so a one-evaluation-per-flag change shows here",
        sizes={"full": _verify(PLANE, 64, CONTROL), "smoke": _verify(PLANE, 4, CONTROL)},
        fixtures=tuple((fx, None) for fx in PLANE) + (CONTROL,),
        jet_spaces=((2, 1), (2, 2), (4, 1), (4, 4)),
    ),
    "verify-cylinder": Workload(
        name="verify-cylinder",
        why="dim-4 cylinders, three 2-sample calls each: 495-term jets, large F^2 tables "
            "and fit_kappa dominate, so batched jets pay most here and their memory cost shows",
        # Short calls (about 1.3 s): the speed correction of speed.py holds for
        # calls of a second or so, not for the 5 s of one 32-sample call.
        sizes={"full": _verify(CYLINDER, 2, repeats=3), "smoke": _verify(CYLINDER, 2)},
        fixtures=tuple((fx, None) for fx in CYLINDER),
        jet_spaces=((4, 1), (4, 2), (8, 4)),
    ),
    "crosscheck": Workload(
        name="crosscheck",
        why="all six oracle suites plus a 2-sample cigar verify (about 2 % of a pass): "
            "_flag_rows and fit_kappa barely run and jets run at lower orders, so changes "
            "to those barely move it",
        sizes={"full": _crosscheck([("randers-ricci", 2), ("lie-identity", 20),
                                    ("navigation", 150), ("riemann-reduction", 10),
                                    ("jets-vs-fd", 3), ("isotropic-s", 6)]),
               "smoke": _crosscheck([("randers-ricci", 1), ("lie-identity", 2),
                                     ("navigation", 4), ("riemann-reduction", 2),
                                     ("jets-vs-fd", 1), ("isotropic-s", 2)])},
        fixtures=((CROSSCHECK_VERIFY, None),),
        jet_spaces=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
                    (4, 4), (6, 1), (6, 4)),
    ),
}


def cli_seeds(workload: str, bench_seed: int, count: int) -> list[int]:
    """The `--seed` of each invocation, derived from the benchmark seed."""
    rng = random.Random(f"{workload}:{bench_seed}")
    return [rng.randrange(1_000_000) for _ in range(count)]
