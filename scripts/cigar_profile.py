#!/usr/bin/env python3
"""Profile the steady plane soliton along its axis: fitted flag curvature
against the 2/cosh^2 t law, the infinity-Ricci ratio, and the S-curvature.

Usage:  python3 scripts/cigar_profile.py [--points 12] [--seed 0]
"""

import argparse
import math

import numpy as np

from finsler_solitons import finsler, fixtures, solitons
from finsler_solitons.jets import FlagPoint
from finsler_solitons.sampling import unit_direction


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    fx = fixtures.get_fixture("cigar")
    rng = np.random.default_rng(args.seed)
    print(f"{'t':>6} {'K fit':>12} {'2/cosh^2 t':>12} {'|diff|':>10} "
          f"{'Ric_inf/F^2':>12} {'S_BH':>10}")
    flags = [FlagPoint([t, rng.uniform(0, 2 * math.pi)], unit_direction(rng, 2))
             for t in np.linspace(0.2, 2.0, args.points)]
    ev = finsler.evaluate_flags(fx.metric, fx.measure, flags)
    for k, p in enumerate(flags):
        t = p.x[0]
        fit = finsler._flag_curvature(ev.bundle, k)
        law = 2.0 / math.cosh(t) ** 2
        ratio = ev.ric_inf[k] / fx.metric.value(p.x, p.y) ** 2
        # the measure is e^{-f} dm_BH, so S = S_BH + df(y)
        s_bh = ev.S[k] - float(fx.f.table(p.x, order=1)[1] @ p.y)
        print(f"{t:6.3f} {fit.value:12.8f} {law:12.8f} {abs(fit.value - law):10.2e} "
              f"{ratio:12.3e} {s_bh:10.2e}")
    bases = finsler.base_points(fx.metric, fx.measure, [[t, 0.0] for t in (0.3, 1.0, 1.8)])
    kappas, anis = solitons.fit_kappa(fx.metric, fx.measure, bases)
    print(f"\nfitted soliton scalar kappa(x): {kappas}  (anisotropy {anis:.2e})")


if __name__ == "__main__":
    main()
