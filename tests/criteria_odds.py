"""How likely acceptance criteria 7 and 8 are to pass on a fresh stream.

Not a Tier-1 test (pytest does not collect it).  Run it by hand, in about
20 s on one CPU:

    PYTHONPATH=src python tests/criteria_odds.py [--seeds 30]

It runs the rollouts behind criteria 7 and 8 of tests/test_acceptance.py,
with their scenarios and bounds, on seeds 0 to N - 1 instead of 0 to 4, and
prints each seed's margins and verdicts, each check's pass rate over the
seeds, and the binomial chance that five seeds drawn at those rates pass the
criterion as the test states it.  A criterion whose chance is well below 1
can fail on a new noise stream or trace epoch without any defect; its fixed
seeds 0 to 4 are then one draw, not a guarantee.  The script changes no
criterion, seed or bound.
"""

from __future__ import annotations

import argparse
from math import comb

from flockspc import aggregate, build_scenario, run_scenario, thresholds_for_scenario

SEEDS_PER_CRITERION = 5  # seeds 0-4 in tests/test_acceptance.py
PFC_VIOLATIONS_NEEDED = 3  # criterion 8: the baseline breaks separation on a majority


def _summary(cfg):
    return aggregate(run_scenario(cfg), thresholds_for_scenario(cfg))


def _at_least(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=30)
    seeds = range(parser.parse_args().seeds)
    print("seed | c7 SPC/A none: dist_min comp_max verdict | "
          "c8 SPC/B three: dist_min clear | c8 PFC/B three: dist_min violated")
    c7 = spc = pfc = 0
    for seed in seeds:
        s7 = _summary(build_scenario(9, "none", "SPC", "A", seed=seed, duration=60.0,
                                     noise_sigma=0.10))
        ok7 = s7.dist_min > 0.20 and s7.comp_max < 10.0
        s8 = _summary(build_scenario(9, "three", "SPC", "B", seed=seed, duration=60.0))
        b8 = _summary(build_scenario(9, "three", "PFC", "B", seed=seed, duration=60.0))
        c7, spc, pfc = c7 + ok7, spc + (s8.dist_ok is True), pfc + (b8.dist_ok is False)
        print(f"{seed:4d} | {s7.dist_min:.3f} {s7.comp_max:.3f} {'pass' if ok7 else 'FAIL'} | "
              f"{s8.dist_min:.3f} {s8.dist_ok is True} | {b8.dist_min:.3f} {b8.dist_ok is False}")
    n = len(seeds)
    p7, ps, pp = c7 / n, spc / n, pfc / n
    k = SEEDS_PER_CRITERION
    print(f"criterion 7: passes on {c7}/{n} seeds; "
          f"P(5 seeds pass) = {p7:.2f}**5 = {p7**k:.3f}")
    both = ps**k * _at_least(PFC_VIOLATIONS_NEEDED, k, pp)
    print(f"criterion 8: SPC clear on {spc}/{n} seeds, baseline violates on {pfc}/{n}; "
          f"P(5 seeds pass) = {ps:.2f}**5 * P(Bin(5, {pp:.2f}) >= 3) = "
          f"{ps**k:.3f} * {_at_least(PFC_VIOLATIONS_NEEDED, k, pp):.3f} = {both:.3f}")


if __name__ == "__main__":
    main()
