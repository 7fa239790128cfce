"""Walk the well depth across a tuned zero-energy resonance.

Prints tail slope, threshold class, bound-state count, and time delay at each
depth; the delay steps by one through a half-integer exactly at the tuned
value, and the classifier refuses depths inside its dead zone.
"""

import argparse
import sys

from levlab.errors import ClassificationAmbiguous
from levlab.potentials import square_well
from levlab.reporting import tuned_resonance_depth
from levlab.scattering import PotentialAnalysis, zero_energy_tail


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", choices=("odd", "even"), default="odd")
    parser.add_argument("--span", type=float, default=0.3, help="half-width of the depth window")
    parser.add_argument("--count", type=int, default=7, help="depths per side, plus the tuned one")
    args = parser.parse_args()

    root = tuned_resonance_depth(args.variant)
    print(f"tuned {args.variant} resonance depth: {root:.12f}\n")
    print(f"{'depth':>14} {'tail slope':>13} {'threshold':>14} {'n':>3} {'delay':>10}")

    offsets = [args.span * i / args.count for i in range(-args.count, args.count + 1)]
    for offset in offsets:
        depth = root + offset
        analysis = PotentialAnalysis(square_well(depth, 1.0))
        slope = zero_energy_tail(analysis.engine)[3]
        try:
            rc = analysis.resonance
            tag = "exceptional" if rc.is_exceptional else "generic"
        except ClassificationAmbiguous:
            print(f"{depth:14.8f} {slope:+13.3e} {'(dead zone)':>14}")
            continue
        print(
            f"{depth:14.8f} {slope:+13.3e} {tag:>14} "
            f"{analysis.bound_states():3d} {analysis.time_delay():10.6f}"
        )


if __name__ == "__main__":
    sys.exit(main())
