#!/usr/bin/env python3
"""Measure audit output growth on the corner-anchored worst-case family.

Prints measured output box counts next to the geometric ceiling
(p^n - 1) / (p - 1).  The ceiling bounds the unmerged slab decomposition:
it counts every slab as a surviving box.  The audits coalesce the
abutting slabs of each rule, so measured counts sit far below it, at
p(n - 1) + 1 boxes on the shapes this script prints by default.
"""

import argparse

from fwaudit import bench_worst_case


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--attrs", type=int, nargs="+", default=[2, 3])
    args = ap.parse_args()

    print(f"{'n':>3} {'p':>3} {'measured':>9} {'ceiling':>9} {'ms':>8}")
    for p in args.attrs:
        for n in range(2, args.max_n + 1):
            (rec,) = bench_worst_case([(n, p)])
            ceiling = (p**n - 1) // (p - 1)
            print(f"{n:>3} {p:>3} {rec.out_boxes:>9} {ceiling:>9} {rec.elapsed_ms:>8.1f}")


if __name__ == "__main__":
    main()
