#!/usr/bin/env python3
"""Eigenvalue clusters of H = p(-Delta) + [chi] around the 5-fold family.

Prints cluster counts, the localized atoms sitting exactly at the potential's
cell values, and the weak-limit moments.

    python scripts/cluster_demo.py --m 5 [--chi 0.8 1.0 1.2]
"""
import argparse

import numpy as np

from gasket_szego import clusters, decimation, eigenbasis, szego
from gasket_szego.gasket import SimpleFunction, integrate_simple


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=5)
    parser.add_argument(
        "--chi", type=float, nargs=3, default=[0.8, 1.0, 1.2],
        help="three level-1 cell values of the potential",
    )
    args = parser.parse_args()

    chi = SimpleFunction(1, args.chi)
    basis = eigenbasis.level_basis(args.m)
    births = list(range(2, args.m + 1))
    family = clusters.decimation_family(births, basis)
    schrod = clusters.build_schrodinger(
        lambda lam: lam, chi, args.m, "identity", basis
    )
    report = clusters.identify_clusters(schrod, family)

    print(f"H = -Delta + [chi] at level m={args.m}, chi cells {args.chi}")
    print(f"cluster threshold generation: {report.threshold_j}")
    print("  j    d_j   count  exact-atom hits  <Psi,x>        error")
    target = integrate_simple(chi, 1)
    for psi in report.clusters:
        hits = sum(
            int(np.sum(np.abs(psi.positions - a) <= 1e-10)) for a in chi.values
        )
        mean = float(np.mean(psi.positions))
        print(
            f"  {psi.j:<4d} {psi.d_j:<5d} {report.counts[psi.j]:<6d} "
            f"{hits:<16d} {mean:<13.9f} {abs(mean - target):.3e}"
        )

    weak = clusters.weak_limit_report(
        report, chi, births, szego.f_power(2), "identity"
    )
    print(f"second-moment sweep against {weak.target:.9f}")
    for s in weak.samples:
        print(f"  j={s.index:<3g} error {s.abs_error:.3e}")

    fam = decimation.separated_sequence(args.m)
    print("family separation gaps:", ["%.4g" % g for g in fam.gaps])


if __name__ == "__main__":
    main()
