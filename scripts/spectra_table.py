#!/usr/bin/env python3
"""Print the catalogued distance spectra, factored, for small parameters.

A quick way to eyeball how the closed forms evolve with the parameters
without running any verification.  Everything here is exact; the factored
shapes come straight from the catalog.
"""

from __future__ import annotations

import argparse

from pgspectra import (
    cf_elab_distance,
    cf_elab_times_cyclic_distance,
    cf_epg_dicyclic_distance,
    cf_epg_dihedral_distance,
    cf_epg_gpq_determinant,
    cf_epg_gpq_distance,
)
from pgspectra.theorems import THEOREMS


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=40)
    args = ap.parse_args(argv)
    mo = args.max_order

    print("# nonabelian groups of order p*q (power graph = enhanced power graph)")
    for d in THEOREMS["epg-gpq-distance"].cases(mo):
        p, q = d["p"], d["q"]
        f = cf_epg_gpq_distance(p, q)
        det = cf_epg_gpq_determinant(p, q)
        print(f"G({p},{q}) (order {p * q:3d})  |det D| = {det}")
        print(f"    {f.pretty()}")

    print("\n# dihedral groups, enhanced power graph")
    for n in (d["n"] for d in THEOREMS["epg-dihedral-distance"].cases(mo)):
        print(f"D_{2 * n} (order {2 * n:3d})  {cf_epg_dihedral_distance(n).pretty()}")

    print("\n# dicyclic groups, enhanced power graph")
    for n in (d["n"] for d in THEOREMS["epg-dicyclic-distance"].cases(mo)):
        print(f"Dic_{4 * n} (order {4 * n:3d})  {cf_epg_dicyclic_distance(n).pretty()}")

    print("\n# elementary abelian groups")
    for d in THEOREMS["epg-elab-distance"].cases(mo):
        p, n = d["p"], d["n"]
        print(f"El({p}^{n}) (order {p**n:3d})  {cf_elab_distance(p, n).pretty()}")

    print("\n# El(p^n) x Z_m, enhanced power graph")
    for d in THEOREMS["epg-elab-cyclic-distance"].cases(mo):
        p, n, m = d["p"], d["n"], d["m"]
        f = cf_elab_times_cyclic_distance(p, n, m)
        print(f"El({p}^{n}) x Z_{m} (order {p**n * m:3d})  {f.pretty()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
