#!/usr/bin/env python3
"""Print the catalogued distance spectra, factored, for small parameters.

A quick way to eyeball how the closed forms evolve with the parameters
without running any verification.  Everything here is exact; the factored
shapes come straight from the catalog.  A usage error or a --max-order
outside 1..MAX_ORDER prints one ``error`` line, as ``pgspectra`` does, and exits 1.
"""

from __future__ import annotations

from pgspectra import (
    cf_elab_distance,
    cf_elab_times_cyclic_distance,
    cf_epg_dicyclic_distance,
    cf_epg_dihedral_distance,
    cf_epg_gpq_determinant,
    cf_epg_gpq_distance,
    cli,
)
from pgspectra.theorems import THEOREMS


@cli.reports_errors
def main(argv: list[str] | None = None) -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=40)
    args = ap.parse_args(argv)
    cases = {  # every list is taken before anything is printed
        tid: THEOREMS[tid].cases(args.max_order)
        for tid in (
            "epg-gpq-distance",
            "epg-dihedral-distance",
            "epg-dicyclic-distance",
            "epg-elab-distance",
            "epg-elab-cyclic-distance",
        )
    }

    print("# nonabelian groups of order p*q (power graph = enhanced power graph)")
    for d in cases["epg-gpq-distance"]:
        p, q = d["p"], d["q"]
        f = cf_epg_gpq_distance(p, q)
        det = cf_epg_gpq_determinant(p, q)
        print(f"G({p},{q}) (order {p * q:3d})  |det D| = {det}")
        print(f"    {f.pretty()}")

    print("\n# dihedral groups, enhanced power graph")
    for n in (d["n"] for d in cases["epg-dihedral-distance"]):
        print(f"D_{2 * n} (order {2 * n:3d})  {cf_epg_dihedral_distance(n).pretty()}")

    print("\n# dicyclic groups, enhanced power graph")
    for n in (d["n"] for d in cases["epg-dicyclic-distance"]):
        print(f"Dic_{4 * n} (order {4 * n:3d})  {cf_epg_dicyclic_distance(n).pretty()}")

    print("\n# elementary abelian groups")
    for d in cases["epg-elab-distance"]:
        p, n = d["p"], d["n"]
        print(f"El({p}^{n}) (order {p**n:3d})  {cf_elab_distance(p, n).pretty()}")

    print("\n# El(p^n) x Z_m, enhanced power graph")
    for d in cases["epg-elab-cyclic-distance"]:
        p, n, m = d["p"], d["n"], d["m"]
        f = cf_elab_times_cyclic_distance(p, n, m)
        print(f"El({p}^{n}) x Z_{m} (order {p**n * m:3d})  {f.pretty()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
