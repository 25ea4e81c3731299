"""Record what the library answers on Boyd's census of Salem sextics.

Writes bench/census_seed.json: for each polynomial of the census, the
kind of its expansion of 1 ("simple", "nonsimple" or "unresolved") with
m and n, as computed by the library at the depth below.  The benchmark
uses this record only to sort the census into strata of short, medium
and long expansions; it is provenance, not an oracle.

Run from the repository root:  python3 bench/provenance.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import census  # noqa: E402
from bertrandnum.realbase import parse_base  # noqa: E402

DEPTH = 11000


def main() -> int:
    rows = []
    t0 = time.perf_counter()
    for abc in census.salem_sextics():
        cls = parse_base(census.base_spec(abc)).parry_class(DEPTH)
        rows.append({"abc": list(abc), "kind": cls.kind, "m": cls.m, "n": cls.n})
    elapsed = time.perf_counter() - t0
    out = {
        "depth": DEPTH,
        "python": sys.version.split()[0],
        "seconds": round(elapsed, 1),
        "rows": rows,
    }
    with open(os.path.join(HERE, "census_seed.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(rows)} polynomials in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
