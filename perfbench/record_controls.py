"""Record the exact values the benchmark's output gates compare against.

    python3 perfbench/record_controls.py

Computes each nonvanishing control with route="theta" and route="bundle",
refuses to record unless the two routes agree, and stores the coefficients
with the digest of the catalog_1f case list in perfbench/controls.json.
Run it only on a commit whose outputs are trusted; the values it writes
are the reference every later commit is checked against.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main():
    package = workloads.load_package()
    values = {}
    for wl in workloads.WORKLOADS.values():
        if wl.name == "catalog_1f":
            continue
        for case in wl.cases(package):
            if not case.control:
                continue
            g = package.GCIData(case.n, case.D, case.C, q_order=case.q_order)
            fn = {"W": package.witten_genus, "Wc": package.wc_genus}[case.kind]
            theta = fn(g, route="theta").coeffs
            bundle = fn(g, route="bundle").coeffs
            if theta != bundle:
                sys.exit(f"routes disagree on {case.label}")
            values[case.label] = [str(c) for c in theta.coeffs]
    catalog = workloads.enumerate_catalog(package)
    controls = {"catalog_sha256": workloads.catalog_digest(catalog),
                "catalog_kinds": dict(Counter(c.kind for c in catalog)),
                "values": values}
    workloads.CONTROLS_FILE.write_text(json.dumps(controls, indent=1) + "\n")
    print(f"wrote {workloads.CONTROLS_FILE}: {len(catalog)} catalog cases, "
          f"{len(values)} controls")


if __name__ == "__main__":
    main()
