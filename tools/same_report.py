"""Compare two `ellid ... --json` reports, ignoring their `timings` block.

    python3 tools/same_report.py A.json B.json

Exits 0 when the reports are equal apart from `timings`.  Otherwise prints
one line per difference, each differing record as (id, mode, n, trial) with
the fields it differs in, then each differing top-level key, then the count
of differences, and exits 1.
"""

from __future__ import annotations

import json
import sys
from itertools import zip_longest


def _same(x, y) -> bool:
    # compare serialized forms: key order counts, and NaN equals NaN
    return json.dumps(x) == json.dumps(y)


def differences(a: dict, b: dict) -> list[str]:
    """A description of each difference outside `timings`, in report order."""
    out = []
    for ra, rb in zip_longest(a.get("results", []), b.get("results", [])):
        if _same(ra, rb):
            continue
        rec = ra if ra is not None else rb
        where = tuple(rec.get(k) for k in ("id", "mode", "n", "trial"))
        if ra is None or rb is None:
            side = "first" if ra is None else "second"
            out.append(f"record {where} is missing from the {side} report")
            continue
        fields = [k for k in dict.fromkeys([*ra, *rb])
                  if not _same(ra.get(k), rb.get(k))]
        out.append(f"record {where} differs in {', '.join(fields)}")
    for key in sorted((set(a) | set(b)) - {"timings", "results"}):
        if not _same(a.get(key), b.get(key)):
            out.append(f"{key!r} differs")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as fh:
            reports.append(json.load(fh))
    diffs = differences(*reports)
    if not diffs:
        return 0
    for line in diffs:
        print(line)
    print(f"differences: {len(diffs)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
