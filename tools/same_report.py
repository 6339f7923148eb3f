"""Compare two `ellid ... --json` reports, ignoring their `timings` block.

    python3 tools/same_report.py A.json B.json

Exits 0 when the reports are equal apart from `timings`.  Otherwise prints
the first differing record as (id, mode, n, trial), or the first differing
top-level key, and exits 1.
"""

from __future__ import annotations

import json
import sys
from itertools import zip_longest


def _same(x, y) -> bool:
    # compare serialized forms: key order counts, and NaN equals NaN
    return json.dumps(x) == json.dumps(y)


def first_difference(a: dict, b: dict) -> str | None:
    """A description of the first difference outside `timings`, or None."""
    for ra, rb in zip_longest(a.get("results", []), b.get("results", [])):
        if not _same(ra, rb):
            rec = ra if ra is not None else rb
            where = tuple(rec.get(k) for k in ("id", "mode", "n", "trial"))
            if ra is None or rb is None:
                side = "first" if ra is None else "second"
                return f"record {where} is missing from the {side} report"
            return f"record {where} differs"
    for key in sorted((set(a) | set(b)) - {"timings", "results"}):
        if not _same(a.get(key), b.get(key)):
            return f"{key!r} differs"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as fh:
            reports.append(json.load(fh))
    diff = first_difference(*reports)
    if diff is None:
        return 0
    print(diff)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
