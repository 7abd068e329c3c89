#!/usr/bin/env python3
"""Compare a regenerated BENCH_hnsw.json against the checked-in one.

Usage: bench_compare.py <checked-in.json> <regenerated.json>

bench_hnsw_hotpath's work counters are deterministic for fixed settings:
the graph digest (a hash of the built graph's bytes) and, per beam width,
the distance evaluations and expansions per query. Any difference means
the build or the search does different work, so the comparison fails.
Wall-time fields (build time, QPS, ns per distance) vary with the host and
are printed side by side, never gated.

Exit status: 0 when every gated counter matches, 1 when one differs, 2 when
the two files were run at different settings and cannot be compared.
"""

from __future__ import annotations

import json
import sys

SETTINGS = ("bench", "n", "dim", "queries", "M", "ef_construction",
            "build_threads")
SEARCH_COUNTERS = ("dist_evals_per_query", "expansions_per_query")
TIMES = ("build_seconds", "ns_per_distance_scattered",
         "ns_per_distance_contiguous")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def by_ef(report: dict) -> dict:
    return {row["ef"]: row for row in report["search"]}


def compare(old: dict, new: dict) -> int:
    for key in SETTINGS:
        if old.get(key) != new.get(key):
            print(f"not comparable: {key} is {old.get(key)!r} in the "
                  f"checked-in file and {new.get(key)!r} in the new one")
            return 2

    failures = []
    if old["graph_digest"] != new["graph_digest"]:
        failures.append(f"graph_digest {old['graph_digest']} -> "
                        f"{new['graph_digest']}")
    old_rows, new_rows = by_ef(old), by_ef(new)
    if sorted(old_rows) != sorted(new_rows):
        failures.append(f"beam widths {sorted(old_rows)} -> {sorted(new_rows)}")
    for ef in sorted(set(old_rows) & set(new_rows)):
        for key in SEARCH_COUNTERS:
            a, b = old_rows[ef][key], new_rows[ef][key]
            if a != b:
                failures.append(f"ef {ef} {key} {a} -> {b}")

    print("wall time (reported, not gated): checked-in -> new")
    for key in TIMES:
        print(f"  {key}: {old.get(key)} -> {new.get(key)}")
    for ef in sorted(set(old_rows) & set(new_rows)):
        print(f"  ef {ef} qps: {old_rows[ef]['qps']} -> {new_rows[ef]['qps']}")

    if failures:
        print("FAIL: deterministic counters differ")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"OK: graph_digest and per-ef counters match "
          f"({len(old_rows)} beam widths)")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    return compare(load(argv[1]), load(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
