#!/usr/bin/env python3
"""Extract the verdict column of every E1-E13 table row.

Usage: python3 scripts/bench_verdicts.py bench_output.txt

Reads the output of `dune exec bench/main.exe` and prints one line per
row of each table that has a verdict column (`verdict`, `answer` or
`SAT`): the experiment id, then the row's cells up to and including
that column. Timings, state counts and the other columns after the
verdict are left out, so two runs of the same code print the same
lines. Exits 1 when any line of the output carries `NO!` or `DISAGREE`
(a verdict that contradicts the experiment's ground truth).
"""

import re
import sys

VERDICT_COLUMNS = ("verdict", "answer", "SAT")


def cells(line: str) -> list[str]:
    return [c.strip() for c in line.split(" | ")]


def main(path: str) -> int:
    lines = open(path, encoding="utf-8").read().splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"== (E\d+):", lines[i])
        if not m:
            i += 1
            continue
        # the title, the column names, a rule of dashes, then the rows
        header = cells(lines[i + 1])
        at = next((j for j, c in enumerate(header) if c in VERDICT_COLUMNS), None)
        i += 3
        while i < len(lines) and " | " in lines[i]:
            if at is not None:
                print(" | ".join([m.group(1)] + cells(lines[i])[: at + 1]))
            i += 1
    bad = [l for l in lines if "NO!" in l or "DISAGREE" in l]
    for l in bad:
        print(f"contradicted: {l}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"))
