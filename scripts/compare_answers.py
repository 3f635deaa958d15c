#!/usr/bin/env python3
"""Compare two NDJSON response transcripts of the same requests.

Usage: compare_answers.py A B [EXPECTED_LINES]

Responses may arrive in any order (a sharded server answers out of
order), so lines are matched by id. Only the answer-bearing fields are
compared: verdict, answer, equivalent, count and error. Stats fields
(states, transitions, ...) are not, because label interning order can
move them between processes. Both files must hold the same number of
lines, and EXPECTED_LINES when given. Exits 1 on any difference.
"""
import json
import sys

FIELDS = ("verdict", "answer", "equivalent", "count", "error")


def answers(path):
    with open(path) as f:
        lines = f.read().splitlines()
    rows = []
    for line in lines:
        obj = json.loads(line)
        picked = {k: obj[k] for k in FIELDS if k in obj}
        rows.append(json.dumps([obj.get("id"), picked], sort_keys=True))
    return len(lines), sorted(rows)


def main():
    n_a, a = answers(sys.argv[1])
    n_b, b = answers(sys.argv[2])
    ok = True
    if n_a != n_b:
        print(f"line counts differ: {n_a} vs {n_b}")
        ok = False
    if len(sys.argv) > 3 and n_a != int(sys.argv[3]):
        print(f"expected {sys.argv[3]} lines, got {n_a}")
        ok = False
    for row in sorted(set(a) ^ set(b)):
        side = sys.argv[1] if row in a else sys.argv[2]
        print(f"only in {side}: {row}")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
