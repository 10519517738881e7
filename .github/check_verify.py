"""Check a `pathhopf verify --format json` report from a CI smoke run.

Usage: python3 check_verify.py REPORT PAIRS

Exits 0 when every axiom passed and checked at least one element or tuple,
and "coproduct multiplicative" and "counit of product" each checked PAIRS
key pairs, the exhaustive count of the meeting key pairs; 1 otherwise.
"""

import json
import sys

report, pairs = json.load(open(sys.argv[1])), int(sys.argv[2])
checked = {r["name"]: r["checked"] for r in report["axioms"]}
problems = [f"{name} checked nothing" for name, count in checked.items() if count < 1]
problems += [
    f"{name} checked {checked.get(name)} key pairs, not {pairs}"
    for name in ("coproduct multiplicative", "counit of product")
    if checked.get(name) != pairs
]
if report["all_passed"] is not True:
    problems.append("not all axioms passed")
print("\n".join(problems) or "ok")
sys.exit(1 if problems else 0)
