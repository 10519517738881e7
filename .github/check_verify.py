"""Check a `pathhopf verify --format json` report from a CI smoke run.

Usage: python3 check_verify.py REPORT PAIRS KEYS

Exits 0 when every axiom passed and checked at least one element or tuple,
each of the four pair axioms ("star antihomomorphism", "coproduct
multiplicative", "counit of product" and "antipode product rule") checked
PAIRS key pairs, the exhaustive count of the meeting key pairs, and each of
the nine linear unary axioms and counit positivity checked KEYS basis keys,
the number of keys (n, a, b) up to the report's max_length; 1 otherwise.
"""

import json
import sys

report, pairs, keys = json.load(open(sys.argv[1])), int(sys.argv[2]), int(sys.argv[3])
checked = {r["name"]: r["checked"] for r in report["axioms"]}
expected = dict.fromkeys((
    "star antihomomorphism", "coproduct multiplicative", "counit of product", "antipode product rule",
), pairs)
expected.update(dict.fromkeys((
    "unit element", "star involution", "coproduct star-compatible", "coassociativity",
    "counit left inverse", "counit right inverse", "counit positivity", "antipode star double",
    "antipode coproduct rule", "antipode cancellation",
), keys))
problems = [f"{name} checked nothing" for name, count in checked.items() if count < 1]
problems += [
    f"{name} checked {checked.get(name)}, not {count}"
    for name, count in expected.items()
    if checked.get(name) != count
]
if report["all_passed"] is not True:
    problems.append("not all axioms passed")
print("\n".join(problems) or "ok")
sys.exit(1 if problems else 0)
