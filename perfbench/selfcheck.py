"""Tiny self-check of the benchmark's own parts: the dimension oracle, the
graph generators, the correctness gates, the tracer and the metric printer.

Run from the repository root in a few seconds::

    python3 perfbench/selfcheck.py

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import run
from graphs import CATALOG, Relabelled, adjacency, expected_beta, fusion_dims

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_oracle_and_generators(ph) -> None:
    from workloads import Gate, check_oracle

    gate = Gate()
    check_oracle(gate)
    expect(gate.attempted == 2 and gate.failed == 0, "fusion oracle gives (3,4,3,0) on A3, (3,6,9) on affine A2")
    for name, (nv, edges, coxeter) in CATALOG.items():
        beta = float(np.linalg.eigvalsh(adjacency(nv, edges).astype(float))[-1])
        expect(abs(beta - expected_beta(coxeter)) < 1e-9, f"{name} has beta {expected_beta(coxeter):.6f}")
    a, b = Relabelled("E6", np.random.default_rng(5)), Relabelled("E6", np.random.default_rng(5))
    c = Relabelled("E6", np.random.default_rng(6))
    expect(a.text == b.text and a.text != c.text, "relabelling is fixed by the seed")
    expect(
        sorted(a.adjacency.sum(axis=0)) == sorted(adjacency(*CATALOG["E6"][:2]).sum(axis=0)),
        "relabelling keeps the degree sequence",
    )
    # the oracle against real bases on small graphs, block by block
    for name, top in (("D4", 4), ("A_aff_2", 4)):
        g = Relabelled(name, np.random.default_rng(1))
        space = ph.PathSpace(ph.parse_graph(g.text))
        oracle = fusion_dims(g.adjacency, top)
        ok = True
        for n in range(top + 1):
            got = np.zeros_like(oracle[n])
            for s, r in ph.essential_basis(space, n).endpoints:
                got[s, r] += 1
            ok &= bool(np.array_equal(got, oracle[n]))
        expect(ok, f"oracle matches essential_basis block dims on {name} up to n={top}")


def check_gates(ph, tmp: Path) -> None:
    from workloads import CliCold, DecomposeProject, Gate, HopfVerify

    wl = DecomposeProject.__new__(DecomposeProject)
    wl.ph = ph
    space = ph.PathSpace(ph.load_fixture("a_aff_2"))
    x = ph.PathVector.unit((0, 1, 0, 1, 2))
    good = ph.decompose(space, x)
    word, vec = good.terms[-1]
    bad = ph.Decomposition(good.length, good.terms[:-1] + ((word, vec * 2.0),))
    gate = Gate()
    wl.check([(space, "unit", x, good)], gate, True)
    expect(gate.failed == 0 and gate.attempted == 2, "decompose gates pass on a true decomposition")
    gate = Gate()
    wl.check([(space, "unit", x, bad)], gate, True)
    expect(gate.failed >= 1, "decompose gates catch a wrong term")

    hv = HopfVerify.__new__(HopfVerify)
    report = ph.verify_axioms(space, 1, samples=3)
    a3 = ph.PathSpace(ph.load_fixture("a3"))
    control = ph.verify_axioms(a3, 1, samples=3, weight_fn=lambda *e: 1.0)
    gate = Gate()
    hv.check([report, control], gate, True)
    expect(gate.failed == 0, "axiom gates pass on a_aff_2, and the flattened antipode fails on a3")
    gate = Gate()
    hv.check([report, report], gate, True)
    expect(gate.failed == 1, "axiom gates fail when the negative control passes")

    cli = CliCold(ph, 3, run.ROOT, tmp)
    argv = next(a for a in cli.argvs if a[0] == "dims")
    expect(cli._output_ok(argv, {"dims": [3, 4, 3, 0]}), "dims check accepts the oracle on a3")
    expect(not cli._output_ok(argv, {"dims": [3, 4, 3, 1]}), "dims check rejects a wrong dimension")


def check_tracer(ph) -> None:
    from tracing import Tracer

    original = ph.decompose
    space = ph.PathSpace(ph.load_fixture("a3"))
    tracer = Tracer()
    tracer.install()
    ph.decompose(space, ph.PathVector.unit((0, 1, 0, 1, 0)))
    tracer.uninstall()
    names = [tracer.names[k] for k in tracer.span_name]
    expect(ph.decompose is original and ph.essential_decomp.decompose is original,
           "uninstall restores the original functions")
    expect(names[0] == "essential_decomp.decompose" and "essential_decomp.tridiagonal_solve" in names,
           "nested calls are traced with their parents")
    self_s = tracer.self_times()[0]
    total = tracer.end[0] - tracer.start[0]
    expect(0 <= self_s["essential_decomp.decompose"] <= total
           and abs(sum(self_s.values()) - total) < 1e-9,
           "self times are non-negative and add up to the root span")
    expect(tracer.calls["path_space.annihilate"] > 0, "counted functions count their calls")


def check_printer() -> None:
    from workloads import WORKLOADS, Gate

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
           and [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END],
           "BENCHMARK.json end_to_end matches the printer")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer matches the printer")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads match the harness")
    gate = Gate()
    gate.check(True, "x")
    units = dict(run.END_TO_END)
    line = json.loads(run.result_line(gate, {n: 1.5 for n in units}, units))
    expect(list(line) == ["correct", "attempted", "failed", "metrics"]
           and list(line["metrics"]) == list(units) and line["correct"] is True,
           "result line has exactly the contract keys")
    try:
        run.result_line(gate, {"wall_s": 1.0}, units)
        expect(False, "result line refuses a missing metric")
    except ValueError:
        expect(True, "result line refuses a missing metric")
    expect(run.percentile(list(range(1, 101)), 0.9) == 90, "nearest-rank p90 of 1..100 is 90")


def main() -> int:
    if not (run.SRC / "pathhopf" / "__init__.py").is_file():
        print(f"selfcheck: no pathhopf sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import pathhopf as ph
    import pathhopf.cli  # noqa: F401

    run.OUT.mkdir(exist_ok=True)
    tmp = run.OUT / "selfcheck"
    tmp.mkdir(exist_ok=True)
    check_oracle_and_generators(ph)
    check_gates(ph, tmp)
    check_tracer(ph)
    check_printer()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
