"""pathhopf benchmark: one workload per invocation, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload basis_ladder --seed 1 --seconds 20 --trace 0

The program is imported from `src/` of the checkout this file sits in.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, and the spans
are written to `.perfbench_out/`.  Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
IMPORT_PROBES = 3
MIN_ROUNDS = 3
MAX_MEASURE_S = 150.0
#: a traced run stops adding rounds past this many spans, which bounds the
#: memory and the time it takes to write them out
MAX_SPANS = 600_000

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pathhopf.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CALLS_AND_SELF = (
    "weak_hopf.multiply", "weak_hopf.multiply_tensor_square", "weak_hopf.star_alg",
    "weak_hopf.antipode", "weak_hopf.coproduct", "weak_hopf.coefficient_C",
    "weak_hopf.verify_axioms",
)

PER_LAYER = (
    ("graph_core.parse_graph.self_s", "s"),
    ("graph_core.perron_frobenius.calls", "count"),
    ("graph_core.perron_frobenius.self_s", "s"),
    ("path_space.enumerate_paths.calls", "count"),
    ("path_space.enumerate_paths.self_s", "s"),
    ("path_space.enumerate_paths.paths_out", "count"),
    ("path_space.annihilate.calls", "count"),
    ("path_space.create.calls", "count"),
    ("path_space.concat.calls", "count"),
    ("path_space.inner_product.calls", "count"),
    ("essential_decomp.essential_basis.calls", "count"),
    ("essential_decomp.essential_basis.builds", "count"),
    ("essential_decomp.essential_basis.hit_ratio", "ratio"),
    ("essential_decomp.essential_basis.self_s", "s"),
    ("essential_decomp.essential_basis.dim_total", "count"),
    ("essential_decomp.decompose.calls", "count"),
    ("essential_decomp.decompose.self_s", "s"),
    ("essential_decomp.decompose.terms_out", "count"),
    ("essential_decomp.tridiagonal_solve.calls", "count"),
    ("essential_decomp.tridiagonal_solve.self_s", "s"),
    ("weak_hopf.projector_P.calls", "count"),
    ("weak_hopf.projector_P.self_s", "s"),
    *((f"{name}.{stat}", unit) for name in _CALLS_AND_SELF
      for stat, unit in (("calls", "count"), ("self_s", "s"))),
    ("weak_hopf.counit.calls", "count"),
    *((f"weak_hopf.cache.{table}.entries", "count") for table in (
        "basis_product", "pair_decomp", "coefficient_C", "star_columns", "essential_basis")),
    ("cli.import_s", "s"),
    ("cli.process_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def result_line(gate, metrics: dict, units: dict) -> str:
    """The final stdout line: exactly correct, attempted, failed, metrics."""
    missing = [name for name in units if name not in metrics]
    if missing or len(metrics) != len(units):
        raise ValueError(f"metrics do not match the declared list: missing {missing}")
    return json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    })


def probe_import(env) -> tuple[float, float]:
    """(import time inside a fresh interpreter, whole process wall time)."""
    t = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip()), perf_counter() - t


def measure_rounds(seconds: float, run_round, check):
    """Repeat the fixed work until the next round would overrun `seconds`
    (at least MIN_ROUNDS); return per-round walls and per-call latencies."""
    walls: list[float] = []
    ops: list[float] = []
    t0 = perf_counter()
    while True:
        gc.collect()
        round_ops: list[float] = []
        t = perf_counter()
        out = run_round(round_ops)
        walls.append(perf_counter() - t)
        ops += round_ops
        check(out, len(walls) == 1)
        del out
        elapsed = perf_counter() - t0
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            break
        if elapsed > MAX_MEASURE_S:
            break
    return walls, ops


def run_untraced(workload, gate, seconds, imports):
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t)
    walls, ops = measure_rounds(
        seconds, workload.round, lambda out, first: workload.check(out, gate, first)
    )
    workload.final_gates(gate)
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(i for i, _ in imports) + statistics.median(setups),
        # mean round time: the host's speed swings by about 20% in phases of
        # 15-45 s, and over a run the mean moves less than the median round
        "wall_s": statistics.mean(walls),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    print(f"rounds {len(walls)}: round time min {min(walls):.4f} median "
          f"{statistics.median(walls):.4f} max {max(walls):.4f}")
    p90 = percentile(ops, 0.90)
    print(f"call latency over {len(ops)} calls: p50 {statistics.median(ops):.4f} ms, "
          f"p90 {p90:.4f} ms ({sum(o > p90 for o in ops)} calls above p90)")
    print(f"setup repeats {[round(s, 4) for s in setups]}, import probes "
          f"{[round(i, 4) for i, _ in imports]}")
    return metrics


def run_traced(workload, gate, seconds, imports, name, seed):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.end_round(record=False)
    tracer.uninstall()
    setup_calls, setup_stats = tracer.calls.copy(), tracer.stats.copy()
    setup_spans = len(tracer.start)

    run_round = workload.round_in_process
    plain, traced = [], []
    t0 = perf_counter()
    while True:
        gc.collect()
        t = perf_counter()
        out = run_round([])
        plain.append(perf_counter() - t)
        workload.check(out, gate, len(plain) == 1)
        del out
        gc.collect()
        tracer.install()
        tracer.run_id = len(traced) + 1
        t = perf_counter()
        out = run_round([])
        traced.append(perf_counter() - t)
        tracer.uninstall()
        tracer.end_round()
        workload.check(out, gate, False)
        del out
        elapsed = perf_counter() - t0
        if (elapsed + plain[-1] + traced[-1] > seconds or elapsed > MAX_MEASURE_S
                or len(tracer.start) > MAX_SPANS):
            break
    workload.final_gates(gate)

    rounds = len(traced)
    self_s: dict[str, float] = {}
    for run, times in tracer.self_times().items():
        for key, value in times.items():
            self_s[key] = self_s.get(key, 0.0) + (value / rounds if run else value)

    def per_round(setup_part, total):
        return setup_part + (total - setup_part) / rounds

    values = {}
    for metric, _ in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = per_round(setup_calls[base], tracer.calls[base])
        elif stat == "self_s":
            values[metric] = self_s.get(base, 0.0)
        elif stat == "entries":
            values[metric] = tracer.cache_entries[base.rpartition(".")[2]] / rounds
        elif stat in ("paths_out", "builds", "dim_total", "terms_out"):
            values[metric] = per_round(setup_stats[metric], tracer.stats[metric])
    eb = "essential_decomp.essential_basis"
    calls = values[f"{eb}.calls"]
    values[f"{eb}.hit_ratio"] = 1.0 - values[f"{eb}.builds"] / calls if calls else 0.0
    values["cli.import_s"] = statistics.median(i for i, _ in imports)
    values["cli.process_s"] = statistics.median(w for _, w in imports)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["trace.spans"] = per_round(setup_spans, len(tracer.start))

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.dump(dump)
    print(f"traced rounds {rounds}: untraced wall_s median {statistics.median(plain):.4f}, "
          f"traced {statistics.median(traced):.4f}, overhead {values['trace.overhead_s']:.4f} s "
          f"({values['trace.overhead_s'] / statistics.median(plain):+.1%})")
    print(f"{len(tracer.start)} spans written to {dump.relative_to(ROOT)}")
    print("self time per set-up plus one timed round:")
    for key, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {key:<40} {value:10.4f} s")
    return values


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pathhopf" / "__init__.py").is_file():
        print(f"perfbench: no pathhopf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pathhopf
    import pathhopf.cli  # noqa: F401  (the tracer rebinds cli.run)

    if Path(pathhopf.__file__).resolve().parent != (SRC / "pathhopf").resolve():
        print(f"perfbench: imported pathhopf from {pathhopf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import Gate, check_oracle, child_env

    gate = Gate()
    check_oracle(gate)
    env = child_env(ROOT)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        workload = WORKLOADS[args.workload](pathhopf, args.seed, ROOT, tmp)
        imports = [probe_import(env) for _ in range(IMPORT_PROBES)]
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            metrics = run_traced(workload, gate, args.seconds, imports, args.workload, args.seed)
            units = dict(PER_LAYER)
        else:
            metrics = run_untraced(workload, gate, args.seconds, imports)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"checks: {gate.attempted} attempted, {gate.failed} failed "
          f"(error rate {gate.failed / max(gate.attempted, 1):.4f})")
    for message in gate.messages:
        print(f"  FAILED: {message}")
    print(result_line(gate, metrics, units))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
