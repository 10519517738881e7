"""The four benchmark workloads.

Each workload is closed-loop and single-threaded: it issues one call,
waits for it, and issues the next.  A workload has

- `__init__`: generates its inputs from the seed (not timed);
- `setup`: the work a user pays before the first timed call (timed as
  `setup_s`, repeated by the harness);
- `round(ops)`: the fixed timed work, appending each call's latency in ms
  to `ops` and returning the outputs;
- `check(outputs, gate, first)`: correctness gates on a round's outputs,
  run outside the timer;
- `final_gates(gate)`: gates that need no timed output, run after the
  timed phase (none by default).

The program is reached only through the `pathhopf` package namespace,
looked up at call time, so the tracer's rebinding applies to every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from graphs import CATALOG, Relabelled, adjacency, expected_beta, fusion_dims, walks

#: Fixed generator for the *shape* of the decomposition inputs (which walks
#: and blocks); the run seed relabels vertices and draws coefficients, so
#: the cost of a run does not depend on its seed.
SHAPE_SEED = 1004_5104

TOL = 1e-9
AXIOM_TOL = 1e-8
CLI_TIMEOUT_S = 120


class Gate:
    """Counts checks attempted and failed; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def check_oracle(gate: Gate) -> None:
    """The fusion oracle must reproduce known dimension sequences first."""
    for name, expected in (("A3", [3, 4, 3, 0]), ("A_aff_2", [3, 6, 9])):
        nv, edges, _ = CATALOG[name]
        got = [int(m.sum()) for m in fusion_dims(adjacency(nv, edges), len(expected) - 1)]
        gate.check(got == expected, f"fusion oracle on {name}: {got} != {expected}")


class Workload:
    """Defaults shared by the workloads."""

    #: read peak RSS from the largest child process instead of this one
    rss_of_children = False

    def round_in_process(self, ops):
        """The round a traced run times: `round`, unless that starts processes."""
        return self.round(ops)

    def final_gates(self, gate):
        pass


def _timed(ops: list, fn, *args, **kwargs):
    t = perf_counter()
    out = fn(*args, **kwargs)
    ops.append((perf_counter() - t) * 1e3)
    return out


def _block_dims_ok(basis, oracle: np.ndarray) -> bool:
    got = np.zeros_like(oracle)
    for s, r in basis.endpoints:
        got[s, r] += 1
    return bool(np.array_equal(got, oracle))


# -- basis_ladder -------------------------------------------------------------


class BasisLadder(Workload):
    """Cold PathSpace plus every essential basis up to the top length."""

    LADDER = (("E6", 10), ("D5", 6), ("E8", 10))

    def __init__(self, ph, seed: int, root: Path, tmp: Path):
        self.ph = ph
        rng = np.random.default_rng(seed)
        self.inputs = [(Relabelled(name, rng), top) for name, top in self.LADDER]
        self.chain = Relabelled("A80", rng)
        self.oracle = {g.name: fusion_dims(g.adjacency, top) for g, top in self.inputs}

    def setup(self):
        ph = self.ph
        self.graphs = [(g, ph.parse_graph(g.text), top) for g, top in self.inputs]
        self.chain_graph = ph.parse_graph(self.chain.text)

    def round(self, ops):
        ph = self.ph
        out = []
        for g, graph, top in self.graphs:
            space = _timed(ops, ph.PathSpace, graph)
            bases = [_timed(ops, ph.essential_basis, space, n) for n in range(top + 1)]
            out.append((g, space, bases))
        spectrum = _timed(ops, ph.perron_frobenius, self.chain_graph)
        return out, spectrum

    def check(self, outputs, gate, first):
        ph = self.ph
        ladder, spectrum = outputs
        for g, space, bases in ladder:
            gate.check(abs(space.beta - expected_beta(g.coxeter)) < TOL, f"{g.name} beta")
            for n, basis in enumerate(bases):
                gate.check(_block_dims_ok(basis, self.oracle[g.name][n]), f"{g.name} n={n} block dims")
                if first:
                    gate.check(
                        all(ph.is_essential(space, xi) and abs(xi.norm() - 1.0) < TOL
                            for xi in basis.vectors),
                        f"{g.name} n={n} basis vectors essential and normalised",
                    )
        mu = np.asarray(spectrum.mu)
        residual = np.max(np.abs(self.chain.adjacency @ mu - spectrum.beta * mu))
        gate.check(
            abs(spectrum.beta - expected_beta(self.chain.coxeter)) < TOL
            and bool(np.all(mu > 0)) and residual < 1e-8,
            "A80 Perron-Frobenius data",
        )


# -- decompose_project --------------------------------------------------------


class DecomposeProject(Workload):
    """Warm bases on two affine graphs; decompose and projector_P are timed."""

    GRAPHS = ("A_aff_2", "D_aff_4")
    UNIT = {6: 12, 8: 12, 10: 6}
    BLOCK = {6: 4, 8: 4, 10: 2}
    PAIRS = {6: 8, 8: 8}

    def __init__(self, ph, seed: int, root: Path, tmp: Path):
        self.ph = ph
        rng = np.random.default_rng(seed)
        shape = np.random.default_rng(SHAPE_SEED)
        self.inputs = []
        for name in self.GRAPHS:
            g = Relabelled(name, rng)
            nv, edges, _ = CATALOG[name]
            canon = adjacency(nv, edges)
            every = {n: [p for s in range(nv) for p in walks(canon, n, s)] for n in (6, 8, 10)}

            def pick(n):
                return every[n][int(shape.integers(len(every[n])))]

            calls = []
            for n, k in self.UNIT.items():
                calls += [("unit", g.path(pick(n))) for _ in range(k)]
            for n, k in self.BLOCK.items():
                for _ in range(k):
                    end = pick(n)
                    block = [g.path(p) for p in every[n] if p[0] == end[0] and p[-1] == end[-1]]
                    coeffs = rng.standard_normal(len(block))
                    calls.append(("block", dict(zip(block, coeffs.tolist()))))
            for n, k in self.PAIRS.items():
                calls += [("pair", (g.path(pick(n)), g.path(pick(n)))) for _ in range(k)]
            self.inputs.append((g, calls))
        self.rng = rng

    def setup(self):
        ph = self.ph
        self.spaces = []
        for g, calls in self.inputs:
            space = ph.PathSpace(ph.parse_graph(g.text))
            # the bases projector_P reads; decompose itself needs none
            for n in range(max(self.PAIRS) + 1):
                ph.essential_basis(space, n)
            self.spaces.append((space, self._vectors(calls)))

    def _vectors(self, calls):
        ph = self.ph
        out = []
        for kind, data in calls:
            if kind == "unit":
                out.append((kind, ph.PathVector.unit(data)))
            elif kind == "block":
                n = len(next(iter(data))) - 1
                out.append((kind, ph.PathVector(n, data)))
            else:
                out.append((kind, (ph.PathVector.unit(data[0]), ph.PathVector.unit(data[1]))))
        return out

    def round(self, ops):
        ph = self.ph
        out = []
        for space, calls in self.spaces:
            for kind, x in calls:
                if kind == "pair":
                    out.append((space, kind, x, _timed(ops, ph.projector_P, space, *x)))
                else:
                    out.append((space, kind, x, _timed(ops, ph.decompose, space, x)))
        return out

    def check(self, outputs, gate, first):
        ph = self.ph
        if first:
            self.reference = [_shape(kind, res) for _, kind, _, res in outputs]
        for (space, kind, x, res), ref in zip(outputs, self.reference):
            if not first:
                gate.check(_shape(kind, res) == ref, f"{kind} output changed between rounds")
                continue
            if kind == "pair":
                gate.check(_projection_ok(ph.essential_basis, space, x, res), "projector_P output structure")
                continue
            back = ph.recompose(space, res)
            gate.check((back - x).sup_norm() < TOL, f"recompose(decompose(x)) == x at n={x.length}")
            gate.check(
                all(ph.is_essential(space, v) for _, v in res.terms),
                f"decompose terms essential at n={x.length}",
            )

    def final_gates(self, gate):
        ph = self.ph
        for space, _ in self.spaces:
            for n in (4, 6):
                basis = ph.essential_basis(space, n)
                for _ in range(4):
                    a, b = (int(v) for v in self.rng.integers(len(basis), size=2))
                    got = ph.projector_P(space, basis.vectors[a], basis.vectors[b])
                    want = ph.AlgebraElement.basis_element(space, n, a, b)
                    gate.check((got - want).sup_norm() < TOL, f"projector_P(xi_a, xi_b) at n={n}")


def _shape(kind, res):
    if kind == "pair":
        return tuple(sorted(res.coeffs))
    return tuple((w.indices, len(v.coeffs)) for w, v in res.terms)


def _projection_ok(essential_basis, space, pair, element) -> bool:
    """Keys (m, a, b) must have m <= n, m = n mod 2, and basis vectors with
    the endpoints of the left and right paths."""
    left, right = pair
    n = left.length
    ends = (left.endpoints(), right.endpoints())
    for m, a, b in element.coeffs:
        if m > n or (n - m) % 2:
            return False
        basis = essential_basis(space, m)
        if (basis.endpoints[a], basis.endpoints[b]) != ends:
            return False
    return True


# -- hopf_verify ----------------------------------------------------------------


class HopfVerify(Workload):
    """verify_axioms on cold memo tables, plus a corrupted-antipode control."""

    RUNS = (("A_aff_2", 3, 50), ("E6", 2, 30))
    CONTROL = ("A3", 2, 20)

    def __init__(self, ph, seed: int, root: Path, tmp: Path):
        self.ph = ph
        rng = np.random.default_rng(seed)
        self.inputs = [Relabelled(name, rng) for name, _, _ in self.RUNS + (self.CONTROL,)]

    def setup(self):
        ph = self.ph
        self.graphs = []
        for g in self.inputs:
            graph = ph.parse_graph(g.text)
            self.graphs.append((graph, ph.perron_frobenius(graph)))

    def round(self, ops):
        ph = self.ph
        reports = []
        for (graph, spectrum), (_, max_length, samples) in zip(self.graphs, self.RUNS + (self.CONTROL,)):
            space = ph.PathSpace(graph, spectrum=spectrum)
            weight_fn = _flat_antipode if graph.name == self.CONTROL[0] else None
            reports.append(_timed(
                ops, ph.verify_axioms, space, max_length,
                samples=samples, seed=0, weight_fn=weight_fn,
            ))
        return reports

    def check(self, outputs, gate, first):
        *verified, control = outputs
        for report in verified:
            for result in report.results:
                gate.check(result.residual < AXIOM_TOL, f"{report.graph}: {result.name} residual")
        gate.check(
            control.residual("antipode cancellation") > 0.1,
            "negative control: flattened antipode must fail antipode cancellation",
        )


def _flat_antipode(*endpoints):
    return 1.0


# -- cli_cold -------------------------------------------------------------------

LAUNCH = "import sys; sys.argv[0] = 'pathhopf'; from pathhopf.cli import main; main()"


class CliCold(Workload):
    """A fixed script of CLI invocations, each in a fresh process."""

    rss_of_children = True

    # (graph argument, catalog name, dims/export max, essentials length,
    #  decompose length, project length, verify max length, verify samples)
    SCRIPT = (
        ("a3", "A3", 3, 2, 4, 3, 1, 8),
        ("a_aff_2", "A_aff_2", 5, 4, 6, 4, 1, 8),
        ("d4", "D4", 4, 3, 5, 4, 1, 8),
        ("e6", "E6", 6, 4, 5, 4, 1, 8),
    )

    def __init__(self, ph, seed: int, root: Path, tmp: Path):
        self.ph = ph
        self.root = root
        self.env = child_env(root)
        rng = np.random.default_rng(seed)
        self.e6 = Relabelled("E6", rng)
        self.e6_path = tmp / "e6.json"
        self.argvs = []
        self.graphs = {}
        for arg, name, dmax, elen, dlen, plen, vmax, vsamples in self.SCRIPT:
            if arg == "e6":
                text, arg = self.e6.text, str(self.e6_path)
            else:
                text = (root / "src" / "pathhopf" / "graphs" / f"{arg}.json").read_text()
            doc = json.loads(text)
            adj = adjacency(len(doc["vertices"]), doc["edges"])
            self.graphs[arg] = (text, CATALOG[name][2], adj)

            def walk(n):
                paths = walks(adj, n, int(rng.integers(len(adj))))
                return "-".join(map(str, paths[int(rng.integers(len(paths)))]))

            left, right = walk(plen), walk(plen)
            a = f"({walk(1)}|{walk(1)})"
            b = f"({walk(1)}|{walk(1)})"
            self.argvs += [
                ["spectrum", arg, "--format", "json"],
                ["dims", arg, "--max", str(dmax), "--format", "json"],
                ["essentials", arg, "--length", str(elen), "--format", "json"],
                ["decompose", arg, "--path", walk(dlen), "--format", "json"],
                ["project", arg, "--left", left, "--right", right, "--format", "json"],
                ["multiply", arg, "--a", a, "--b", b, "--format", "json"],
                ["verify", arg, "--max-length", str(vmax), "--samples", str(vsamples),
                 "--seed", str(seed), "--format", "json"],
                ["export", arg, "--max", str(dmax)],
            ]

    def setup(self):
        self.e6_path.write_text(self.e6.text)

    def round(self, ops):
        return [_timed(ops, self._run_process, argv) for argv in self.argvs]

    def round_in_process(self, ops):
        """The same argv through `cli.run` in this process (traced runs)."""
        return [_timed(ops, self._run_in_process, argv) for argv in self.argvs]

    def _run_process(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def _run_in_process(self, argv):
        import pathhopf.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = pathhopf.cli.run(list(argv))
        return code, buf.getvalue()

    def check(self, outputs, gate, first):
        if first:
            self.reference = [stdout for _, stdout in outputs]
        for argv, (code, stdout), ref in zip(self.argvs, outputs, self.reference):
            gate.check(code == 0, f"exit code {code} for {' '.join(argv)}")
            if not first:
                gate.check(stdout == ref, f"output changed between rounds: {' '.join(argv)}")
                continue
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                gate.check(False, f"output is not JSON: {' '.join(argv)}")
                continue
            gate.check(self._output_ok(argv, doc), f"output check: {' '.join(argv)}")

    def _output_ok(self, argv, doc) -> bool:
        command, arg = argv[0], argv[1]
        text, coxeter, adj = self.graphs[arg]
        oracle = [int(m.sum()) for m in fusion_dims(adj, 8)]
        if command == "spectrum":
            return abs(doc["beta"] - expected_beta(coxeter)) < 1e-8
        if command == "dims":
            return doc["dims"] == oracle[: len(doc["dims"])] and len(doc["dims"]) == int(argv[3]) + 1
        if command == "essentials":
            return doc["dimension"] == oracle[int(argv[3])] and len(doc["vectors"]) == doc["dimension"]
        if command == "export":
            return doc["essential_dims"] == oracle[: int(argv[3]) + 1]
        if command == "verify":
            return doc["all_passed"] is True and len(doc["axioms"]) == 15
        if command == "decompose":
            return self._recomposes(text, doc)
        # project / multiply: a list of essential-endomorphism entries
        return isinstance(doc, list) and all(
            len(t["path"].split("-")) == e["length"] + 1
            for e in doc for side in ("left", "right") for t in e[side]
        )

    def _recomposes(self, text, doc) -> bool:
        """The printed terms must sum back to the unit path (to print precision)."""
        ph = self.ph
        space = ph.PathSpace(ph.parse_graph(text))
        path = tuple(int(v) for v in doc["path"].split("-"))
        total = ph.PathVector.unit(path) * -1.0
        for term in doc["terms"]:
            coeffs = {
                tuple(int(v) for v in t["path"].split("-")): complex(*t["coeff"])
                for t in term["vector"]
            }
            vec = ph.PathVector(len(path) - 1 - 2 * len(term["word"]), coeffs)
            total = total + space.apply_word(ph.OperatorWord(tuple(term["word"])), vec)
        return bool(doc["terms"]) and total.sup_norm() < 1e-6


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {
    "basis_ladder": BasisLadder,
    "decompose_project": DecomposeProject,
    "hopf_verify": HopfVerify,
    "cli_cold": CliCold,
}
