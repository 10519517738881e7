"""Command-line front end.

Subcommands: spectrum, essentials, dims, decompose, project, multiply,
verify, export.  Exit codes: 0 success, 1 input or validation error,
2 axiom violation detected by `verify`.  Output is deterministic for a
fixed argv and seed; all numbers are printed with 9 decimal places.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PathHopfError
from .essential_decomp import decompose, essential_basis
from .fixtures import fixture_path
from .graph_core import Graph, coxeter_info, parse_graph
from .path_space import PathSpace, PathVector, format_path, path_from_literal
from .weak_hopf import (
    AlgebraElement,
    VerificationReport,
    multiply,
    projector_P,
    verify_axioms,
)


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _fmt_res(x: float) -> str:
    return f"{x:.9e}"


def _round(x: float) -> float:
    return float(f"{x:.9e}")


def _fmt_coeff(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.9f}i"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this surface reserves 2
    for axiom violations, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pathhopf",
        description=(
            "Essential paths on a simple biorientable graph and the weak "
            "*-Hopf algebra of their graded endomorphisms."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("graph", help="graph JSON file, or a bundled name like a3.json")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    common.add_argument("--cutoff", type=int, default=None, help="path length cutoff")

    sub.add_parser("spectrum", parents=[common], help="Perron-Frobenius data")

    p = sub.add_parser("essentials", parents=[common], help="essential basis at one length")
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("dims", parents=[common], help="essential dimensions per length")
    p.add_argument("--max", type=int, required=True, dest="max_length")

    p = sub.add_parser("decompose", parents=[common], help="creation-word decomposition of a path")
    p.add_argument("--path", required=True, help='path literal, e.g. "0-1-0"')

    p = sub.add_parser("project", parents=[common], help="project a path pair onto essential endomorphisms")
    p.add_argument("--left", required=True, help="left path literal")
    p.add_argument("--right", required=True, help="right path literal")

    p = sub.add_parser("multiply", parents=[common], help="product of two algebra elements")
    p.add_argument(
        "--a", required=True,
        help='algebra literal "(p|q)": path p tensor path q, projected onto '
             "the essential basis when not already essential",
    )
    p.add_argument("--b", required=True, help="second algebra literal")

    p = sub.add_parser("verify", parents=[common], help="check all weak-Hopf axioms numerically")
    p.add_argument("--max-length", type=int, required=True, dest="max_length")
    p.add_argument("--samples", type=int, default=100, help="random elements and triples for associativity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9, help="report tolerance")

    p = sub.add_parser("export", parents=[common], help="machine-readable dump of spectrum and bases")
    p.add_argument("--max", type=int, default=None, dest="max_length")
    return parser


def _load_graph(arg: str) -> Graph:
    path = Path(arg)
    if not path.is_file():
        # fall back to the bundled fixtures so "graphs/a3.json" and "a3"
        # work from any directory
        path = fixture_path(path.name)
    return parse_graph(path.read_text())


def _vector_lines(x: PathVector) -> str:
    if x.is_zero():
        return "0"
    return " + ".join(f"{_fmt_coeff(c)} * {format_path(p)}" for p, c in x.terms())


def _vector_obj(x: PathVector) -> list:
    return [
        {"path": format_path(p), "coeff": [_round(c.real), _round(c.imag)]}
        for p, c in x.terms()
    ]


def _basis_obj(basis) -> list:
    """One entry per basis vector: its index, endpoints and terms."""
    return [
        {"index": a, "source": s, "range": r, "terms": _vector_obj(xi)}
        for a, (xi, (s, r)) in enumerate(zip(basis.vectors, basis.endpoints))
    ]


def _element_text(x: AlgebraElement, out: list) -> None:
    if x.is_zero():
        out.append("0")
        return
    space = x.space
    for (n, a, b), z in x.terms():
        basis = essential_basis(space, n)
        out.append(f"length {n}: coeff {_fmt_coeff(z)}")
        out.append(f"  left : {_vector_lines(basis.vectors[a])}")
        out.append(f"  right: {_vector_lines(basis.vectors[b])}")


def _element_obj(x: AlgebraElement) -> list:
    """One entry per term: its length, the terms of both vectors and its coefficient."""
    out = []
    for (n, a, b), z in x.terms():
        xi = essential_basis(x.space, n).vectors
        out.append({"length": n, "left": _vector_obj(xi[a]), "right": _vector_obj(xi[b]),
                    "coeff": [_round(z.real), _round(z.imag)]})
    return out


def format_report(report: VerificationReport, fmt: str = "text") -> str:
    """Render a verification report; one line per axiom in text mode."""
    if fmt == "json":
        doc = {
            "graph": report.graph,
            "max_length": report.max_length,
            "samples": report.samples,
            "seed": report.seed,
            "tolerance": report.tolerance,
            "axioms": [
                {
                    "name": r.name,
                    "residual": _round(r.residual),
                    "passed": r.passed(report.tolerance),
                    "checked": r.checked,
                    "witness": [[list(key) for key in arg] for arg in r.witness],
                }
                for r in report.results
            ],
            "all_passed": report.all_passed,
        }
        return json.dumps(doc, indent=2)
    lines = [
        f"axiom verification on {report.graph}: max_length={report.max_length} "
        f"samples={report.samples} seed={report.seed} tol={_fmt_res(report.tolerance)}"
    ]
    for r in report.results:
        status = "PASS" if r.passed(report.tolerance) else "FAIL"
        lines.append(
            f"{r.name:<26} max residual {_fmt_res(r.residual)}  {status}"
            f"  {r.checked} checked" + (f", worst at {_fmt_witness(r.witness)}" if r.witness else "")
        )
    return "\n".join(lines)


def _fmt_witness(witness: tuple) -> str:
    """Each argument as the sum of its basis keys (n,a,b), arguments joined
    by " x "."""
    return " x ".join("+".join("({},{},{})".format(*key) for key in arg) for arg in witness)


def _parse_algebra_literal(space: PathSpace, text: str) -> AlgebraElement:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if "|" not in body:
        raise PathHopfError(f'algebra literal {text!r} must look like "(p|q)"')
    left_text, right_text = body.split("|", 1)
    left = PathVector.unit(path_from_literal(space.graph, left_text))
    right = PathVector.unit(path_from_literal(space.graph, right_text))
    if left.length != right.length:
        raise PathHopfError(f"literal {text!r} pairs paths of different lengths")
    return projector_P(space, left, right)


def run(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        out_lines: list[str] = []
        exit_code = _dispatch(args, out_lines)
        text = "\n".join(out_lines) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return exit_code
    except (PathHopfError, OSError, ValueError) as exc:
        print(f"pathhopf: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, out: list) -> int:
    if args.command in ("dims", "export") and (args.max_length or 0) < 0:
        raise PathHopfError(f"--max must be nonnegative, got {args.max_length}")
    graph = _load_graph(args.graph)
    space = PathSpace(graph, cutoff=args.cutoff)
    fmt = args.format

    if args.command == "spectrum":
        info = coxeter_info(space.spectrum)
        if fmt == "json":
            doc = {
                "graph": graph.name,
                "beta": _round(space.beta),
                "mu": [_round(v) for v in space.mu],
                "coxeter_number": info.coxeter_number if info else None,
                "max_essential_length": info.max_essential_length if info else None,
            }
            out.append(json.dumps(doc, indent=2))
        else:
            out.append(f"graph {graph.name}: {graph.num_vertices} vertices")
            out.append(f"beta = {_fmt(space.beta)}")
            out.append("mu = (" + ", ".join(_fmt(v) for v in space.mu) + ")")
            if info:
                out.append(f"coxeter number = {info.coxeter_number}")
                out.append(f"max essential length = {info.max_essential_length}")
            else:
                out.append("coxeter number = n/a (beta >= 2)")
        return 0

    if args.command == "essentials":
        basis = essential_basis(space, args.length)
        if fmt == "json":
            doc = {
                "graph": graph.name,
                "length": args.length,
                "dimension": len(basis),
                "vectors": _basis_obj(basis),
            }
            out.append(json.dumps(doc, indent=2))
        else:
            out.append(
                f"essential basis of {graph.name} at length {args.length}: "
                f"dimension {len(basis)}"
            )
            for a, xi in enumerate(basis.vectors):
                s, r = basis.endpoints[a]
                out.append(f"[{a}] ({s} -> {r})  {_vector_lines(xi)}")
        return 0

    if args.command == "dims":
        dims = [len(essential_basis(space, n)) for n in range(args.max_length + 1)]
        if fmt == "json":
            out.append(json.dumps({"graph": graph.name, "dims": dims, "total": sum(dims)}, indent=2))
        else:
            out.append("length  dimension")
            for n, d in enumerate(dims):
                out.append(f"{n:<7} {d}")
            out.append(f"total   {sum(dims)}")
        return 0

    if args.command == "decompose":
        path = path_from_literal(graph, args.path)
        d = decompose(space, PathVector.unit(path))
        if fmt == "json":
            doc = {
                "graph": graph.name,
                "path": format_path(path),
                "terms": [
                    {"word": list(w.indices), "vector": _vector_obj(xi)}
                    for w, xi in d.terms
                ],
            }
            out.append(json.dumps(doc, indent=2))
        else:
            out.append(
                f"decomposition of {format_path(path)} on {graph.name}: "
                f"{len(d.terms)} terms"
            )
            for w, xi in d.terms:
                word = "(" + ",".join(str(i) for i in w.indices) + ")"
                out.append(f"word {word:<10} {_vector_lines(xi)}")
        return 0

    if args.command == "project":
        left = PathVector.unit(path_from_literal(graph, args.left))
        right = PathVector.unit(path_from_literal(graph, args.right))
        if left.length != right.length:
            raise PathHopfError("left and right paths must have equal length")
        element = projector_P(space, left, right)
        if fmt == "json":
            out.append(json.dumps(_element_obj(element), indent=2))
        else:
            out.append(
                f"projection of {format_path(left.terms()[0][0])} (x) "
                f"{format_path(right.terms()[0][0])} on {graph.name}:"
            )
            _element_text(element, out)
        return 0

    if args.command == "multiply":
        a = _parse_algebra_literal(space, args.a)
        b = _parse_algebra_literal(space, args.b)
        product = multiply(a, b)
        if fmt == "json":
            out.append(json.dumps(_element_obj(product), indent=2))
        else:
            out.append(f"product {args.a} . {args.b} on {graph.name}:")
            _element_text(product, out)
        return 0

    if args.command == "verify":
        report = verify_axioms(
            space,
            args.max_length,
            samples=args.samples,
            seed=args.seed,
            tolerance=args.tol,
        )
        out.append(format_report(report, fmt))
        return 0 if report.all_passed else 2

    if args.command == "export":
        info = coxeter_info(space.spectrum)
        if args.max_length is not None:
            top = args.max_length
        elif info is not None:
            top = info.max_essential_length
        else:
            top = 4
        bases = [essential_basis(space, n) for n in range(top + 1)]
        doc = {
            "graph": {
                "name": graph.name,
                "vertices": list(graph.vertices),
                "edges": [
                    [i, j]
                    for i in range(graph.num_vertices)
                    for j in range(i + 1, graph.num_vertices)
                    if graph.adjacency[i, j]
                ],
            },
            "beta": _round(space.beta),
            "mu": [_round(v) for v in space.mu],
            "coxeter_number": info.coxeter_number if info else None,
            "max_essential_length": info.max_essential_length if info else None,
            "essential_dims": [len(basis) for basis in bases],
            "essential_basis": {str(n): _basis_obj(basis) for n, basis in enumerate(bases)},
        }
        out.append(json.dumps(doc, indent=2))
        return 0

    raise PathHopfError(f"unknown subcommand {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
