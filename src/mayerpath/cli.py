"""Command-line surface for the homology, classification and kernel tools."""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import (
    ComplexError,
    Digraph,
    PathComplex,
    digraph_from_json,
    parse_digraph,
    parse_simplices,
    path_complex_from_digraph,
    path_complex_from_simplicial,
)
from .cycles import orientation_profile, z1_generators
from .homology import ImageEscapesAllowed, betti_table, poincare_identity_check
from .linalg import InvariantViolation, NotASubspace
from .omega import omega_full, omega_nilpotency, omega_nq, verify_chain_closure
from .boundary import verify_nilpotency
from .report import run_compat_report
from .structure import SpanMismatch, minimal_clusters, omega2_decompose, special_edges

EXIT_INPUT = 1
EXIT_INVARIANT = 2
# Largest accepted --N.  Arithmetic in Q(zeta_N) first builds a table of
# about N powers of zeta of phi(N) rationals each, so an unchecked N
# allocates O(N * phi(N)) fractions before any path is read; every bundled
# input and benchmark case uses N <= 7.
MAX_ORDER = 64


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1), not with argparse's exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _load_input(path: str, kind: str, max_dim: int) -> tuple[PathComplex, Digraph | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        if path.endswith(".json"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: malformed JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise InputError("JSON input must be an object with an 'edges' or 'simplices' key")
            if "edges" in data and kind != "simplicial":
                g = digraph_from_json(data)
                return path_complex_from_digraph(g, max_dim), g
            if "simplices" in data:
                simplices = data["simplices"]
                if not isinstance(simplices, list) or not all(isinstance(s, list) for s in simplices):
                    raise InputError("'simplices' must be a JSON list of vertex lists")
                return path_complex_from_simplicial(
                    [tuple(str(v) for v in s) for s in simplices]), None
            raise InputError("JSON input needs an 'edges' or 'simplices' key")
        if kind == "digraph":
            g = parse_digraph(text)
            return path_complex_from_digraph(g, max_dim), g
        return path_complex_from_simplicial(parse_simplices(text)), None
    except ComplexError as exc:
        raise InputError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _json_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _check_config(args) -> None:
    if args.N < 2:
        raise InputError("N must be >= 2")
    if args.N > MAX_ORDER:
        raise InputError(f"N must be <= {MAX_ORDER}")
    if args.max_dim < 0:
        raise InputError("max-dim must be >= 0")
    if args.q != "all":
        try:
            level = int(args.q)
        except ValueError:
            raise InputError(f"q must be an integer or 'all', not {args.q!r}") from None
        if not 1 <= level <= args.N - 1:
            raise InputError(f"q must be between 1 and N-1={args.N - 1}")


def cmd_betti(args) -> int:
    _check_config(args)
    P, _ = _load_input(args.input, args.kind, args.max_dim)
    table = betti_table(P, args.N, args.max_dim)
    if args.q != "all":
        q = int(args.q)
        table.entries = {k: v for k, v in table.entries.items() if k[1] == q}
    if args.format == "json":
        _emit(_json_dumps(table.to_json_dict()), args.out)
    elif args.format == "csv":
        _emit(table.render_csv(), args.out)
    else:
        _emit(table.render_markdown(), args.out)
    return 0


def cmd_omega(args) -> int:
    _check_config(args)
    P, _ = _load_input(args.input, args.kind, args.max_dim)
    qs = [int(args.q)] if args.q != "all" else [None]
    lines = []
    payload = []
    for n in range(args.max_dim + 1):
        for q in qs:
            space = (omega_full(P, n, args.N) if q is None
                     else omega_nq(P, n, q, args.N)).space
            tag = "all" if q is None else str(q)
            lines.append(f"omega n={n} q={tag} dim={space.dim}")
            entry = {"n": n, "q": tag, "dim": space.dim}
            if args.show_basis:
                paths = P.paths(n)
                basis = []
                for row in space.basis:
                    terms = [f"({c.render()})*{P.path_label(paths[i])}"
                             for i, c in enumerate(row) if c]
                    basis.append(" + ".join(terms))
                entry["basis"] = basis
                lines.extend(f"  {b}" for b in basis)
            payload.append(entry)
    if args.format == "json":
        _emit(_json_dumps({"N": args.N, "input": P.digest(), "omega": payload}), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return 0


def cmd_classify(args) -> int:
    _check_config(args)
    P, _ = _load_input(args.input, args.kind, args.max_dim)
    if P.source != "digraph":
        raise InputError("classification applies to digraph inputs")
    gens = omega2_decompose(P, args.N)
    search = minimal_clusters(P, args.N, circuit_bound=args.circuit_bound)
    edges = special_edges(P)
    payload = {
        "N": args.N,
        "input": P.digest(),
        "omega2_generators": [
            {"kind": g.kind, "paths": [P.path_label(p) for p in g.paths]}
            for g in gens
        ],
        "special_edges": {
            key: [[P.labels[u], P.labels[v]] for u, v in val]
            for key, val in edges.items()
        },
        "clusters": [
            {
                "endpoints": [P.labels[c.endpoints[0]], P.labels[c.endpoints[1]]],
                "components": [
                    {"path": P.path_label(p), "coefficient": coeff.render()}
                    for p, coeff in c.components
                ],
                "labels": [f"g{l}" if l else "none" for l in c.labels],
                "family": c.family or "none",
                "chain": c.chain or "",
            }
            for c in search.clusters
        ],
        "truncated_pairs": [
            [P.labels[a], P.labels[b]] for a, b in search.truncated
        ],
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [f"invariant 2-chain generators: {len(gens)}"]
        for g in gens:
            lines.append(f"  {g.kind}: " + " , ".join(P.path_label(p) for p in g.paths))
        lines.append(f"minimal clusters: {len(search.clusters)}")
        for c in payload["clusters"]:
            lines.append(
                f"  ({c['endpoints'][0]},{c['endpoints'][1]}) family={c['family']}"
                + (f" chain={c['chain']}" if c["chain"] else "")
            )
        lines.append("special edges: " + _json_dumps(payload["special_edges"]))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_cycles(args) -> int:
    _check_config(args)
    P, g = _load_input(args.input, args.kind, args.max_dim)
    if g is None:
        raise InputError("cycle analysis applies to digraph inputs")
    result = z1_generators(g, args.N)
    payload = {
        "N": args.N,
        "kernel_dim": result.kernel_dim,
        "shortfall": result.shortfall,
        "fundamental_cycles": [],
        "generators": [],
    }
    for c, ok in zip(result.fundamental_cycles, result.admissible_flags):
        prof = orientation_profile(c)
        payload["fundamental_cycles"].append({
            "vertices": [g.labels[v] for v in c.vertices],
            "n": prof.n, "u1": prof.u1, "u2": prof.u2, "admissible": ok,
        })
    for gen in result.generators:
        terms = sorted(
            (f"e_{{{g.labels[u]},{g.labels[v]}}}", coeff.render())
            for (u, v), coeff in gen.chain.items()
        )
        payload["generators"].append({
            "kind": gen.kind,
            "chain": [f"({c})*{e}" for e, c in terms],
        })
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [f"kernel dim {result.kernel_dim} (shortfall {result.shortfall})"]
        for item in payload["fundamental_cycles"]:
            lines.append(
                f"  cycle {'-'.join(item['vertices'])}: n={item['n']} "
                f"u1={item['u1']} u2={item['u2']} admissible={item['admissible']}"
            )
        for gen in payload["generators"]:
            lines.append(f"  {gen['kind']}: " + " + ".join(gen["chain"]))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_check(args) -> int:
    _check_config(args)
    P, _ = _load_input(args.input, args.kind, args.max_dim)
    N = args.N
    results = {}
    results["nilpotent_on_invariant_complex"] = omega_nilpotency(P, N, args.max_dim)
    results["nilpotent_on_regular_span"] = verify_nilpotency(P, N, args.max_dim)
    results["chain_closure"] = all(
        verify_chain_closure(P, N, n) for n in range(1, args.max_dim + 1)
    )
    # betti_table raises if boundaries escape cycles anywhere on the grid
    table = betti_table(P, N, args.max_dim)
    results["boundaries_inside_cycles"] = True
    poincare = []
    for q in range(1, N):
        rep = poincare_identity_check(P, N, q)
        poincare.append({
            "q": q,
            "bounded": rep.bounded,
            "equal": rep.equal,
            "lhs": rep.lhs.render() if rep.lhs is not None else None,
            "rhs": rep.rhs.render() if rep.rhs is not None else None,
        })
    ok = results["nilpotent_on_invariant_complex"] and results["chain_closure"]
    payload = {"N": N, "input": P.digest(), "checks": results,
               "poincare": poincare, "betti": table.to_json_dict()["betti"]}
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [f"{k}: {v}" for k, v in results.items()]
        for rep in poincare:
            lines.append(
                f"poincare q={rep['q']}: "
                + ("unbounded complex, skipped" if not rep["bounded"]
                   else f"equal={rep['equal']} lhs={rep['lhs']} rhs={rep['rhs']}")
            )
        _emit("\n".join(lines), args.out)
    return 0 if ok else EXIT_INVARIANT


def cmd_report(args) -> int:
    report = run_compat_report(max_dim=3)
    if args.format == "json":
        _emit(_json_dumps(report.to_json_dict()), args.out)
    else:
        _emit(report.render_markdown(), args.out)
    return EXIT_INVARIANT if report.tier_a_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mayerpath",
        description="Exact root-of-unity path homology of digraphs and path complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="edge list, simplex list or JSON file")
            p.add_argument("--kind", choices=("digraph", "simplicial"), default="digraph")
            p.add_argument("--N", type=int, required=True, help="nilpotency order (>= 2)")
            p.add_argument("--q", default="all", help="specific level 1..N-1, or 'all'")
            p.add_argument("--max-dim", dest="max_dim", type=int, default=3)
        p.add_argument("--format", choices=("json", "md", "csv"), default="md")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("betti", help="Betti numbers over the (n, q) grid")
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("omega", help="dimensions/bases of the invariant-path spaces")
    common(p)
    p.add_argument("--show-basis", action="store_true")
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("classify", help="generator classification in dims 2 and 3")
    common(p)
    p.add_argument("--circuit-bound", dest="circuit_bound", type=int, default=8)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cycles", help="degree-1 kernel generators from spanning trees")
    common(p)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("check", help="nilpotency, closure, containment and Poincare checks")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="recompute the published fixture tables")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotASubspace, SpanMismatch, ImageEscapesAllowed, InvariantViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
