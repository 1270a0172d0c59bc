"""Command-line interface.

Five subcommands: ``group`` (Cayley table), ``graph`` (power / enhanced /
proper power graph), ``spectrum`` (exact characteristic polynomial),
``verify`` (closed-form catalog against brute force), ``export`` (same
artifacts to files).  Exit codes: 0 success, 1 invalid arguments or failed
construction, 2 a verification case was falsified.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Callable, Sequence

from .errors import SpectraError
from .graphs import Graph, adjacency_matrix, diameter, distance_matrix, to_dot
from .groups import (
    FAMILY_PARAMS,
    FiniteGroup,
    GroupFamilySpec,
    family_spec,
    group_to_json_obj,
    make_group,
    order_census,
)
from .linalg import IntMatrix, char_poly
from .theorems import (
    DEFAULT_MAX_ORDER,
    GRAPH_BUILDERS,
    THEOREMS,
    THEOREM_IDS,
    TheoremCase,
    check_case,
    closed_form_for,
    enumerate_cases,
    make_case,
    parallel_map,
    verify,
)


_PARAMS = ("n", "p", "q", "m")  # the --n --p --q --m flags of every family


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pgspectra",
        description="Exact spectra of power graphs and enhanced power graphs "
        "of finite group families.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=sorted(FAMILY_PARAMS))
        add_params(p)

    def add_params(p: argparse.ArgumentParser) -> None:
        for name in _PARAMS:
            p.add_argument(f"--{name}", type=int)

    def add_output(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--format", choices=list(formats), default=formats[0])
        p.add_argument("--output", help="write to this path instead of stdout")

    def add_artifact_output(p: argparse.ArgumentParser, artifact: str) -> None:
        add_output(p, [fmt for what, fmt in _RENDERERS if what == artifact])

    p_group = sub.add_parser("group", help="construct a group and print it")
    add_family(p_group)
    add_artifact_output(p_group, "group")

    p_graph = sub.add_parser("graph", help="construct a graph of a group")
    add_family(p_graph)
    p_graph.add_argument("--graph", required=True, choices=tuple(GRAPH_BUILDERS))
    add_artifact_output(p_graph, "graph")

    p_spec = sub.add_parser("spectrum", help="exact characteristic polynomial")
    add_family(p_spec)
    p_spec.add_argument("--graph", required=True, choices=tuple(GRAPH_BUILDERS))
    p_spec.add_argument("--matrix", required=True, choices=("adjacency", "distance"))
    add_artifact_output(p_spec, "spectrum")

    p_verify = sub.add_parser("verify", help="check closed forms against brute force")
    p_verify.add_argument("--theorem", choices=list(THEOREM_IDS))
    p_verify.add_argument("--all", action="store_true")
    add_params(p_verify)
    p_verify.add_argument("--n-range", dest="n_range", help="inclusive range a:b")
    p_verify.add_argument("--max-order", dest="max_order", type=int, default=DEFAULT_MAX_ORDER)
    p_verify.add_argument("--jobs", type=int, default=1)
    add_output(p_verify, ("jsonl", "text"))

    p_export = sub.add_parser("export", help="write an artifact to a file")
    add_family(p_export)
    p_export.add_argument("--what", required=True, choices=tuple(_EXPORT_FORMATS))
    p_export.add_argument("--graph", dest="graph", choices=tuple(GRAPH_BUILDERS))
    p_export.add_argument("--matrix", choices=("adjacency", "distance"))
    p_export.add_argument("--format", choices=sorted(set(chain(*_EXPORT_FORMATS.values()))))
    p_export.add_argument("--output", required=True)
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _explicit_params(args: argparse.Namespace) -> dict[str, int]:
    return {k: getattr(args, k) for k in _PARAMS if getattr(args, k) is not None}


def _family_spec(args: argparse.Namespace) -> GroupFamilySpec:
    family = args.family
    wanted = FAMILY_PARAMS[family]
    values = _explicit_params(args)
    missing = [w for w in wanted if w not in values]
    extra = [k for k in values if k not in wanted]
    if missing or extra:
        raise _UsageError(
            f"family {family!r} takes --{' --'.join(wanted)}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )
    return family_spec(family, values)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"range must look like a:b, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"range bounds must be integers, got {text!r}") from None
    if lo > hi:
        raise _UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# Artifacts and their renderers
# ---------------------------------------------------------------------------


def _group(args: argparse.Namespace) -> FiniteGroup:
    return make_group(_family_spec(args))


def _graph(args: argparse.Namespace) -> tuple[FiniteGroup, Graph, list[str]]:
    """The group, its ``--graph`` graph and the graph's vertex labels."""
    group = _group(args)
    labels = list(group.labels)
    if args.graph == "proper-power":
        del labels[group.identity]
    return group, GRAPH_BUILDERS[args.graph](group), labels


def _matrix(graph: Graph, kind: str) -> IntMatrix:
    return distance_matrix(graph) if kind == "distance" else adjacency_matrix(graph)


def _group_text(args: argparse.Namespace) -> str:
    group = _group(args)
    census = ", ".join(f"{k}x{v}" for k, v in order_census(group).items())
    return f"group: {group.spec.describe()} (order {group.order})\nelement orders: {census}"


def _graph_json(args: argparse.Namespace) -> str:
    _, graph, _labels = _graph(args)
    return json.dumps({"vertex_count": graph.vertex_count, "edges": [list(e) for e in graph.edges()]})


def _graph_text(args: argparse.Namespace) -> str:
    group, graph, _labels = _graph(args)
    return (
        f"{args.graph} graph of {group.spec.describe()}:\n"
        f"  {graph.vertex_count} vertices, {graph.edge_count} edges, diameter {diameter(graph)}"
    )


def _matrix_renderer(kind: str, fmt: str) -> Callable[[argparse.Namespace], str]:
    def render(args: argparse.Namespace) -> str:
        _, graph, labels = _graph(args)
        matrix = _matrix(graph, kind)
        return matrix.to_csv(labels) if fmt == "csv" else json.dumps(matrix.to_json_obj())

    return render


def _spectrum_json(args: argparse.Namespace) -> str:
    return json.dumps(char_poly(_matrix(_graph(args)[1], args.matrix)).to_json_obj())


def _spectrum_text(args: argparse.Namespace) -> str:
    group, graph, _labels = _graph(args)
    matrix = _matrix(graph, args.matrix)
    lines = [
        f"{args.graph} graph of {group.spec.describe()}, {args.matrix} matrix "
        f"({matrix.rows}x{matrix.cols})",
        f"char poly: {char_poly(matrix).pretty()}",
    ]
    closed = closed_form_for(group.spec, args.graph, args.matrix)
    if closed is not None:
        lines.append(f"closed form: {closed.pretty()}")
    return "\n".join(lines)


# (artifact, format) -> renderer.  Each artifact's first format is the
# default of the command named after it.
_RENDERERS: dict[tuple[str, str], Callable[[argparse.Namespace], str]] = {
    ("group", "json"): lambda args: json.dumps(group_to_json_obj(_group(args))),
    ("group", "text"): _group_text,
    ("graph", "dot"): lambda args: to_dot(*_graph(args)[1:]),
    ("graph", "csv"): _matrix_renderer("adjacency", "csv"),
    ("graph", "json"): _graph_json,
    ("graph", "text"): _graph_text,
    ("adjacency", "csv"): _matrix_renderer("adjacency", "csv"),
    ("adjacency", "json"): _matrix_renderer("adjacency", "json"),
    ("distance", "csv"): _matrix_renderer("distance", "csv"),
    ("distance", "json"): _matrix_renderer("distance", "json"),
    ("spectrum", "json"): _spectrum_json,
    ("spectrum", "text"): _spectrum_text,
}

# export --what -> the formats it writes; the first is the default.
_EXPORT_FORMATS: dict[str, tuple[str, ...]] = {
    "group": ("json",),
    "graph": ("dot", "json"),
    "adjacency": ("csv", "json"),
    "distance": ("csv", "json"),
    "spectrum": ("json",),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_render(args: argparse.Namespace) -> int:
    _emit(_RENDERERS[(args.command, args.format)](args), args.output)
    return 0


def _verify_cases(args: argparse.Namespace) -> list[TheoremCase]:
    if args.all:
        if args.theorem or args.n_range or _explicit_params(args):
            raise _UsageError("--all cannot be combined with --theorem or parameters")
        return enumerate_cases(args.max_order)
    if not args.theorem:
        raise _UsageError("verify needs --theorem ID or --all")
    explicit = _explicit_params(args)
    if args.n_range:
        if THEOREMS[args.theorem].param_names != ("n",):
            raise _UsageError(
                f"--n-range only applies to single-parameter theorems, not {args.theorem}"
            )
        if explicit:
            raise _UsageError("--n-range cannot be combined with explicit parameters")
        param_sets = [{"n": n} for n in _parse_range(args.n_range)]
    elif explicit:
        param_sets = [explicit]
    else:
        return enumerate_cases(args.max_order, [args.theorem])
    cases = [make_case(args.theorem, **params) for params in param_sets]
    for case in cases:
        check_case(case)  # invalid hypotheses are an argument error here
    return cases


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    reports = parallel_map(verify, _verify_cases(args), args.jobs)
    if args.format == "jsonl":
        text = "\n".join(json.dumps(r.to_json_obj()) for r in reports)
    else:
        lines = []
        for r in reports:
            status = {True: "ok  ", False: "FAIL", None: "info"}[r.equal]
            line = f"{status} {r.case.describe()} order={r.group_order} {r.elapsed_ms}ms"
            if r.note:
                line += f"  # {r.note}"
            lines.append(line)
        falsified = sum(1 for r in reports if r.equal is False)
        informational = sum(1 for r in reports if r.equal is None)
        lines.append(
            f"{len(reports)} case(s): {falsified} falsified, {informational} informational"
        )
        text = "\n".join(lines)
    _emit(text, args.output)
    return 2 if any(r.equal is False for r in reports) else 0


def _cmd_export(args: argparse.Namespace) -> int:
    what = args.what
    if what != "group" and args.graph is None:
        raise _UsageError(f"export --what {what} needs --graph")
    if what == "spectrum" and args.matrix is None:
        raise _UsageError("export --what spectrum needs --matrix")
    formats = _EXPORT_FORMATS[what]
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise _UsageError(f"{what} export supports --format {' or '.join(formats)}")
    _emit(_RENDERERS[(what, fmt)](args), args.output)
    return 0


_COMMANDS = {
    "group": _cmd_render,
    "graph": _cmd_render,
    "spectrum": _cmd_render,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the process exit code (0 / 1 / 2)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpectraError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
