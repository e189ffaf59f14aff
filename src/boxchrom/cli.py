"""Command line front end: single-graph queries and conjecture sweeps.

Subcommands: spectrum, bounds, exact, diagnose, transfer, conjecture.  Every
command prints one UTF-8 JSON document tagged with a schema version.  Exit
codes: 0 success, 1 input error, 2 timeout; a conjecture sweep exits 1 when it
finds a counterexample, otherwise 3 when any instance raised (its record has
status "error"), otherwise 2 when any instance timed out.  A sweep's task is
one graph: chi(G) and the annotations read off G are found once for every d,
and at d = 1 the clustered value and witness are the improper ones, re-checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial

# One BLAS thread for the command-line process, unless the caller set the
# variables.  numpy reads them once, when it first loads, so this precedes the
# package imports (boxchrom/__init__ loads no numpy).  A sweep product and an
# exact solve have at most DEFAULT_CAP = 40 vertices; at that size, on a 2-core
# host with the other core busy, a threaded 36 x 36 eigh took 16 ms against
# 0.2 ms on one thread.  spectrum, bounds and diagnose take a graph of any
# size, and at n = 1000 threaded eigh was faster (132 against 196 ms, idle
# host): set OPENBLAS_NUM_THREADS for such a graph.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .bounds import WeightedCompatibleMatrix, bound_report, hoffman_bilu
from .colouring import Colouring, Mode, check_clustered, check_improper, lift_colouring
from .graphs import (
    Graph,
    complete_graph,
    emit_graph6,
    named_graph,
    parse_edgelist,
    parse_graph6,
    strong_product,
)
from .hoffman import diagnose_hoffman
from .smallgraphs import GENERATION_CAP, connected_graphs
from .solvers import (
    DEFAULT_CAP,
    SolveResult,
    alpha_d,
    chromatic_bfold,
    chromatic_clustered,
    chromatic_improper,
    clique_number,
    fractional_chromatic,
)
from .spectra import SNAP_TOL, MatrixKind, spectrum
from .transfer import descend

__all__ = [
    "ConjectureRecord",
    "SweepInvariantError",
    "SweepSpec",
    "main",
    "run_sweep",
    "sweep_exit",
]

SCHEMA = 2  # 2: sweep records carry an error field, the summary an error count


class CliInputError(ValueError):
    """Bad flags or malformed graph input; maps to exit code 1."""


class ArgParser(argparse.ArgumentParser):
    """Raises CliInputError on a bad flag, where argparse would exit 2, the timeout code.

    Subparsers inherit the class; ``--help`` still exits 0.
    """

    def error(self, message: str):
        raise CliInputError(f"{self.prog}: {message}")


class SweepInvariantError(RuntimeError):
    """A sweep result contradicts a proven theorem or its own witness: a solver bug."""


_SHORTHAND = re.compile(r"^([ckp])(\d+)$", re.IGNORECASE)
_BIPARTITE = re.compile(r"^k(\d+),(\d+)$", re.IGNORECASE)


def resolve_named(text: str) -> Graph:
    """Family names with parameters, plus c<N>/k<N>/p<N>/k<A>,<B> shorthands."""
    token = text.strip()
    if m := _BIPARTITE.match(token):
        family, params = "complete_bipartite", m.groups()
    elif m := _SHORTHAND.match(token):
        family, params = {"c": "cycle", "k": "complete", "p": "path"}[m[1].lower()], (m[2],)
    else:
        family, *params = token.split(",")
    try:  # the builder refuses a shorthand as it does a family name
        return named_graph(family, tuple(int(x) for x in params))
    except ValueError as e:
        raise CliInputError(str(e)) from e


def load_graph(args: argparse.Namespace) -> Graph:
    sources = [s for s in ("graph6", "edgelist", "named") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliInputError("give exactly one of --graph6, --edgelist, --named")
    if args.graph6:
        try:
            return parse_graph6(args.graph6)
        except ValueError as e:
            raise CliInputError(f"bad graph6: {e}") from e
    if args.edgelist:
        try:
            with open(args.edgelist, encoding="utf-8") as fh:
                return parse_edgelist(fh.read())
        except (OSError, ValueError) as e:
            raise CliInputError(f"bad edge list: {e}") from e
    return resolve_named(args.named)


def parse_colours(text: str, expected: int) -> Colouring:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError as e:
        raise CliInputError(f"bad colour list: {e}") from e
    if len(values) != expected:
        raise CliInputError(f"colour list has {len(values)} entries, expected {expected}")
    try:
        return Colouring.from_list(values)
    except ValueError as e:
        raise CliInputError(str(e)) from e


def _check_timeout(seconds: float) -> None:
    """Refuse a timeout that is not finite and positive.

    A NaN deadline never fires, since no clock reading is greater than NaN,
    so NaN would mean no limit, as infinity does; a run without a limit
    leaves the flag out.
    """
    if not 0 < seconds < math.inf:
        raise ValueError(f"timeout must be finite and positive, got {seconds}")


def _solve_exit(result: SolveResult) -> int:
    return 2 if result.status == "timeout" else 0


# -- subcommands -----------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> tuple[dict, int]:
    g = load_graph(args)
    kind = {
        "adjacency": MatrixKind.ADJACENCY,
        "laplacian": MatrixKind.LAPLACIAN,
        "signless": MatrixKind.SIGNLESS_LAPLACIAN,
    }[args.kind]
    try:
        s = spectrum(g, kind)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    payload = {
        "n": g.n,
        "kind": args.kind,
        "values": [float(v) for v in s.values],
        "groups": [[value, count] for value, count in s.groups()],
    }
    return payload, 0


def cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    g = load_graph(args)
    weights = None
    if args.weights:
        try:
            with open(args.weights, encoding="utf-8") as fh:
                weights = WeightedCompatibleMatrix.from_text(g, fh.read())
        except (OSError, ValueError) as e:
            raise CliInputError(f"bad weights file: {e}") from e
    try:
        report = bound_report(g, args.d, m_max=args.m, weights=weights)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    return report.to_json(), 0


def cmd_exact(args: argparse.Namespace) -> tuple[dict, int]:
    g = load_graph(args)
    b = args.b
    if b < 1:
        raise CliInputError("-b must be positive")
    if b != 1 and args.mode not in ("proper", "improper", "clustered"):
        raise CliInputError(f"--mode {args.mode} has no b-fold version; -b must be 1")
    ignored = {"proper": ("-d", "-t"), "clique": ("-d", "-t"), "improper": ("-t",), "alpha": ("-t",),
               "clustered": ("-d",), "fractional": ("--timeout",)}
    for flag in ignored[args.mode]:
        if getattr(args, flag.lstrip("-")) is not None:
            raise CliInputError(f"--mode {args.mode} takes no {flag}")
    if args.mode == "fractional" and args.d is not None and args.t is not None:
        raise CliInputError("--mode fractional takes -d or -t, not both")
    try:
        if args.mode == "alpha":
            result = alpha_d(g, args.d if args.d is not None else 0, timeout=args.timeout)
        elif args.mode == "clique":
            result = clique_number(g, timeout=args.timeout)
        else:
            kind = args.mode
            if kind == "fractional":  # relaxed by -d or -t when given, proper otherwise
                kind = "improper" if args.d is not None else "clustered" if args.t is not None \
                    else "proper"
            if kind == "improper" and args.d is None:
                raise CliInputError("--mode improper needs -d")
            if kind == "clustered" and args.t is None:
                raise CliInputError("--mode clustered needs -t")
            mode = Mode(kind, {"proper": None, "improper": args.d, "clustered": args.t}[kind])
            if args.mode == "fractional":
                result = fractional_chromatic(g, mode)
            elif b > 1:
                result = chromatic_bfold(g, b, mode, timeout=args.timeout)
            elif mode.kind == "clustered":
                result = chromatic_clustered(g, mode.param, timeout=args.timeout)
            else:
                result = chromatic_improper(g, mode.param or 0, timeout=args.timeout)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    payload = {"mode": args.mode, "d": args.d, "t": args.t, "b": b, "n": g.n}
    payload.update(result.to_json())
    return payload, _solve_exit(result)


def cmd_diagnose(args: argparse.Namespace) -> tuple[dict, int]:
    g = load_graph(args)
    try:
        if args.colours:
            colouring = parse_colours(args.colours, g.n)
            solved = None
        else:
            solved = chromatic_improper(g, args.d, timeout=args.timeout)
            if solved.status == "timeout":
                return {"status": "timeout", "d": args.d, "n": g.n}, 2
            colouring = solved.witness
        diag = diagnose_hoffman(g, args.d, colouring, check_uniqueness=args.uniqueness)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    payload = diag.to_json()
    payload["colouring"] = colouring.to_json()
    if solved is not None:
        payload["exact_value"] = solved.value
    return payload, 0


def cmd_transfer(args: argparse.Namespace) -> tuple[dict, int]:
    g = load_graph(args)
    t, ell = args.t, args.l
    for flag, value in (("t", t), ("l", ell)):
        if value < 1:
            raise CliInputError(f"-{flag} must be positive, got {value}")
    product = strong_product(g, complete_graph(t))
    try:
        if args.colours:
            product_colouring = parse_colours(args.colours, product.n)
            product_value = None
        else:
            solved = chromatic_clustered(product, ell * t, timeout=args.timeout)
            if solved.status == "timeout":
                return {"status": "timeout", "t": t, "l": ell, "n": g.n}, 2
            product_colouring = solved.witness
            product_value = solved.value
        res = descend(g, product_colouring, t, ell)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    payload = {
        "n": g.n,
        "t": t,
        "l": ell,
        "product_value": product_value,
        "base_colouring": res.colouring.to_json(),
        "num_colours": res.colouring.num_colours,
        "trace": res.trace.to_json(),
    }
    return payload, 0


# -- conjecture sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One conjecture sweep: a family of graphs crossed with improperness values."""

    family: str
    graphs: tuple[Graph, ...]
    ds: tuple[int, ...]
    timeout: float
    jobs: int

    def __post_init__(self):
        if not self.ds or any(d < 1 for d in self.ds):
            raise ValueError("d values must be positive")
        _check_timeout(self.timeout)
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        # checked before any worker starts: one over-cap product would lose the sweep
        largest = max((g.n for g in self.graphs), default=0) * (max(self.ds) + 1)
        if largest > DEFAULT_CAP:
            raise ValueError(f"a product G * K_(d+1) has {largest} vertices, "
                             f"solver cap is {DEFAULT_CAP}")


@dataclass(frozen=True)
class ConjectureRecord:
    """Outcome of one (graph, d) instance; witnesses re-validate on emission."""

    graph6: str
    n: int
    d: int
    chi: int | None
    chi_improper_product: int | None
    chi_clustered_product: int | None
    best_lower: int | None
    best_lower_name: str | None
    status: str
    annotations: tuple[str, ...]
    witness: dict | None
    millis: float
    error: dict | None = None  # type, message and traceback of the exception, status "error"

    def to_json(self) -> dict:
        # __init__ sets the fields in order, so vars() has the field order
        return {**vars(self), "annotations": list(self.annotations),
                "millis": round(self.millis, 3)}


def _sweep_graph(g: Graph, ds: tuple[int, ...], timeout: float) -> list[ConjectureRecord]:
    """The records of one graph in ``ds`` order; an exception becomes an "error" record.

    An exception in the part shared by every d errors every d, one in a d's
    own part that d only.  The base solve's time counts in each d's budget.
    """
    graph6 = emit_graph6(g)

    def error(d: int, since: float, e: Exception) -> ConjectureRecord:
        return ConjectureRecord(
            graph6, g.n, d, None, None, None, None, None, "error", (), None,
            (time.monotonic() - since) * 1e3,
            {"type": type(e).__name__, "message": str(e), "traceback": traceback.format_exc()},
        )

    start = time.monotonic()
    try:
        base = chromatic_improper(g, 0, timeout=timeout)
        base_s = time.monotonic() - start
        proven = []  # the annotations read off G alone
        if base.status == "optimal":
            if base.value <= 4:
                proven.append("proven:chi<=4")
            if clique_number(g).value == base.value:
                proven.append("proven:perfect-case")
            if g.edge_count and abs(hoffman_bilu(g, 0) - base.value) <= SNAP_TOL:
                proven.append("proven:hoffman-tight")
    except Exception as e:
        return [error(d, start, e) for d in ds]
    records = []
    for d in ds:
        since = time.monotonic() - base_s
        try:
            records.append(_sweep_record(g, graph6, d, base, proven, since + timeout))
        except Exception as e:
            records.append(error(d, since, e))
    return records


def _sweep_record(g: Graph, graph6: str, d: int, base: SolveResult, proven: list[str],
                  deadline: float) -> ConjectureRecord:
    """The record of G at d, given G's base solve and the annotations read off G."""
    product = strong_product(g, complete_graph(d + 1))
    # an optimal colouring of G, copied onto each fibre, colours the product
    lifted = lift_colouring(base.witness, d + 1) if base.status == "optimal" else None
    improper = chromatic_improper(product, d, timeout=max(0.0, deadline - time.monotonic()),
                                  upper_witness=lifted)
    solves = [base, improper]
    if d == 1:
        # a class has maximum degree <= 1 iff its components have at most 2
        # vertices (``solvers._rule_mode``): the 2-clustered search is this one
        clustered = improper
        bad = improper.witness is not None and check_clustered(product, improper.witness, 2)
        if bad:
            raise SweepInvariantError(f"{graph6} d=1: improper witness is not 2-clustered: {bad}")
    else:
        clustered = chromatic_clustered(product, d + 1, upper_witness=lifted,
                                        timeout=max(0.0, deadline - time.monotonic()))
        solves.append(clustered)
    report = bound_report(product, d)

    status, annotations, witness = "timeout", (), None
    if all(s.status != "timeout" for s in solves):
        # the clustered equality is a proven theorem: a mismatch is a solver bug
        if clustered.value != base.value:
            raise SweepInvariantError(
                f"{graph6} d={d}: clustered {clustered.value} != chi {base.value}")
        if improper.value > base.value:
            raise SweepInvariantError(
                f"{graph6} d={d}: improper {improper.value} > chi {base.value}")
        # at d = 1 the improper value is the clustered one, which equals chi as checked above
        annotations = (("proven:d=1",) if d == 1 else ()) + tuple(proven)
        status = "verified"
        if improper.value < base.value:
            status = "counterexample"
            bad = check_improper(product, improper.witness, d)
            if bad:
                raise SweepInvariantError(
                    f"{graph6} d={d}: counterexample witness is not {d}-improper: {bad}")
            witness = improper.witness.to_json()
    return ConjectureRecord(
        graph6, g.n, d, base.value, improper.value, clustered.value, report.best_lower,
        report.best_lower_name, status, annotations, witness, sum(s.millis for s in solves),
    )


# Graphs per pool round trip, at most: at n <= 8, d = 1,2 on 2 workers, one
# (graph, d) task per trip took 24.8 s and 64 per trip 13.8 s, same records.
_MAX_CHUNK = 64


def run_sweep(spec: SweepSpec) -> dict:
    """Execute a sweep, one task per graph; records keep input order regardless of worker timing.

    A pool sends graphs in chunks of up to ``_MAX_CHUNK``, and in at least
    four chunks per worker, so one slow chunk at the end leaves the others
    little idle time.
    """
    sweep = partial(_sweep_graph, ds=spec.ds, timeout=spec.timeout)
    if spec.jobs == 1:
        per_graph = list(map(sweep, spec.graphs))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay its import

        chunk = max(1, min(_MAX_CHUNK, len(spec.graphs) // (4 * spec.jobs)))
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            per_graph = list(pool.map(sweep, spec.graphs, chunksize=chunk))
    records = [r for rs in per_graph for r in rs]
    return {
        "schema": SCHEMA,
        "command": "conjecture",
        "family": spec.family,
        "d_values": list(spec.ds),
        "t_values": [d + 1 for d in spec.ds],
        "timeout": spec.timeout,
        "instances": len(records),
        "counterexamples": sum(r.status == "counterexample" for r in records),
        "timeouts": sum(r.status == "timeout" for r in records),
        "errors": sum(r.status == "error" for r in records),
        "records": [r.to_json() for r in records],
    }


def sweep_exit(report: dict) -> int:
    """Exit code of a sweep report.

    1 on a counterexample, else 3 when an instance raised, else 2 on a timeout,
    else 0.  An error outranks a timeout: its instance was not checked at all.
    Schema 1 reports have no error count and read as error-free.
    """
    if report["counterexamples"]:
        return 1
    if report.get("errors", 0):
        return 3
    return 2 if report["timeouts"] else 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise CliInputError(f"bad integer list {text!r}") from e


def _check_out(path: str | None) -> None:
    """Refuse an output path whose directory is missing, before any work runs."""
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise CliInputError(f"--out directory does not exist: {path}")


def cmd_conjecture(args: argparse.Namespace) -> tuple[dict, int]:
    ds = _parse_int_list(args.d or "1")
    if args.all_connected is not None:
        if not 1 <= args.all_connected <= GENERATION_CAP:
            raise CliInputError(f"--all-connected supports 1..{GENERATION_CAP}")
        graphs = tuple(
            g for n in range(1, args.all_connected + 1) for g in connected_graphs(n)
        )
        family = f"all-connected<= {args.all_connected}"
    elif args.graph6_file:
        try:
            with open(args.graph6_file, encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
            graphs = tuple(parse_graph6(ln) for ln in lines)
        except (OSError, ValueError) as e:
            raise CliInputError(f"bad graph6 file: {e}") from e
        family = f"graph6-file:{args.graph6_file}"
    elif args.named:
        graphs = tuple(resolve_named(token) for token in args.named)
        family = "named:" + ",".join(args.named)
    else:
        raise CliInputError("give --all-connected N, --graph6-file PATH, or --named NAME")
    try:
        spec = SweepSpec(family, graphs, ds, args.timeout, args.jobs)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    report = run_sweep(spec)
    return report, sweep_exit(report)


# -- wiring ----------------------------------------------------------------


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--edgelist", help="path to an edge list file ('n m' header)")
    p.add_argument("--named", help="family name, e.g. petersen, c5, k6, k3,3, complete,6")


def make_parser() -> argparse.ArgumentParser:
    parser = ArgParser(
        prog="boxchrom",
        description="improper and clustered colouring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues with multiplicity groups")
    _add_graph_flags(p)
    p.add_argument("--kind", choices=["adjacency", "laplacian", "signless"],
                   default="adjacency")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="lower bound report")
    _add_graph_flags(p)
    p.add_argument("-d", type=int, default=0, help="improperness")
    p.add_argument("-m", type=int, default=3, help="max top-eigenvalue count")
    p.add_argument("--weights", help="weighted compatible matrix file")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact", help="exact chromatic solvers")
    _add_graph_flags(p)
    p.add_argument("--mode", default="improper",
                   choices=["proper", "improper", "clustered", "fractional",
                            "alpha", "clique"])
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-t", type=int, default=None)
    p.add_argument("-b", type=int, default=1, help="fold size")
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("diagnose", help="spectral equality diagnostics")
    _add_graph_flags(p)
    p.add_argument("-d", type=int, default=0)
    p.add_argument("--colours", help="comma-separated colours; solved if omitted")
    p.add_argument("--uniqueness", action="store_true")
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("transfer", help="clustered product descent")
    _add_graph_flags(p)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-l", type=int, default=1)
    p.add_argument("--colours", help="product colouring; solved if omitted")
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("conjecture", help="sweep chi(G) vs improper product chi")
    p.add_argument("--all-connected", type=int, default=None, metavar="N")
    p.add_argument("--graph6-file")
    p.add_argument("--named", action="append")
    p.add_argument("-d", default="1", help="comma-separated improperness values")
    p.add_argument("--timeout", type=float, default=60.0, help="per-instance seconds")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_conjecture)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write JSON here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        _check_out(args.out)
        if getattr(args, "timeout", None) is not None:  # every subcommand that has --timeout
            try:
                _check_timeout(args.timeout)
            except ValueError as e:
                raise CliInputError(f"--{e}") from e
        payload, code = args.func(args)
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if "schema" not in payload:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
    text = json.dumps(payload, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write --out: {e}", file=sys.stderr)
            return 1
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
