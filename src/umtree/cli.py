"""Command-line surface over Newick files.

Subcommands: build, greedy, necessity, explain, breakup, check,
enumerate, gen. Stdout carries only payloads (Newick trees, atom
strings); run statistics go to stderr as one JSON object. Exit codes:
0 success/compatible, 1 incompatible (or check failed), 2 parse/usage
error, 3 precondition failure, 4 internal error (an unexpected
exception, reported instead of posing as a verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from .generate import random_forest
from .phylo import (
    UNRANKED,
    NewickParseError,
    displays,
    parse_atom,
    parse_newick_many,
    serialize_newick,
)
from .supertree import (
    DateBounds,
    Forest,
    Predates,
    PreconditionError,
    SideConstraint,
    build_model,
    build_supertree,
    enumerate_supertrees,
    explain_conflict,
    greedy_build_with_model,
    necessity,
)

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _read_trees(paths):
    trees = []
    for path in paths:
        try:
            with open(path) as fh:
                trees.extend(parse_newick_many(fh.read()))
        except NewickParseError as e:  # name the file, as the sidecar does
            raise ValueError(f"{path}: {e}") from None
    return trees


def _load_forest(paths) -> Forest:
    return Forest.from_trees(_read_trees(paths))


def _load_species_forest(paths) -> Forest:
    """The forest of a command that reads every leaf as a species and
    applies no ranks. Only `build` resolves enclosing taxa and ranks, so
    here a label on a leaf and an internal node, or a rank, is an error."""
    forest = _load_forest(paths)
    both = sorted(set(forest.taxa).intersection(forest.species))
    if both:
        raise ValueError(f"taxon {both[0]!r} also labels a leaf; only build resolves enclosing taxa")
    if any(rank_state != UNRANKED for rank_state in forest.rank_states):
        raise ValueError("the forest has a ranked internal node; only build applies ranks")
    return forest


def _parse_constraints(path: str, species: set[str]) -> list[SideConstraint]:
    """Line-oriented sidecar: `predates a b c d` posts M_ab < M_cd,
    `bounds a b LO HI` clamps M_ab; `#` starts a comment. A line that
    names a species outside `species`, pairs a species with itself or
    gives an empty range is an error that names its `path:line`."""
    sides: list[SideConstraint] = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    sides.append(_parse_side(line, species))
                except ValueError as e:
                    raise ValueError(f"{path}:{ln}: {e}") from None
    return sides


def _parse_side(line: str, species: set[str]) -> SideConstraint:
    parts = line.split()
    if len(parts) != 5 or parts[0] not in ("predates", "bounds"):
        raise ValueError(f"unknown constraint line {line!r}")
    kind, a, b, c, d = parts
    pairs = ((a, b), (c, d)) if kind == "predates" else ((a, b),)
    for x, y in pairs:
        for s in (x, y):
            if s not in species:
                raise ValueError(f"unknown species {s!r}")
        if x == y:
            raise ValueError(f"{x} {x} is a diagonal cell, the constant 0, not a variable")
    if kind == "predates":
        return Predates(c=a, d=b, a=c, b=d)
    try:
        lo, hi = int(c), int(d)
    except ValueError:
        raise ValueError(f"bounds need two integers, got {line!r}") from None
    if lo > hi:
        raise ValueError(f"bounds {lo} {hi} are an empty range")
    return DateBounds(a, b, lo, hi)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stats_json(model, build_ms: float, solve_ms: float, result: str, extra: dict | None = None) -> str:
    stats = model.engine.stats
    payload = {
        "n": model.n,
        "variables": model.store.num_vars,
        "propagators": stats.peak_propagators,
        "wakes": stats.wakes,
        "search_nodes": stats.search_nodes,
        "build_ms": round(build_ms, 3),
        "solve_ms": round(solve_ms, 3),
        "result": result,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload)


def _cmd_build(args) -> int:
    forest = _load_forest(args.files)
    # nested-taxa preprocessing replaces the leaf occurrences of a taxon
    species = set(forest.species).difference(forest.taxa)
    sides = _parse_constraints(args.constraints, species) if args.constraints else []
    outcome = build_supertree(forest, mode=args.mode, sides=sides)
    print(
        _stats_json(outcome.model, outcome.build_ms, outcome.solve_ms, outcome.status),
        file=sys.stderr,
    )
    if outcome.tree is None:
        return EXIT_INCOMPATIBLE
    _emit(serialize_newick(outcome.tree) + "\n", args.out)
    return EXIT_OK


def _cmd_greedy(args) -> int:
    forest = _load_species_forest(args.files)
    t0 = time.perf_counter()
    tree, report, model = greedy_build_with_model(forest, mode=args.mode)
    ms = (time.perf_counter() - t0) * 1e3
    print(
        _stats_json(model, 0.0, ms, "incompatible" if report.rejected else "compatible",
                    {"report": report.to_json()}),
        file=sys.stderr,
    )
    _emit(serialize_newick(tree) + "\n", args.out)
    return EXIT_OK


def _cmd_necessity(args) -> int:
    forest = _load_species_forest(args.files)
    atom = parse_atom(args.atom)
    print("necessary" if necessity(forest, atom, mode=args.mode) else "not-necessary")
    return EXIT_OK


def _cmd_explain(args) -> int:
    forest = _load_species_forest(args.files)
    core = explain_conflict(forest, mode=args.mode)
    print(json.dumps(core.to_json()))
    return EXIT_OK


def _cmd_breakup(args) -> int:
    model = build_model(_load_forest(args.files), args.mode, post_atoms=False)
    for atom in model.atoms:
        print(atom)
    return EXIT_OK


def _cmd_check(args) -> int:
    supertree = _read_trees([args.supertree])
    if len(supertree) != 1:
        raise ValueError(f"{args.supertree}: expected exactly one supertree, found {len(supertree)}")
    for t in _read_trees(args.inputs):
        try:
            ok = displays(supertree[0], t)
        except ValueError:
            ok = False  # input has species the supertree lacks
        if not ok:
            return EXIT_INCOMPATIBLE
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    model = build_model(_load_species_forest(args.files), args.mode)
    trees = enumerate_supertrees(model, args.limit)
    for tree in trees:
        print(serialize_newick(tree))
    # limit >= 1 and the first tree found is cp_build's, so none means incompatible
    return EXIT_OK if trees else EXIT_INCOMPATIBLE


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    forest = random_forest(args.leaves, args.trees, args.prune, rng)
    _emit("".join(serialize_newick(t) + "\n" for t in forest), args.out)
    return EXIT_OK


@functools.cache  # main() runs once per command: build the parser once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umtree",
        description="Supertree construction by ultrametric constraint propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    def mode_flag(p):
        p.add_argument("--mode", choices=("hard", "soft"), default="hard",
                       help="breakup mode (default: hard)")
        p.add_argument("--soft", action="store_const", const="soft", dest="mode",
                       help="shorthand for --mode soft")
        p.add_argument("--hard", action="store_const", const="hard", dest="mode",
                       help="shorthand for --mode hard")

    p = add("build", _cmd_build, "build a supertree or report incompatibility")
    p.add_argument("files", nargs="+")
    mode_flag(p)
    p.add_argument("--constraints", help="side-constraints file (predates/bounds lines)")
    p.add_argument("--out", help="write the supertree here instead of stdout")

    p = add("greedy", _cmd_greedy, "build greedily, dropping conflicting atoms")
    p.add_argument("files", nargs="+")
    mode_flag(p)
    p.add_argument("--out")

    p = add("necessity", _cmd_necessity, "is an atom present in every supertree?")
    p.add_argument("files", nargs="+")
    p.add_argument("--atom", required=True, help='triple "(a,b)c" or fan "(a,b,c)"')
    mode_flag(p)

    p = add("explain", _cmd_explain, "minimal conflicting atom subset")
    p.add_argument("files", nargs="+")
    mode_flag(p)

    p = add("breakup", _cmd_breakup, "print the triples/fans of the input trees")
    p.add_argument("files", nargs="+")
    mode_flag(p)

    p = add("check", _cmd_check, "does the supertree display every input?")
    p.add_argument("supertree")
    p.add_argument("inputs", nargs="+")

    p = add("enumerate", _cmd_enumerate, "list distinct supertree topologies")
    p.add_argument("files", nargs="+")
    p.add_argument("--limit", type=int, default=100)
    mode_flag(p)

    p = add("gen", _cmd_gen, "generate a compatible random forest")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--trees", type=int, required=True)
    p.add_argument("--prune", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NewickParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
