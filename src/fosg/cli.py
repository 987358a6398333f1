"""Command-line front end.

Subcommands: ``inspect`` (validate and report counts), ``solve`` (cfr, cfrd,
or lp), ``timing`` (check or pad a classical tree), ``export`` (DOT views and
LP dumps). Exit codes: 0 success, 2 bad arguments, a validation or load
failure, or an output file that cannot be written (checked before any work
starts, and again when writing), 3 solver precondition failure (also for
``export --lp-dump``: a game that is not two-player), 4 timing precondition
failure, 5 the solver failed (an infeasible or unbounded LP, a used-up pivot
budget, or any other fosg error raised while solving).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from typing import Optional, Tuple

from . import games
from .cfr import SolverTree, cfr_run, exploitability, game_value
from .decomposition import Trunk, cfr_d
from .dot import export_view, render_key
from .errors import FosgError, InvalidArgument, NotZeroSum
from .io import efg_to_json, sniff_format, spec_from_json, efg_from_json, trace_to_csv
from .model import GameSpec, is_serial, serialize, validate
from .sequence_form import build_sequence_lp, lp_dump, lp_profile, solve_zero_sum_lp
from .timing import Timing, find_exact_timing, pad_to_1_timeable, witness_nodes
from .unroll import (ClassicalEFG, check_perfect_recall, forget_nonacting,
                     has_thick_public_sets, unroll)

SCHEMA = 1

ALIASES = {"pennies": "matching_pennies"}


def _load_game(source: str):
    """Resolve a builtin name or a JSON file into ("spec", GameSpec) or
    ("efg", ClassicalEFG, Optional[Timing])."""
    fixtures = games.catalog()
    source_name = ALIASES.get(source, source)
    if source_name in fixtures:
        fixture = fixtures[source_name]
        if fixture.kind == "spec":
            return ("spec", fixture.build())
        return ("efg", fixture.build(), None)
    if source.startswith("padding_chain:"):
        n = int(source.split(":", 1)[1])
        efg, timing = games.padding_chain(n)
        return ("efg", efg, timing)
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        kind = sniff_format(doc)
        if kind == "spec":
            return ("spec", spec_from_json(doc))
        return ("efg", efg_from_json(doc), None)
    raise FileNotFoundError(f"unknown builtin or missing file: {source}")


def _require_spec(loaded) -> GameSpec:
    if loaded[0] != "spec":
        raise InvalidArgument("this command requires a game-spec source, not a classical tree")
    return loaded[1]


def _validated_rep(spec: GameSpec, depth_bound: int):
    violations = validate(spec, depth_bound)
    if violations:
        report = [f"{v.code}: {v.message}" + (f" (state {v.state})" if v.state else "")
                  for v in violations]
        raise FosgError("validation failed:\n" + "\n".join(report))
    return unroll(serialize(spec), depth_bound)


def _policy_json(profile) -> dict:
    return {
        str(player): {render_key(key): dict(sorted(dist.items()))
                      for key, dist in sorted(per.items(), key=lambda kv: render_key(kv[0]))}
        for player, per in profile.items()
    }


class _Unwritable(Exception):
    """An output file cannot be written; ``main`` reports it with exit 2."""


# The options that name files a command writes.
OUTPUT_OPTIONS = ("out", "trace", "lp_dump")


def _unwritable_reason(path: str) -> Optional[str]:
    """Why ``path`` cannot be opened for writing, or None when it looks writable."""
    if os.path.isdir(path):
        return "is a directory"
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return "no such directory"
    if not os.access(directory, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        return "permission denied"
    return None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def cmd_inspect(args) -> int:
    try:
        spec = _require_spec(_load_game(args.game))
        rep = _validated_rep(spec, args.depth_bound)
    except (FosgError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    recall_ok, _ = check_perfect_recall(rep)
    report = {
        "schema": SCHEMA,
        "game": args.game,
        "states": len(spec.states),
        "serial": is_serial(spec),
        "histories": len(rep.nodes),
        "terminals": len(rep.terminals()),
        "infosets": [len(rep.acting_infosets(p)) for p in rep.players],
        "public_states": len(rep.public_sets),
        "perfect_recall": recall_ok,
        "thick_public_sets": has_thick_public_sets(rep),
    }
    _emit(report, args.out)
    return 0


def _load_trunk(args, rep) -> Trunk:
    if not args.trunk_file:
        return Trunk.from_depth(rep, args.trunk_depth)
    with open(args.trunk_file, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not (isinstance(doc, list) and all(
            isinstance(key, list) and all(isinstance(o, str) for o in key) for key in doc)):
        raise InvalidArgument(
            "trunk file must hold a JSON list of public-state keys, each a list of strings")
    trunk = Trunk(keys=frozenset(tuple(key) for key in doc))
    trunk.validate(rep)
    return trunk


def _solver_failure(exc: FosgError) -> int:
    """Report a solve-stage error on one stderr line: exit 3 for NotZeroSum, else 5."""
    print(exc, file=sys.stderr)
    return 3 if isinstance(exc, NotZeroSum) else 5


def cmd_solve(args) -> int:
    try:
        spec = _require_spec(_load_game(args.game))
        rep = _validated_rep(spec, args.depth_bound)
        trunk = _load_trunk(args, rep) if args.method == "cfrd" else None
    except (FosgError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        tree = SolverTree(rep)
        if args.method == "cfr":
            result = cfr_run(rep, args.iters, mode=args.mode, trace_stride=args.stride,
                             tree=tree)
            profile = result.average_profile
            trace = result.trace
        elif args.method == "cfrd":
            outcome = cfr_d(rep, trunk, args.iters, args.subgame_iters,
                            trace_stride=args.stride, tree=tree)
            profile = outcome.completed_profile
            trace = outcome.trace
        else:
            lp = build_sequence_lp(rep, tree=tree)
            solution = solve_zero_sum_lp(lp)
            profile = lp_profile(rep, solution, lp)
            trace = []
            if args.lp_dump:
                _write_text(args.lp_dump, lp_dump(lp))
        gap = exploitability(rep, profile, tree=tree)
        value = game_value(rep, profile, tree=tree)[0]
    except FosgError as exc:
        return _solver_failure(exc)

    if args.trace:
        _write_text(args.trace, trace_to_csv(trace))
    result_doc = {
        "schema": SCHEMA,
        "method": args.method,
        "game": args.game,
        "iterations": args.iters if args.method != "lp" else None,
        "game_value": value,
        "exploitability": gap,
        "seed": args.seed,
        "wall_s": round(time.perf_counter() - started, 3),
        "policy": _policy_json(profile),
    }
    _emit(result_doc, args.out)
    return 0


def _as_efg(loaded, depth_bound: int) -> Tuple[ClassicalEFG, Optional[Timing]]:
    if loaded[0] == "efg":
        return loaded[1], loaded[2]
    spec = loaded[1]
    rep = _validated_rep(spec, depth_bound)
    return forget_nonacting(rep), None


def cmd_timing(args) -> int:
    try:
        efg, supplied = _as_efg(_load_game(args.game), args.depth_bound)
    except (FosgError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    timing, witness = find_exact_timing(efg)
    if args.action == "check":
        if timing is not None:
            doc = {"schema": SCHEMA, "timeable": True,
                   "labels": {efg.nodes[nid].name: label
                              for nid, label in sorted(timing.labels.items())}}
        else:
            doc = {"schema": SCHEMA, "timeable": False,
                   "witness": [list(step) for step in witness],
                   "witness_nodes": [efg.nodes[n].name for n in witness_nodes(witness)]}
        _emit(doc, args.out)
        return 0
    if timing is None:
        print("cannot pad: the game admits no exact timing", file=sys.stderr)
        return 4
    chosen = supplied if supplied is not None else timing
    padded = pad_to_1_timeable(efg, chosen)
    added = len(padded.nodes) - len(efg.nodes)
    report = {
        "schema": SCHEMA,
        "original": len(efg.nodes),
        "added": added,
        "padded": len(padded.nodes),
        "bound": len(efg.nodes) ** 2,
    }
    if args.out:
        _write_text(args.out, json.dumps(efg_to_json(padded), indent=2, sort_keys=True) + "\n")
    _emit(report, None)
    return 0


def cmd_export(args) -> int:
    try:
        spec = _require_spec(_load_game(args.game))
        rep = _validated_rep(spec, args.depth_bound)
        text = export_view(rep, args.view)
    except (FosgError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        dump = lp_dump(build_sequence_lp(rep)) if args.lp_dump else None
    except FosgError as exc:
        return _solver_failure(exc)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if dump is not None:
        _write_text(args.lp_dump, dump)
    return 0


def _int_at_least(minimum: int, kind: str):
    """An argparse type for integers of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fosg", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--depth-bound", type=int, default=64)
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="validate a game and report its shape")
    p_inspect.add_argument("--game", required=True)
    p_inspect.add_argument("--out")
    p_inspect.set_defaults(func=cmd_inspect)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="run a solver and write result artifacts")
    p_solve.add_argument("method", choices=("cfr", "cfrd", "lp"))
    p_solve.add_argument("--game", required=True)
    p_solve.add_argument("--iters", type=_positive_int, default=1000)
    p_solve.add_argument("--mode", choices=("simultaneous", "alternating"),
                         default="simultaneous")
    p_solve.add_argument("--trunk-depth", type=_positive_int, default=2)
    p_solve.add_argument("--trunk-file")
    p_solve.add_argument("--subgame-iters", type=_positive_int, default=1000)
    p_solve.add_argument("--stride", type=_non_negative_int, default=0)
    p_solve.add_argument("--trace")
    p_solve.add_argument("--out")
    p_solve.add_argument("--lp-dump")
    p_solve.set_defaults(func=cmd_solve)

    p_timing = sub.add_parser("timing", parents=[common], help="check timeability or pad to unit steps")
    p_timing.add_argument("action", choices=("check", "pad"))
    p_timing.add_argument("--game", required=True)
    p_timing.add_argument("--out")
    p_timing.set_defaults(func=cmd_timing)

    p_export = sub.add_parser("export", parents=[common], help="write DOT views or an LP dump")
    p_export.add_argument("--view", required=True,
                          help="history | infoset:<player> | public")
    p_export.add_argument("--game", required=True)
    p_export.add_argument("--out")
    p_export.add_argument("--lp-dump")
    p_export.set_defaults(func=cmd_export)
    return parser


# Built on the first call and reused: parsing leaves the parser unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FOSG_LOG", "WARNING").upper())
    args = _parser().parse_args(argv)
    for option in OUTPUT_OPTIONS:
        path = getattr(args, option, None)
        reason = _unwritable_reason(path) if path else None
        if reason is not None:
            print(f"cannot write {path}: {reason}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
