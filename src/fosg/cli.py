"""Command-line front end.

Subcommands: ``inspect`` (validate and report counts), ``solve cfr|cfrd|lp``
(one parser per method, each with only the options it reads), ``timing``
(check or pad a classical tree), ``export`` (DOT views and LP dumps). Exit
codes: 0 success, 2 bad arguments (an option the command does not read
among them), a validation or load failure, or an output file that cannot be
written (checked before any work starts, and again when writing), 3 solver
precondition failure (also for ``export --lp-dump``: a game that is not
two-player), 4 timing precondition failure, 5 the solver failed (an
infeasible or unbounded LP, a used-up pivot budget, or any other fosg error
raised while solving).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from typing import Optional, Tuple, Union

from . import games
from .cfr import cfr_run, exploitability, game_value
from .decomposition import Trunk, cfr_d
from .dot import export_view, render_key
from .errors import FosgError, InvalidArgument, NotZeroSum
from .io import efg_to_json, sniff_format, spec_from_json, efg_from_json, trace_to_csv
from .model import GameSpec, is_serial, serialize, validate
from .sequence_form import build_sequence_lp, lp_dump, lp_profile, solve_zero_sum_lp
from .timing import Timing, find_exact_timing, pad_to_1_timeable, witness_nodes
from .unroll import (ClassicalEFG, ExtensiveFormRep, check_perfect_recall, forget_nonacting,
                     has_thick_public_sets, unroll)

SCHEMA = 2

ALIASES = {"pennies": "matching_pennies"}


def _load_game(source: str) -> Union[GameSpec, Tuple[ClassicalEFG, Optional[Timing]]]:
    """Resolve a builtin name or a JSON file into a GameSpec, or into a
    classical tree paired with the timing it comes with (None if none)."""
    fixtures = games.catalog()
    source_name = ALIASES.get(source, source)
    if source_name in fixtures:
        fixture = fixtures[source_name]
        game = fixture.build()
        return game if fixture.kind == "spec" else (game, None)
    if source.startswith("padding_chain:"):
        return games.padding_chain(int(source.split(":", 1)[1]))
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if sniff_format(doc) == "spec":
            return spec_from_json(doc)
        return efg_from_json(doc), None
    raise FileNotFoundError(f"unknown builtin or missing file: {source}")


def _validated_rep(spec: GameSpec, depth_bound: int) -> ExtensiveFormRep:
    violations = validate(spec, depth_bound)
    if violations:
        report = [f"{v.code}: {v.message}" + (f" (state {v.state})" if v.state else "")
                  for v in violations]
        raise FosgError("validation failed:\n" + "\n".join(report))
    return unroll(serialize(spec), depth_bound)


# Each loader returns the arguments its command takes after ``args``.
def _load_rep(args) -> Tuple[GameSpec, ExtensiveFormRep]:
    """The game spec and its validated, unrolled tree."""
    spec = _load_game(args.game)
    if not isinstance(spec, GameSpec):
        raise InvalidArgument("this command requires a game-spec source, not a classical tree")
    return spec, _validated_rep(spec, args.depth_bound)


def _load_rep_and_trunk(args) -> Tuple[GameSpec, ExtensiveFormRep, Trunk]:
    spec, rep = _load_rep(args)
    if not args.trunk_file:
        return spec, rep, Trunk.from_depth(rep, args.trunk_depth)
    with open(args.trunk_file, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not (isinstance(doc, list) and all(
            isinstance(key, list) and all(isinstance(o, str) for o in key) for key in doc)):
        raise InvalidArgument(
            "trunk file must hold a JSON list of public-state keys, each a list of strings")
    trunk = Trunk(keys=frozenset(tuple(key) for key in doc))
    trunk.validate(rep)
    return spec, rep, trunk


def _load_view(args) -> Tuple[ExtensiveFormRep, str]:
    """The validated, unrolled tree and its ``--view`` in DOT."""
    _spec, rep = _load_rep(args)
    return rep, export_view(rep, args.view)


def _load_classical(args) -> Tuple[ClassicalEFG, Optional[Timing]]:
    """A classical tree and its supplied timing; a spec is validated, unrolled
    and restricted to each player's own decision nodes."""
    loaded = _load_game(args.game)
    if isinstance(loaded, GameSpec):
        return forget_nonacting(_validated_rep(loaded, args.depth_bound)), None
    return loaded


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


def cmd_inspect(args, spec: GameSpec, rep: ExtensiveFormRep) -> int:
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


def _solver_failure(exc: FosgError) -> int:
    """Report a solve-stage error on one stderr line: exit 3 for NotZeroSum, else 5."""
    print(exc, file=sys.stderr)
    return 3 if isinstance(exc, NotZeroSum) else 5


def cmd_solve(args, _spec: GameSpec, rep: ExtensiveFormRep,
              trunk: Optional[Trunk] = None) -> int:
    started = time.perf_counter()
    try:
        if args.method == "cfr":
            result = cfr_run(rep, args.iters, mode=args.mode, trace_stride=args.stride)
            profile = result.average_profile
            trace = result.trace
        elif args.method == "cfrd":
            outcome = cfr_d(rep, trunk, args.iters, args.subgame_iters,
                            trace_stride=args.stride)
            profile = outcome.completed_profile
            trace = outcome.trace
        else:
            lp = build_sequence_lp(rep)
            solution = solve_zero_sum_lp(lp)
            profile = lp_profile(rep, solution, lp)
            trace = None
            if args.lp_dump:
                _write_text(args.lp_dump, lp_dump(lp))
        gap = exploitability(rep, profile)
        value = game_value(rep, profile)[0]
    except FosgError as exc:
        return _solver_failure(exc)

    if trace is not None and args.trace:
        _write_text(args.trace, trace_to_csv(trace))
    result_doc = {
        "schema": SCHEMA,
        "method": args.method,
        "game": args.game,
        "iterations": getattr(args, "iters", None),
        "game_value": value,
        "exploitability": gap,
        "wall_s": round(time.perf_counter() - started, 3),
        "policy": _policy_json(profile),
    }
    _emit(result_doc, args.out)
    return 0


def cmd_timing(args, efg: ClassicalEFG, supplied: Optional[Timing]) -> int:
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


def cmd_export(args, rep: ExtensiveFormRep, text: str) -> int:
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
    """One parser per command and per solve method, each declaring only the
    options it reads, so argparse refuses any other with exit 2. Each names
    its loader as ``load`` and its command as ``func``."""
    parser = argparse.ArgumentParser(prog="fosg", description=__doc__)
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--game", required=True)
    game.add_argument("--out")
    game.add_argument("--depth-bound", type=int, default=64)
    iterative = argparse.ArgumentParser(add_help=False)
    iterative.add_argument("--iters", type=_positive_int, default=1000)
    iterative.add_argument("--stride", type=_non_negative_int, default=0)
    iterative.add_argument("--trace")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", parents=[game],
                               help="validate a game and report its shape")
    p_inspect.set_defaults(load=_load_rep, func=cmd_inspect)

    p_solve = sub.add_parser("solve", help="run a solver and write result artifacts")
    methods = p_solve.add_subparsers(dest="method", required=True)
    p_cfr = methods.add_parser("cfr", parents=[game, iterative],
                               help="counterfactual regret minimization on the whole tree")
    p_cfr.add_argument("--mode", choices=("simultaneous", "alternating"),
                       default="simultaneous")
    p_cfr.set_defaults(load=_load_rep, func=cmd_solve)
    p_cfrd = methods.add_parser("cfrd", parents=[game, iterative],
                                help="CFR-D: CFR on a trunk, its leaf subgames re-solved")
    p_cfrd.add_argument("--trunk-depth", type=_positive_int, default=2)
    p_cfrd.add_argument("--trunk-file")
    p_cfrd.add_argument("--subgame-iters", type=_positive_int, default=1000)
    p_cfrd.set_defaults(load=_load_rep_and_trunk, func=cmd_solve)
    p_lp = methods.add_parser("lp", parents=[game], help="the sequence-form linear program")
    p_lp.add_argument("--lp-dump")
    p_lp.set_defaults(load=_load_rep, func=cmd_solve)

    p_timing = sub.add_parser("timing", parents=[game],
                              help="check timeability or pad to unit steps")
    p_timing.add_argument("action", choices=("check", "pad"))
    p_timing.set_defaults(load=_load_classical, func=cmd_timing)

    p_export = sub.add_parser("export", parents=[game], help="write DOT views or an LP dump")
    p_export.add_argument("--view", required=True,
                          help="history | infoset:<player> | public")
    p_export.add_argument("--lp-dump")
    p_export.set_defaults(load=_load_view, func=cmd_export)
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
        loaded = args.load(args)
    except (FosgError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        return args.func(args, *loaded)
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
