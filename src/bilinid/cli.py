"""Command-line interface.

Verbs: simulate, check-equiv, check-canonical, classify, counterexample,
identify, reproduce. All structured output is JSON on stdout (or --out);
matrices travel as decimal strings, so output is byte-stable across runs.

Exit codes: 0 success, 1 usage problems (bad flags, unreadable files),
2 domain failures (the JSON error document names the exception).
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .acceptance import ALL_CRITERIA
from .core import (INPUT_CLASS_KINDS, TYPE_II, _dumps, _loads, _tuple_dict,
                   from_json, input_from_dict, pair_to_json, seeded_rng,
                   trajectory_to_json)
from .counterex import (_check_pulse, classify, pulse_family_pair,
                        sample_in_B_alpha, sample_in_C, sample_in_G0,
                        sampled_pair, single_pulse_pair)
from .errors import BilinError
from .identify import IdentifyConfig, identify, oracle_from_tuple
from .matfun import DEFAULT_TOL
from .realization import _canonical_gap, io_equivalent
from .simulate import respond_pulse, simulate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Long options by their full names only, so that a removed option is
    a usage error and not read as a prefix of another (identify --h would
    be --help)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError()  # message already reported


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, step, end = (float(p) for p in spec.split(":"))
    except ValueError:
        raise _UsageError(f"grid must be start:step:end, got {spec!r}")
    if step <= 0 or end < start:
        raise _UsageError("grid needs step > 0 and end >= start")
    k = int(round((end - start) / step))
    if abs(start + k * step - end) > 1e-9 * max(1.0, abs(end)):
        k = int(np.floor((end - start) / step + 1e-12))
    return start + step * np.arange(k + 1)


def _tolerances(pairs):
    if not pairs:
        return DEFAULT_TOL
    names = {f.name for f in dataclasses.fields(DEFAULT_TOL)}
    overrides = {}
    for item in pairs:
        name, _, value = item.partition("=")
        if name not in names or not value:
            raise _UsageError(
                f"--tol expects name=value with name in {sorted(names)}")
        overrides[name] = float(value)
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _load_tuple(path: str):
    return from_json(Path(path).read_text())


def _emit(payload, out):
    text = payload if isinstance(payload, str) else _dumps(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _add_tol_and_out(s):
    s.add_argument("--tol", action="append", metavar="NAME=VALUE")
    s.add_argument("--out")


def _build_parser() -> _Parser:
    p = _Parser(prog="bilinid", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("simulate", help="simulate a system on a time grid")
    s.add_argument("--system", required=True, help="system JSON file")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--pulse", nargs=3, type=float,
                   metavar=("TAU", "ALPHA", "BETA"),
                   help="amplitude ALPHA on [0, TAU), BETA after")
    g.add_argument("--input", help="piecewise-constant input JSON file")
    s.add_argument("--grid", required=True, help="start:step:end")
    s.add_argument("--states", action="store_true",
                   help="include state trajectories")
    s.add_argument("--out")

    s = sub.add_parser("check-equiv",
                       help="test two systems for i/o equivalence")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    _add_tol_and_out(s)

    s = sub.add_parser("check-canonical",
                       help="test extended reachability and observability")
    s.add_argument("--system", required=True)
    _add_tol_and_out(s)

    s = sub.add_parser("classify",
                       help="membership in G0, C, the identifiable class, "
                            "and (n=2) B_alpha")
    s.add_argument("--system", required=True)
    s.add_argument("--alpha", type=float, default=1.0)
    _add_tol_and_out(s)

    s = sub.add_parser("counterexample",
                       help="construct an indistinguishable-but-inequivalent "
                            "pair for a restricted input class")
    s.add_argument("--class", dest="input_class", required=True,
                   choices=INPUT_CLASS_KINDS)
    s.add_argument("--tau", type=float, default=1.0)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--seed-tuple", help="system JSON file seeding the "
                                        "construction (sampled otherwise)")
    s.add_argument("--n", type=int, default=2,
                   help="dimension when sampling a seed")
    s.add_argument("--l", type=int, default=None,
                   help="aliasing integer for the sampled class")
    s.add_argument("--rng-seed", type=int, default=0)
    _add_tol_and_out(s)

    s = sub.add_parser("identify",
                       help="identify a system from its own pulse responses")
    s.add_argument("--system", required=True,
                   help="ground-truth system JSON file; the pulse oracle is "
                        "synthesized from it in process")
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--n-max", type=int, default=IdentifyConfig.n_max)
    s.add_argument("--rng-seed", type=int, default=0)
    _add_tol_and_out(s)

    s = sub.add_parser("reproduce",
                       help="run the acceptance criteria and print a table")
    s.add_argument("--only", type=int, action="append", metavar="K",
                   help="run only criterion K (repeatable)")
    return p


def _cmd_simulate(args):
    t = _load_tuple(args.system)
    grid = _parse_grid(args.grid)
    if args.input:
        u = input_from_dict(_loads(Path(args.input).read_text()))
        traj = simulate(t, u, grid, with_states=args.states)
    else:
        traj = respond_pulse(t, *args.pulse, grid, args.states)
    _emit(trajectory_to_json(traj), args.out)
    return 0


def _cmd_check_equiv(args):
    tol = _tolerances(args.tol)
    eq, word = io_equivalent(_load_tuple(args.a), _load_tuple(args.b), tol)
    _emit({"equivalent": eq, "word": word}, args.out)
    return 0


def _cmd_check_canonical(args):
    gap, = _canonical_gap(_load_tuple(args.system), tol=_tolerances(args.tol))
    reason = None if gap is None else f"{gap[0]} rank {gap[1]}"
    _emit({"canonical": gap is None, "reason": reason}, args.out)
    return 0


def _cmd_classify(args):
    cm = classify(_load_tuple(args.system), args.alpha, _tolerances(args.tol))
    _emit({"in_G0": cm.in_G0, "in_C": cm.in_C, "in_M": cm.in_M,
           "in_B_alpha": cm.in_B_alpha, "diagnostics": cm.diagnostics},
          args.out)
    return 0


def _cmd_counterexample(args):
    tol = _tolerances(args.tol)
    rng = seeded_rng(args.rng_seed, "counterexample")
    seed = _load_tuple(args.seed_tuple) if args.seed_tuple else None
    cls = args.input_class
    if cls == "single-pulse":
        if seed is None:
            seed, _ = sample_in_C(args.n, rng, tol)
        pair = single_pulse_pair(seed, args.tau, args.alpha, tol)
    elif cls in ("pulse-family", "constants"):
        tau = 0.0 if cls == "constants" else args.tau
        if seed is None:
            seed, _ = sample_in_G0(args.n, rng, tol, kind=TYPE_II)
        pair = pulse_family_pair(seed, tau, args.alpha, tol)
    else:
        _check_pulse(args.tau, args.alpha)    # a NaN alpha breaks the sampler
        if seed is None:
            seed, _ = sample_in_B_alpha(args.alpha, rng, tol)
        pair = sampled_pair(seed, args.tau, args.alpha, l=args.l, tol=tol)
    _emit(pair_to_json(pair), args.out)
    return 0


def _cmd_identify(args):
    t = _load_tuple(args.system)
    tol = _tolerances(args.tol)
    res = identify(oracle_from_tuple(t, args.alpha),
                   IdentifyConfig(n_max=args.n_max), tol,
                   seeded_rng(args.rng_seed, "identify"))
    _emit({"n": res.n_identified,
           "tuple": _tuple_dict(res.tuple),
           "diagnostics": res.diagnostics}, args.out)
    return 0


def _cmd_reproduce(args):
    only = args.only or range(1, len(ALL_CRITERIA) + 1)
    bad = [k for k in only if not 1 <= k <= len(ALL_CRITERIA)]
    if bad:
        raise _UsageError(f"no criterion {bad[0]}")
    results = [ALL_CRITERIA[k - 1]() for k in sorted(set(only))]
    for r in results:
        print(r.line)
        print(f"criterion {r.index}: {r.elapsed:.2f}s "
              f"(budget {r.budget:.0f}s)", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 2


_COMMANDS = {
    "simulate": _cmd_simulate,
    "check-equiv": _cmd_check_equiv,
    "check-canonical": _cmd_check_canonical,
    "classify": _cmd_classify,
    "counterexample": _cmd_counterexample,
    "identify": _cmd_identify,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except SystemExit as e:
        # argparse --help exits 0; treat every other SystemExit as usage
        return 0 if not e.code else 1
    except _UsageError as e:
        if e.args:
            sys.stderr.write(f"bilinid: error: {e}\n")
        return 1
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bilinid: error: {e}\n")
        return 1
    except BilinError as e:
        _emit({"error": type(e).__name__, "message": str(e)}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
