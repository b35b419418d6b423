"""Check that two trees give the same outputs, bit for bit, on the
benchmark's items and on two probes of the pulse constructions.

    python tools/same_outputs.py --against BASE [--tree TREE]
        [--workload NAME ...] [--seeds FIRST-LAST]

imports bilinid from TREE/src (default: the tree this script lives in) and
from BASE/src, both in this one process under distinct package names, with
tools/layer_times.py's load_tree, so each tree runs the items that this
tree's bench/workloads.py generates with its own package. For each
workload it runs every item at each seed (default 1-10) on both trees and
compares the two outcomes: the signature() of each result, byte for byte,
or the name of the error an op raised. The probes:

- sampled-l: sampled_pair over 120 B_alpha draws per seed (each tree
  draws with its own sample_in_B_alpha from default_rng(seed); tau cycles
  through 0.5, 1 and 2) at each l of None, 1, -1, 2 and -3, with the
  pulse-pairs workload's signature;
- oracle: the records of oracle_from_tuple on 40 Gaussian systems per
  seed (n = 1..3, both kinds, alpha cycling through 1, -0.5 and 2) over a
  fixed design of 7 widths (0 included) and 9 offsets.

It prints, per workload, how many outcomes it compared, how many of them
are errors in BASE, how many differ, and the largest relative difference |a - b| / max(|a|, |b|) over the
numbers of the outcomes that differ; the exit status is 1 when any
outcome differs. BASE is a tree; a git revision can be made one with
`git archive REV | tar -x -C DIR`.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layer_times import HERE, load_tree  # noqa: E402  (sets BLAS threads)

PROBES = ("sampled-l", "oracle")
L_VALUES = (None, 1, -1, 2, -3)
WIDTHS = np.linspace(0.0, 1.5, 7)
OFFSETS = np.linspace(0.0, 2.0, 9)


def outcome(work, signature, op):
    """The numbers of op's result, as float64, and its labels; or no
    numbers and the labels ("raised", name) when op raises a library error
    or a ValueError. work is the workloads module of op's tree."""
    errors = (sys.modules[f"{work.bl.__name__}.errors"].BilinError,
              ValueError)
    try:
        x, labels = signature(op())
    except errors as e:
        return np.array([]), ("raised", type(e).__name__)
    return np.asarray(x, dtype=float), labels


def ops_of(work, name, seed):
    """The zero-argument ops of one tree (work is its workloads module) for
    a workload or probe at a seed, and the signature of their results."""
    bl, rng = work.bl, np.random.default_rng(seed)
    ops = []
    if name == "sampled-l":
        for i in range(120):
            t, _ = bl.sample_in_B_alpha(1.0, rng)
            tau = (0.5, 1.0, 2.0)[i % 3]
            ops += [lambda t=t, tau=tau, l=l: bl.sampled_pair(t, tau, 1.0, l)
                    for l in L_VALUES]
        return ops, work.WORKLOADS["pulse-pairs"].signature
    if name == "oracle":
        for i in range(40):
            n, kind = 1 + i % 3, ("I", "II")[i // 3 % 2]
            t = bl.gaussian_tuple(n, rng, kind, 0.5)
            alpha = (1.0, -0.5, 2.0)[i % 3]
            ops.append(lambda t=t, alpha=alpha: bl.oracle_from_tuple(
                t, alpha).records(WIDTHS, OFFSETS))
        return ops, lambda Y: (np.ravel(Y), ())
    w = work.WORKLOADS[name]
    items = w.generate(work.rng_for(name, seed))
    return [lambda item=item: w.run(item) for item in items], w.signature


def relative_difference(x0, x1):
    """max |a - b| / max(|a|, |b|) over the entries, 0 where a == b."""
    if x0.shape != x1.shape:
        return np.inf
    scale = np.maximum(np.abs(x0), np.abs(x1))
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(x0 == x1, 0.0, np.abs(x0 - x1) / scale)
    return float(np.max(d, initial=0.0))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="BASE", type=Path, required=True)
    parser.add_argument("--tree", type=Path, default=HERE)
    parser.add_argument("--workload", action="append",
                        help="a bench workload or a probe (default: all)")
    parser.add_argument("--seeds", default="1-10", metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE / "tests"), str(HERE / "bench")]
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    _, base = load_tree(args.against, "bilinid_base")
    _, tree = load_tree(args.tree, "bilinid_tree")
    names = args.workload or [*tree.WORKLOADS, *PROBES]
    differ_any = False
    for name in names:
        compared = raised = differ = 0
        worst = 0.0
        for seed in seeds:
            ops0, sig0 = ops_of(base, name, seed)
            ops1, sig1 = ops_of(tree, name, seed)
            for op0, op1 in zip(ops0, ops1, strict=True):
                x0, s0 = outcome(base, sig0, op0)
                x1, s1 = outcome(tree, sig1, op1)
                compared += 1
                raised += s0[:1] == ("raised",)
                if s0 != s1 or x0.tobytes() != x1.tobytes():
                    differ += 1
                    worst = max(worst, relative_difference(x0, x1))
        differ_any |= differ > 0
        print(f"{name:12} {compared:6d} compared ({raised} raised in BASE) "
              f"{differ:6d} differ; largest relative difference {worst:.3e}")
    return 1 if differ_any else 0


if __name__ == "__main__":
    sys.exit(main())
