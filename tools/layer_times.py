"""Time the layers of the counterexample pairs on the pulse-pairs
benchmark's items, the two simulators on the trains benchmark's items, the
realization verdicts on the equivalence benchmark's items and identify on
the identify benchmark's items (seed 1), in one process on one BLAS
thread.

    python tools/layer_times.py [--tree TREE]
    python tools/layer_times.py [--tree TREE] --against BASE [--rounds R]

imports bilinid from TREE/src (default: the tree this script lives in) and
the item generator from this tree's bench/workloads.py, so two trees can
be timed on the same items. It prints:

- µs per call of _power_table, _pulse_peaks, _moment_gap, io_equivalent
  and the linear-triple tests: _linear (the seed's one Krylov build),
  _self_dual (the G0 test's T from that build) and _c_tests, over the
  single-pulse and pulse-family items (the "pulse ops"), each call
  replayed with the arguments the pair constructor passed when it built
  that item's pair;
- pairs per second for each class: single-pulse, pulse-family, constants
  (the pulse family at tau = 0) and sampled;
- µs per call of simulate and sample_discrete over the trains items, as
  the trains workload calls them, and simulate's outputs per second (grid
  points returned per second of simulate);
- µs per call by n of io_equivalent against the conjugate and against the
  twin, is_canonical and similarity_between, over the equivalence items,
  as the equivalence workload calls them;
- µs per call by n and kind of identify over the identify items, as the
  identify workload calls it, and the expm calls (the oracle's included)
  and eig calls per identify;
- µs per call of the layers of identify (IDENTIFY_LAYERS) over the
  identify items: _logm_flows, replayed with the arguments identify passed
  it, and the final certificate, identify with _halving replaying what the
  attempts returned, so that only the checks after the attempts run.

Each figure is the best of REPEATS timings of REPS passes over the items,
so it reads the machine when it is least disturbed.

With --against BASE, it times the identify round and its layers, each
equivalence verdict by n, and each pair class of the pulse-pairs items, on
TREE and on BASE instead, both imported in this one process under
distinct package names (as bench/workloads.py is, once for each), in R
rounds (default 20) whose order alternates between the trees, and prints
for each the median over rounds of TREE's time over BASE's, with its
quartiles for each identify layer, each verdict over all n, each pair
class and all pair classes together: on a noisy host, a ratio taken
within one round sees one machine state.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SEED, REPS, REPEATS = 1, 300, 5
LAYERS = ("_power_table", "_pulse_peaks", "_moment_gap", "io_equivalent",
          "_linear", "_self_dual", "_c_tests")
IDENTIFY_LAYERS = ("identify", "_logm_flows", "certificate")
EQUIVALENCE = {"equivalent": "io_equivalent (conjugate)",
               "twin": "io_equivalent (twin)", "canonical": "is_canonical",
               "similarity": "similarity_between"}
PAIR_CLASSES = ("single-pulse", "pulse-family", "constants", "sampled")


def best_us(calls, reps):
    """µs per call: the best of REPEATS timings of `reps` passes over the
    zero-argument callables `calls`."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        start = clock()
        for _ in range(reps):
            for call in calls:
                call()
        best = min(best, (clock() - start) / (reps * len(calls)))
    return 1e6 * best


def recorded_calls(counterex, run, items):
    """Each layer's calls as the pair constructors make them: runs every
    item once with the LAYERS of the counterex module wrapped, and returns
    per layer the function and a zero-argument replay of each call."""
    layers = {name: (getattr(counterex, name), []) for name in LAYERS}
    for name, (fn, calls) in layers.items():
        def spy(*args, fn=fn, calls=calls):
            calls.append(lambda: fn(*args))
            return fn(*args)
        setattr(counterex, name, spy)
    try:
        for item in items:
            run(item)
    finally:
        for name, (fn, _) in layers.items():
            setattr(counterex, name, fn)
    return layers


def calls_per_op(bindings, ops):
    """Calls per op to the functions bound at the (module, name) pairs of
    bindings, over one pass of the zero-argument callables ops."""
    count = 0
    saved = [(module, name, getattr(module, name)) for module, name in bindings]

    def counted(fn):
        def call(*args, **kwargs):
            nonlocal count
            count += 1
            return fn(*args, **kwargs)
        return call
    for module, name, fn in saved:
        setattr(module, name, counted(fn))
    try:
        for op in ops:
            op()
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return count / len(ops)


def identify_calls(module, work, items):
    """The zero-argument calls of each of IDENTIFY_LAYERS over the identify
    items: the workload's op; the _logm_flows calls identify makes,
    replayed; and identify of each item's oracle with _halving replaying
    the result the attempts returned. module is the identify module."""
    logm, halving, logm_calls, found = module._logm_flows, module._halving, [], []

    def spy_logm(*args):
        logm_calls.append(lambda: logm(*args))
        return logm(*args)

    def spy_halving(*args):
        found.append(halving(*args))
        return found[-1]
    module._logm_flows, module._halving = spy_logm, spy_halving
    try:
        for item in items:
            work.run(item)
    finally:
        module._logm_flows, module._halving = logm, halving

    cfg, rng = module.IdentifyConfig(n_max=4), np.random.default_rng(0)

    def certificate(oracle, result):
        module._halving = lambda *args: result
        try:
            module.identify(oracle, cfg, rng=rng)
        finally:
            module._halving = halving
    certificates = [
        lambda oracle=module.oracle_from_tuple(truth, alpha), result=result:
        certificate(oracle, result) for (truth, alpha, _), result
        in zip(items, found)]
    return {"identify": [lambda item=item: work.run(item) for item in items],
            "_logm_flows": logm_calls, "certificate": certificates}


def load_tree(tree, name):
    """bilinid from TREE/src, imported as the package `name`, and the
    bench/workloads.py beside this script imported with its `bilinid`
    bound to that package."""
    def load(module, path, **kwargs):
        spec = importlib.util.spec_from_file_location(module, path, **kwargs)
        sys.modules[module] = loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        return loaded
    src = tree.resolve() / "src" / "bilinid"
    package = load(name, src / "__init__.py",
                   submodule_search_locations=[str(src)])
    saved = sys.modules.get("bilinid")
    sys.modules["bilinid"] = package
    try:
        work = load(f"workloads_{name}", HERE / "bench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["bilinid"]
        else:
            sys.modules["bilinid"] = saved
    return sys.modules[f"{name}.identify"], work


def equivalence_calls(workloads):
    """The equivalence workload's ops over its items, grouped by (verdict,
    n) with the verdicts labelled as in EQUIVALENCE."""
    work = workloads.Equivalence()
    groups = {}
    for item in work.generate(workloads.rng_for(work.name, SEED)):
        groups.setdefault((EQUIVALENCE[item[0]], item[1].n), []).append(
            lambda item=item: work.run(item))
    return groups


def pair_calls(workloads):
    """The pulse-pairs workload's ops over its items, grouped by pair
    class (PAIR_CLASSES)."""
    work = workloads.PulsePairs()
    groups = {label: [] for label in PAIR_CLASSES}
    for item in work.generate(workloads.rng_for(work.name, SEED)):
        kind, _, tau, _ = item
        label = {"single": "single-pulse", "sampled": "sampled"}.get(
            kind, "pulse-family" if tau else "constants")
        groups[label].append(lambda item=item: work.run(item))
    return groups


def interleaved(tree, base, rounds):
    """The median over rounds of TREE's time over BASE's for the identify
    round and each of its layers, for each equivalence verdict by n and for
    each pair class, the two trees taking turns to go first."""
    sys.path[:0] = [str(HERE / "tests"), str(HERE / "bench")]
    calls = []
    for path, name in ((tree, "bilinid_tree"), (base, "bilinid_base")):
        module, workloads = load_tree(path, name)
        work = workloads.Identify()
        items = work.generate(workloads.rng_for(work.name, SEED))
        calls.append({**identify_calls(module, work, items),
                      **equivalence_calls(workloads),
                      **pair_calls(workloads)})
        print(f"{name}: {Path(module.__file__).parent}")
    reps = {"identify": REPS // 30, "_logm_flows": REPS // 10,
            "certificate": REPS // 10}
    took = {key: ([], []) for key in calls[0]}
    clock = time.perf_counter
    for r in range(rounds):
        for key, times in took.items():
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                start = clock()
                for _ in range(reps.get(key, REPS // 12)):
                    for call in calls[i][key]:
                        call()
                times[i].append(clock() - start)

    def quartiles(keys):
        """Quartiles over rounds of TREE's time over BASE's, summed over
        keys."""
        return statistics.quantiles(
            [sum(took[k][0][r] for k in keys) / sum(took[k][1][r] for k in keys)
             for r in range(rounds)], n=4)
    print(f"median of {rounds} per-round ratios, tree / base (seed {SEED}); "
          f"quartiles in brackets")
    for layer in IDENTIFY_LAYERS:
        q1, q2, q3 = quartiles([layer])
        print(f"{q2:9.3f}x  {layer} [{q1:.3f}-{q3:.3f}] "
              f"({len(calls[0][layer])} calls per pass)")
    sizes = sorted({key[1] for key in took if isinstance(key, tuple)})
    print(f"{'equivalence, by n':26}" + "".join(f"{f'n={n}':>8}" for n in sizes)
          + "     all n")
    for label in EQUIVALENCE.values():
        q1, q2, q3 = quartiles([(label, n) for n in sizes])
        print(f"{label:26}" + "".join(
            f"{quartiles([(label, n)])[1]:7.3f}x" for n in sizes)
            + f"  {q2:.3f}x [{q1:.3f}-{q3:.3f}]")
    for label, keys in ([(c, [c]) for c in PAIR_CLASSES]
                        + [("all pair classes", PAIR_CLASSES)]):
        q1, q2, q3 = quartiles(keys)
        print(f"{q2:9.3f}x  {label} [{q1:.3f}-{q3:.3f}] "
              f"({sum(len(calls[0][k]) for k in keys)} per pass)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=HERE)
    parser.add_argument("--against", type=Path, metavar="BASE",
                        help="time TREE against BASE, interleaved")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.against is not None:
        return interleaved(args.tree, args.against, args.rounds)
    sys.path[:0] = [str(args.tree.resolve() / "src"), str(HERE / "tests"),
                    str(HERE / "bench")]
    import bilinid as bl
    import workloads
    from bilinid import counterex

    work = workloads.PulsePairs()
    items = work.generate(workloads.rng_for(work.name, SEED))
    pulse = [item for item in items if item[0] != "sampled"]
    layers = recorded_calls(counterex, work.run, pulse)
    print(f"bilinid from {Path(bl.__file__).parent}; pulse-pairs seed "
          f"{SEED}, {len(pulse)} pulse ops; best of {REPEATS} x {REPS} "
          f"passes")
    for fn, calls in layers.values():
        us = best_us(calls, REPS)
        print(f"{us:9.1f} µs/call  {fn.__module__}.{fn.__name__} "
              f"({len(calls)} calls)")

    for label, calls in pair_calls(workloads).items():
        us = best_us(calls, REPS // 10)
        print(f"{1e6 / us:9.0f} pairs/s  {label} ({len(calls)} per round)")

    work = workloads.Trains()
    items = work.generate(workloads.rng_for(work.name, SEED))
    simulate = [lambda t=t, u=u, grid=grid: bl.simulate(t, u, grid)
                for t, u, grid, _ in items]
    us = best_us(simulate, REPS // 10)
    print(f"{us:9.1f} µs/call  bilinid.simulate ({len(items)} trains)")
    outputs = sum(len(grid) for _, _, grid, _ in items)
    print(f"{1e6 * outputs / (us * len(items)):9.0f} outputs/s  "
          f"bilinid.simulate ({outputs} per round)")
    sampled = [lambda t=t, u=u: bl.sample_discrete(t, work.TAU, u.levels)
               for t, u, _, _ in items]
    us = best_us(sampled, REPS // 10)
    print(f"{us:9.1f} µs/call  bilinid.sample_discrete ({len(items)} trains)")

    groups = equivalence_calls(workloads)
    sizes = sorted({n for _, n in groups})
    print(f"µs/call by n over the equivalence items "
          f"({len(groups[EQUIVALENCE['canonical'], sizes[0]])} per kind and n)")
    print(f"{'':26}" + "".join(f"{f'n={n}':>9}" for n in sizes))
    for label in EQUIVALENCE.values():
        print(f"{label:26}" + "".join(
            f"{best_us(groups[label, n], REPS // 3):9.1f}" for n in sizes))

    work = workloads.Identify()
    items = work.generate(workloads.rng_for(work.name, SEED))
    groups = {}
    for item in items:
        groups.setdefault(item[0].kind, {}).setdefault(item[0].n, []).append(
            lambda item=item: work.run(item))
    sizes = sorted(groups["I"])
    print(f"µs/call by n over the identify items "
          f"({len(items) // len(groups) // len(sizes)} per kind and n)")
    print(f"{'':26}" + "".join(f"{f'n={n}':>9}" for n in sizes))
    for kind, by_n in groups.items():
        print(f"{f'identify (kind {kind})':26}" + "".join(
            f"{best_us(by_n[n], REPS // 10):9.1f}" for n in sizes))
    ops = [lambda item=item: work.run(item) for item in items]
    expm = calls_per_op([(sys.modules["bilinid.identify"], "expm"),
                         (sys.modules["bilinid.matfun"], "expm")], ops)
    eig = calls_per_op([(np.linalg, "eig")], ops)
    print(f"{expm:9.2f} expm calls/op, oracle's included; {eig:.2f} eig "
          f"calls/op  bilinid.identify ({len(ops)} per round)")
    layers = identify_calls(sys.modules["bilinid.identify"], work, items)
    for layer in IDENTIFY_LAYERS[1:]:
        us = best_us(layers[layer], REPS // 10)
        print(f"{us:9.1f} µs/call  identify {layer} "
              f"({len(layers[layer])} calls)")


if __name__ == "__main__":
    main()
