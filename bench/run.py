"""bilinid benchmark: one seeded workload per run, in one process on one
thread, as a closed loop (the next operation starts when the previous one
returns).

    python3 bench/run.py --workload identify --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
whose rounds alternate between untraced and traced (tracing.py). Outputs of the first round are checked against independent
references (see workloads.py); every later round must repeat them. The
full record goes to bench/out/, the spans of a traced run too.
"""

import os

# Pin BLAS to one thread before numpy loads: the benchmark is single
# threaded, and BLAS threads would contend with each other on a small
# machine and make the timings depend on its load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 100           # so the 90th percentile has ten samples beyond it
SETUP_CHILDREN = 2      # extra fresh processes timing set-up; median of 3


def load_program():
    """Import bilinid from this checkout's src/ and the benchmark modules;
    tests/oracles.py supplies the references."""
    for need in (ROOT / "src" / "bilinid" / "__init__.py",
                 ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            raise SystemExit(f"bench: {need.relative_to(ROOT)} not found; "
                             f"run from a bilinid checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import bilinid
    import workloads
    if Path(bilinid.__file__).resolve().parent != ROOT / "src" / "bilinid":
        raise SystemExit(f"bench: imported bilinid from {bilinid.__file__}")
    return workloads


class Loop:
    """Closed-loop rounds over a workload's items. Latency covers the call
    into the program only. The first round's results are kept (or taken
    from `first`); every later result must repeat them."""

    def __init__(self, workload, items, first=None):
        self.workload, self.items, self.first = workload, items, first
        self.latencies, self.errors, self.mismatches = [], [], []
        self.rounds = 0

    def round(self, op):
        clock = time.perf_counter
        keep = self.first is None
        if keep:
            self.first = []
        for i, item in enumerate(self.items):
            start = clock()
            try:
                result = op(item)
            except Exception as e:  # a failed op is counted, not fatal
                result = e
                self.errors.append(f"round {self.rounds} #{i}: "
                                   f"{type(e).__name__}: {e}")
            else:
                self.latencies.append(clock() - start)
            if keep:
                self.first.append(result)
            elif not _repeats(self.workload, self.first[i], result):
                self.mismatches.append(
                    f"round {self.rounds} #{i}: output differs from round 0")
        self.rounds += 1

    @property
    def attempted(self):
        return len(self.latencies) + len(self.errors)

    @property
    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def _repeats(workload, r0, r1):
    if isinstance(r0, Exception) or isinstance(r1, Exception):
        return type(r0) is type(r1)
    return workload.same(r0, r1)


def check_outputs(workload, items, loops, warm):
    """Failure messages: wrong outputs in round 0, later rounds that do
    not repeat them, and a warm-up result that does not either."""
    first = loops[0].first
    good = [(item, r) for item, r in zip(items, first)
            if not isinstance(r, Exception)]
    fails = workload.check([i for i, _ in good], [r for _, r in good])
    if not _repeats(workload, first[0], warm):
        fails.append("warm-up result differs from round 0")
    return fails + [m for loop in loops for m in loop.mismatches]


def setup_children(args):
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_times, rss_mb):
    ms = [1e3 * x for x in loop.latencies]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(loop.ops_per_s, "ops/s"),
        "op_ms_p50": metric(statistics.median(ms), "ms"),
        "op_ms_p90": metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(summary, tracer, rounds, plain, traced):
    s = {k: {f: v / rounds for f, v in d.items()} for k, d in summary.items()}
    outputs = tracer.outputs / rounds
    sim_total = s["simulate"]["total_s"]
    realize = s["identify.realize"]["calls"]
    systems = s["identify"]["calls"]
    count = lambda layer: metric(s[layer]["calls"], "count")
    own = lambda layer: metric(s[layer]["self_s"], "s")
    return {
        "matfun.expm.calls": count("matfun.expm"),
        "matfun.expm.self_s": own("matfun.expm"),
        "matfun.phi1.calls": count("matfun.phi1"),
        "matfun.phi1.self_s": own("matfun.phi1"),
        "matfun.rank.calls": count("matfun.rank"),
        "matfun.rank.self_s": own("matfun.rank"),
        "matfun.logm.calls": count("matfun.logm"),
        "simulate.calls": count("simulate"),
        "simulate.self_s": own("simulate"),
        "simulate.outputs": metric(outputs, "count"),
        "simulate.outputs_per_s": metric(outputs / sim_total if sim_total else 0.0, "1/s"),
        "simulate.expm_per_output": metric(
            s["simulate"]["expm"] / outputs if outputs else 0.0, "ratio"),
        "simulate.sample_discrete.calls": count("simulate.sample_discrete"),
        "simulate.sample_discrete.self_s": own("simulate.sample_discrete"),
        "realization.io_equivalent.calls": count("realization.io_equivalent"),
        "realization.io_equivalent.self_s": own("realization.io_equivalent"),
        "realization.words_compared": metric(tracer.words / rounds, "computed"),
        "realization.is_canonical.calls": count("realization.is_canonical"),
        "realization.is_canonical.self_s": own("realization.is_canonical"),
        "realization.similarity_between.self_s": own("realization.similarity_between"),
        "realization.self_dual_T.calls": count("realization.self_dual_T"),
        "counterex.classify.calls": count("counterex.classify"),
        "counterex.classify.self_s": own("counterex.classify"),
        "counterex.distinguishing_search.self_s": own("counterex.distinguishing_search"),
        "counterex.pair.self_s": own("counterex.pair"),
        "identify.self_s": own("identify"),
        "identify.oracle_queries": count("identify.oracle"),
        "identify.queries_per_system": metric(
            s["identify.oracle"]["calls"] / systems if systems else 0.0, "count"),
        "identify.realize.attempts": metric(realize, "count"),
        "identify.realize.success_ratio": metric(
            systems / realize if realize else 0.0, "ratio"),
        "identify.recover_states.self_s": own("identify.recover_states"),
        "round.ops": count("op"),
        "trace.ops_per_s_untraced": metric(plain, "ops/s"),
        "trace.ops_per_s_traced": metric(traced, "ops/s"),
        "trace.overhead_pct": metric(100.0 * (plain / traced - 1.0), "%"),
    }


def main(argv=None):
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this fresh process and exit")
    args = p.parse_args(argv)

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    items = w.generate(workloads.rng_for(args.workload, args.seed))
    warm = w.run(items[0])
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "ops_per_round": len(items)}
    clock = time.perf_counter
    deadline = clock() + args.seconds
    plain = Loop(w, items)
    if args.trace == 0:
        while True:
            plain.round(w.run)
            if clock() >= deadline and plain.attempted >= MIN_OPS:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loops = [plain]
        fails = check_outputs(w, items, loops, warm)
        setup_times = [setup_s] + setup_children(args)
        metrics = end_to_end(plain, setup_times, rss_mb)
        record["setup_samples_s"] = setup_times
    else:
        # untraced and traced rounds alternate, so both see the same
        # machine; the wrappers are installed for each traced round only
        import tracing
        tracer = tracing.Tracer()
        traced_op = tracer.wrap(tracing.OP, w.run)
        plain.round(w.run)
        traced = Loop(w, items, plain.first)
        while True:
            tracer.install()
            try:
                traced.round(traced_op)
            finally:
                tracer.restore()
            if clock() >= deadline:
                break
            plain.round(w.run)
        loops = [plain, traced]
        fails = check_outputs(w, items, loops, warm)
        metrics = per_layer(tracer.summary(), tracer, traced.rounds,
                            plain.ops_per_s, traced.ops_per_s)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(len(loop.errors) for loop in loops)
    record.update({"rounds": [loop.rounds for loop in loops],
                   "errors": [e for loop in loops for e in loop.errors][:20],
                   "check_failures": fails[:20]})
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump({**record, **result}, f, indent=1)
    for line in fails[:20] + record["errors"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
