"""Tests of the benchmark itself: each workload's output check passes on
the program's outputs and fails when one of them is nudged, and the traced
run puts back every binding it wraps.

    python3 -m pytest bench/test_checks.py -q
"""

import sys

import numpy as np
import pytest

import run

workloads = run.load_program()

import bilinid as bl  # noqa: E402  (load_program puts src/ on the path)
import tracing  # noqa: E402

NUDGE = 1e-3


def nudged_c(t):
    c = t.c.copy()
    c[0] += NUDGE
    return bl.FourTuple(t.A, t.N, t.b, c, t.kind)


def sample(name, pick):
    w = workloads.WORKLOADS[name]
    items = [it for it in w.generate(workloads.rng_for(name, 1)) if pick(it)]
    return w, items, [w.run(it) for it in items]


def assert_each_caught(w, items, good, bad):
    assert w.check(items, good) == []
    for i in range(len(items)):
        mixed = good[:i] + [bad[i]] + good[i + 1:]
        fails = w.check(items, mixed)
        assert fails and all(f.startswith(f"#{i} ") for f in fails), fails


def test_pulse_pairs():
    seen = set()

    def first_of_each(item):
        key = (item[0], item[1].n)
        if key in seen or key == ("sampled", 3):
            return False
        seen.add(key)
        return True

    w, items, good = sample("pulse-pairs", first_of_each)
    assert {it[0] for it in items} == {"single", "family", "sampled"}
    bad = [bl.CounterexamplePair(p.sigma, nudged_c(p.sigma_hat), p.input_class,
                                 p.agreement_residual, p.distinguishing_word,
                                 p.distinguishing_input) for p in good]
    assert_each_caught(w, items, good, bad)
    # a "distinguishing" input from the class itself separates nothing
    i = next(k for k, it in enumerate(items) if it[0] == "single")
    p = good[i]
    _, _, tau, alpha = items[i]
    inside = bl.pulse_input(tau, alpha, 0.0, p.distinguishing_input.horizon)
    swapped = bl.CounterexamplePair(p.sigma, p.sigma_hat, p.input_class,
                                    p.agreement_residual, p.distinguishing_word,
                                    inside)
    fails = w.check([items[i]], [swapped])
    assert any("distinguishing input" in f for f in fails), fails


def test_identify():
    w, items, good = sample("identify", lambda it: True)
    items, good = items[::12], good[::12]
    bad = [bl.IdentificationResult(nudged_c(r.tuple), r.n_identified,
                                   r.diagnostics) for r in good]
    assert_each_caught(w, items, good, bad)


def test_equivalence():
    w, items, good = sample("equivalence", lambda it: it[1].n in (2, 6))
    bad = []
    for (kind, *_), r in zip(items, good):
        if kind == "equivalent":
            bad.append((False, "A"))
        elif kind == "twin":
            bad.append((True, None))
        elif kind == "canonical":
            bad.append(False)
        else:
            bad.append(bl.SimilarityWitness(r.T * (1.0 + NUDGE), r.residuals))
    assert_each_caught(w, items, good, bad)


def test_trains():
    w, items, good = sample("trains", lambda it: True)
    items, good = items[:6], good[:6]
    bad = []
    for traj, samples in good:
        y = traj.outputs.copy()
        y[len(y) // 2] += NUDGE
        bad.append((bl.Trajectory(traj.times, y), samples))
    assert_each_caught(w, items, good, bad)
    # the sampled recursion is checked on its own too
    x, y = good[0][1][5]
    samples = list(good[0][1])
    samples[5] = (x, y + NUDGE)
    fails = w.check(items[:1], [(good[0][0], samples)])
    assert fails, fails


def test_repeat_comparison_sees_a_nudge():
    w, items, good = sample("identify", lambda it: True)
    r = good[0]
    assert w.same(r, w.run(items[0]))
    assert not w.same(r, bl.IdentificationResult(nudged_c(r.tuple),
                                                 r.n_identified, r.diagnostics))


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {(home, attr): getattr(sys.modules[home], attr)
                 for _, home, attr in tracing.LAYERS}
    expm = sys.modules["bilinid.matfun"].expm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["bilinid.simulate"].expm.__wrapped__ is expm
        assert sys.modules["bilinid.identify"].expm.__wrapped__ is expm
        assert bl.expm.__wrapped__ is expm
        t = bl.FourTuple([[-1.0]], [[0.5]], [1.0], [1.0])
        traj = bl.respond_pulse(t, 1.0, 1.0, 0.0, np.linspace(0.1, 2.0, 20))
    finally:
        tracer.restore()
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[home], attr) is fn
    assert sys.modules["bilinid.simulate"].expm is expm
    summary = tracer.summary()
    assert summary["simulate"]["calls"] == 1
    assert tracer.outputs == len(traj.outputs) == 20
    assert summary["simulate"]["expm"] == summary["matfun.expm"]["calls"] > 0
    assert summary["simulate"]["self_s"] <= summary["simulate"]["total_s"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
