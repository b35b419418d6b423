"""Verdicts that an exact symmetry of the system must leave as they are.

Time: rescaling time by k maps (A, N, b) to k (A, N, b), for kind I, and
each of G0, C, M and B_alpha onto itself, so no class flag and no rank may
depend on the time unit. Amplitude: (N, b, alpha) -> (s N, s b, alpha/s)
keeps A + alpha N and scales b, so the G0, M and B_alpha flags stay. The
draws are the Gaussian tuples of gaussian_tuple(n, default_rng(5)).
"""

import importlib

import numpy as np
import pytest

from bilinid import (TYPE_I, FourTuple, PulseOracle, classify, identify,
                     self_dual_T)
from bilinid.counterex import gaussian_tuple

# the module; the package's name "identify" is the function
IDENTIFY = importlib.import_module("bilinid.identify")

TIMES = [1e-4, 1e-2, 1e2, 1e4]
AMPLITUDES = [1e-4, 1e4]
RANKS = ("reach_rank", "obs_rank", "alpha_reach_rank", "alpha_pair_reach_rank",
         "alpha_pair_obs_rank")
SHIFTED = ("shifted_reach_rank", "shifted_obs_rank")


def _draws(n, count=200):
    rng = np.random.default_rng(5)
    return [gaussian_tuple(n, rng) for _ in range(count)]


def _timed(t, k):
    return FourTuple(k * t.A, k * t.N, k * t.b, t.c, t.kind)


def _verdict(cm, keys):
    """The G0, M and B_alpha flags and the ranks of keys in diagnostics."""
    return (cm.in_G0, cm.in_M, cm.in_B_alpha,
            [cm.diagnostics.get(key) for key in keys])


class TestTimeUnit:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", TIMES)
    def test_class_flags_and_ranks(self, n, k):
        for t in _draws(n):
            base, timed = classify(t), classify(_timed(t, k))
            assert _verdict(timed, RANKS + SHIFTED) == _verdict(
                base, RANKS + SHIFTED)

    @pytest.mark.parametrize("k", TIMES)
    def test_self_dual_transform_does_not_change(self, k):
        # R and O pick up k^j on column and row j, which cancel in R O'^-1
        for t in _draws(3, 40):
            T = self_dual_T(t.A, t.b, t.c)
            Tk = self_dual_T(k * t.A, t.b, t.c)
            assert np.linalg.norm(Tk - T) <= 1e-12 * np.linalg.norm(T)

    @pytest.mark.parametrize("k", TIMES)
    def test_identify_final_rank_check(self, monkeypatch, k):
        # the identified quadruple (A, G, b, c) of a time-scaled system is
        # the scaled one; the final checks must pass it at every k
        checked = 0
        for t in _draws(3, 40):
            if not classify(t).in_M:
                continue
            checked += 1
            found = (k * t.A, k * (t.A + t.N), k * t.b, t.c)
            monkeypatch.setattr(IDENTIFY, "_halving",
                                lambda *args, found=found: (found, {}))
            oracle = PulseOracle(lambda tau, time: 0.0, 1.0, TYPE_I)
            assert identify(oracle).n_identified == 3
        assert checked >= 30


class TestAmplitude:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", AMPLITUDES)
    def test_class_flags_and_ranks(self, n, s):
        for t in _draws(n):
            moved = FourTuple(t.A, s * t.N, s * t.b, t.c, t.kind)
            assert (_verdict(classify(moved, 1.0 / s), RANKS)
                    == _verdict(classify(t), RANKS))
