"""Pairs that agree on a whole family of pulses, and on all constants.

pulse_family_pair builds two inequivalent systems whose outputs agree
for EVERY input that holds the level alpha on [0, tau) and then any
constant level beta afterwards. With tau = 0 the family degenerates to
all constant inputs: two systems no constant input can tell apart.
"""

import numpy as np

from bilinid import (
    TYPE_II,
    pulse_family_pair,
    pulse_input,
    sample_in_G0,
    simulate,
)

rng = np.random.default_rng(3)
seed, _ = sample_in_G0(2, rng, kind=TYPE_II, scale=0.4)

tau, alpha = 1.0, 1.0
pair = pulse_family_pair(seed, tau=tau, alpha=alpha)
a, b = pair.sigma, pair.sigma_hat
print(f"fixed pulse: level {alpha} on [0, {tau}), then any constant")
print(f"certificate word: {pair.distinguishing_word!r}")

grid = np.linspace(0.0, tau + 5.0, 150)
for beta in (-2.0, -0.5, 0.5, 2.0):
    u = pulse_input(tau, alpha, beta, horizon=grid[-1] + 1.0)
    gap = np.max(np.abs(simulate(a, u, grid).outputs
                        - simulate(b, u, grid).outputs))
    print(f"  trailing level beta = {beta:+.1f}: agreement {gap:.2e}")

# tau = 0: agreement on every constant input
pair0 = pulse_family_pair(seed, tau=0.0, alpha=alpha)
a0, b0 = pair0.sigma, pair0.sigma_hat
print(f"\nconstant-input pair (tau = 0), class label: "
      f"{pair0.input_class.kind!r}")
for beta in (-1.0, 0.3, 1.7):
    u = pulse_input(0.0, 0.0, beta, horizon=grid[-1] + 1.0)
    gap = np.max(np.abs(simulate(a0, u, grid).outputs
                        - simulate(b0, u, grid).outputs))
    print(f"  constant u = {beta:+.1f}: agreement {gap:.2e}")
print("yet both pairs fail io-equivalence, so richer inputs separate them:")
for p in (pair, pair0):
    u = p.distinguishing_input
    wide = np.linspace(0.0, u.horizon - 1.0, 160)
    gap = np.max(np.abs(simulate(p.sigma, u, wide).outputs
                        - simulate(p.sigma_hat, u, wide).outputs))
    print(f"  {p.input_class.kind}: a pulse of width {u.breakpoints[1]:.3f}, "
          f"then 0, separates by {gap:.2e}")
