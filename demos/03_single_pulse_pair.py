"""Two inequivalent systems with identical single-pulse responses.

Given a seed system in class C, single_pulse_pair produces two systems
that are NOT input/output equivalent but produce the same output under
the single rectangular pulse of width tau and height alpha, at every
time. A pulse of another width separates them; the returned pair carries
both the word certificate and that single pulse as its distinguishing
input.
"""

import numpy as np

from bilinid import pulse_input, sample_in_C, simulate, single_pulse_pair

rng = np.random.default_rng(11)
seed, _ = sample_in_C(2, rng, scale=0.4)

tau, alpha = 1.0, 1.0
pair = single_pulse_pair(seed, tau=tau, alpha=alpha)
a, b = pair.sigma, pair.sigma_hat

print(f"pair of {a.n}-state systems, pulse width {tau}, height {alpha}")
print(f"equivalent: no, certificate word: {pair.distinguishing_word!r}")
print(f"recorded agreement residual: {pair.agreement_residual:.2e}")

# check the agreement on a fresh grid
grid = np.linspace(0.01, 5.0 * tau, 200)
u = pulse_input(tau, alpha, 0.0, horizon=grid[-1] + 1.0)
ya = simulate(a, u, grid).outputs
yb = simulate(b, u, grid).outputs
print(f"fresh-grid single-pulse agreement: {np.max(np.abs(ya - yb)):.2e}")

# the stored pulse of another width tells them apart
w = pair.distinguishing_input
wide = np.linspace(0.01, w.horizon - 1.0, 300)
ya = simulate(a, w, wide).outputs
yb = simulate(b, w, wide).outputs
print(f"pulse of width tau* = {w.breakpoints[1]:.3f}, same height")
print(f"single-pulse separation:           {np.max(np.abs(ya - yb)):.2e}")
