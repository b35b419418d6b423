"""Identification of a bilinear system from pulse responses alone.

One experiment drives the system with a pulse of width tau and height
alpha and records the output after the pulse ends; the oracle answers a
whole design of widths x offsets at once. A black box that can only
answer "what is the output at time t?" one sample at a time works too.
From finitely many such experiments, identify() reconstructs a canonical
realization (A, N, b, c) that is input/output equivalent to the truth.
"""

import numpy as np

from bilinid import (
    IdentifyConfig,
    Tolerances,
    identify,
    io_equivalent,
    oracle_from_tuple,
    sample_in_M,
    similarity_between,
)

rng = np.random.default_rng(5)
truth, _ = sample_in_M(2, 1.0, rng, scale=0.5)
print("hidden 2-state system:")
print(f"  A = {truth.A.tolist()}")
print(f"  N = {truth.N.tolist()}")

oracle = oracle_from_tuple(truth, alpha=1.0)
result = identify(oracle, IdentifyConfig(n_max=4),
                  rng=np.random.default_rng(0))
model = result.tuple

print(f"\nidentified order: {result.n_identified}")
print(f"  A = {np.round(model.A, 6).tolist()}")
print(f"  N = {np.round(model.N, 6).tolist()}")
print(f"width-shift residual: {result.diagnostics['fit_residual']:.2e}")

loose = Tolerances(residual_tol=1e-5)
same, _ = io_equivalent(truth, model, tol=loose)
print(f"\nio-equivalent to the truth: {same}")

witness = similarity_between(truth, model)
print(f"similarity residual: {witness.max_residual:.2e}")
print(f"change of basis T =\n{np.round(witness.T, 6)}")

# the recovered model reproduces unseen queries
for tau, t in ((0.37, 2.2), (1.61, 3.0)):
    y_true = oracle.respond(tau, t)
    y_model = oracle_from_tuple(model, alpha=1.0).respond(tau, t)
    print(f"unseen query (tau={tau}, t={t}): truth {y_true:+.8f}, "
          f"model {y_model:+.8f}")
