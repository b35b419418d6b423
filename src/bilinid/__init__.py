"""Bilinear single-input single-output systems: exact piecewise-constant
simulation, input/output equivalence and canonicity tests, construction of
inequivalent pairs that restricted input classes cannot distinguish, and
identification from pulse responses."""

from . import errors
from .core import (TYPE_I, TYPE_II, CounterexamplePair, FourTuple, InputClass,
                   PiecewiseConstantInput, SimilarityWitness, Trajectory,
                   constant_input, from_json, input_from_dict, input_to_dict,
                   pair_from_json, pair_to_json, pulse_input, to_json,
                   trajectory_from_json, trajectory_to_json, tuple_from_dict,
                   validate)
from .counterex import (BETA_TEST_SET, ClassMembership, classify,
                        distinguishing_search, gaussian_tuple, in_b_alpha,
                        phi_map, psi, pulse_family_pair, rescale,
                        sample_in_B_alpha, sample_in_C, sample_in_G0,
                        sample_in_M, sampled_pair, single_pulse_pair,
                        twin_via_T)
from .identify import (IdentificationResult, IdentifyConfig, PulseOracle,
                       identify, oracle_from_tuple, realize_free_response,
                       recover_states)
from .matfun import (DEFAULT_TOL, Tolerances, eigenvalues, expm, phi1,
                     pinv_rank, principal_logm, rank_of)
from .realization import (conjugate, io_equivalent, is_canonical, krylov,
                          self_dual_T, series_coefficient,
                          similarity_between)
from .simulate import respond_pulse, sample_discrete, simulate

__version__ = "0.1.0"

__all__ = [
    "TYPE_I", "TYPE_II", "FourTuple", "PiecewiseConstantInput", "Trajectory",
    "SimilarityWitness", "InputClass", "CounterexamplePair", "Tolerances",
    "DEFAULT_TOL", "validate", "constant_input", "pulse_input", "to_json",
    "from_json", "tuple_from_dict", "trajectory_to_json",
    "trajectory_from_json", "input_to_dict", "input_from_dict",
    "pair_to_json", "pair_from_json", "expm", "phi1", "pinv_rank", "rank_of",
    "eigenvalues", "principal_logm", "series_coefficient", "krylov",
    "is_canonical", "io_equivalent", "conjugate", "similarity_between",
    "self_dual_T", "simulate", "respond_pulse", "sample_discrete",
    "ClassMembership", "classify", "in_b_alpha", "twin_via_T", "psi",
    "rescale", "single_pulse_pair", "distinguishing_search",
    "BETA_TEST_SET", "phi_map", "pulse_family_pair",
    "sampled_pair", "gaussian_tuple", "sample_in_G0", "sample_in_C",
    "sample_in_M", "sample_in_B_alpha", "PulseOracle", "IdentifyConfig",
    "IdentificationResult", "oracle_from_tuple", "realize_free_response",
    "recover_states", "identify", "errors",
]
