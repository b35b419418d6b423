"""End-to-end acceptance checks, one per advertised capability.

Each test runs the corresponding seeded batch from bilinid.acceptance,
prints its single PASS/FAIL line, and enforces the runtime budget.
Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
lines, or `bilinid reproduce` for the same batches from the shell.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np

from bilinid import acceptance
from bilinid.acceptance import ALL_CRITERIA, _criterion

# One test per entry of ALL_CRITERIA, in its order, under these names;
# zip(strict=True) stops collection if a criterion has no name here.
NAMES = (
    "twin_systems_match_all_moments_yet_differ",
    "single_pulse_pairs_agree_then_separate",
    "pulse_family_pairs_agree_across_amplitudes",
    "sampled_pairs_agree_at_ticks_and_differ_between",
    "identification_recovers_equivalent_systems",
    "similarity_recovery_and_self_dual_transform",
    "simulator_consistency_restart_and_time_scaling",
    "generic_systems_admit_twin_constructions",
)


def _test(criterion):
    def test():
        result = criterion()
        print(result.line)
        assert result.passed, result.details
        assert result.elapsed <= result.budget, (
            f"took {result.elapsed:.2f}s, budget {result.budget:.0f}s")
    return test


for _name, _crit in zip(NAMES, ALL_CRITERIA, strict=True):
    globals()[f"test_{_name}"] = _test(_crit)


def test_failures_fail_the_criterion_and_the_first_four_are_reported():
    @_criterion(9, "always broken", 1.0, "failure-path")
    def broken(rng, fail):
        for k in range(5):
            fail(f"bound {k} broken")
        return "five bounds checked"

    result = broken()
    assert not result.passed
    assert result.line.startswith("FAIL  criterion 9: always broken -- ")
    assert result.details == ("five bounds checked; FAILURES: bound 0 broken; "
                              "bound 1 broken; bound 2 broken; bound 3 broken")


def test_each_bound_keeps_its_worst_value_and_a_nan_breaks_it():
    @_criterion(9, "recorded bounds", 1.0, "recorder")
    def body(rng, fail):
        for x in (0.5, 2.0, 1.0):
            fail.at_most("large", x, 1.0, f"large {x}")    # x = 1.0 holds
            fail.above("small", x, 0.5, f"small {x}")      # x = 0.5 breaks
        for x in (0.5, np.nan, 2.0):
            fail.at_most("nan", x, 1.0, f"at_most {x}")
            fail.above("nan too", x, 0.0, f"above {x}")
        return ", ".join(f"{name} {x:.2g}" for name, x in fail.kept.items())

    result = body()
    assert not result.passed
    assert result.details == (
        "large 2, small 0.5, nan nan, nan too nan; FAILURES: small 0.5; "
        "large 2.0; at_most nan; above nan")


def test_a_nan_fails_its_criterion_and_shows_as_nan(monkeypatch):
    # a NaN rescaling gap once read as 0.00e+00 and passed
    monkeypatch.setattr(acceptance, "respond_pulse",
                        lambda t, tau, alpha, beta, grid: SimpleNamespace(
                            outputs=np.full(len(grid), np.nan)))
    result = acceptance.criterion_7()
    assert not result.passed
    assert "time rescaling to nan" in result.details
    assert "FAILURES: #0: rescaling gap nan" in result.details


def test_single_pulse_pairs_without_a_distinguishing_input_fail(monkeypatch):
    # the details once formatted the missing width and raised TypeError
    build = acceptance.single_pulse_pair
    monkeypatch.setattr(acceptance, "single_pulse_pair",
                        lambda *args: dataclasses.replace(
                            build(*args), distinguishing_input=None))
    result = acceptance.criterion_2()
    assert not result.passed
    assert "separation inf at tau* = nan" in result.details
    assert ("FAILURES: #0 (tau=1.0, alpha=1.0): no distinguishing input "
            "found") in result.details
