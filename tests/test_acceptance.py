"""End-to-end acceptance checks, one per advertised capability.

Each test runs the corresponding seeded batch from bilinid.acceptance,
prints its single PASS/FAIL line, and enforces the runtime budget.
Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
lines, or `bilinid reproduce` for the same batches from the shell.
"""

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
