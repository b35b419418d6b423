import dataclasses
import json

import numpy as np
import pytest

from bilinid import (FourTuple, PiecewiseConstantInput, Trajectory,
                     constant_input, from_json, input_from_dict,
                     input_to_dict, pair_from_json, pair_to_json,
                     pulse_family_pair, pulse_input, sample_in_B_alpha,
                     sample_in_C, sample_in_G0, sampled_pair,
                     single_pulse_pair, to_json, trajectory_from_json,
                     trajectory_to_json, tuple_from_dict, validate)
from bilinid.core import CounterexamplePair, InputClass
from bilinid.errors import NonFiniteEntry, ParseError, ShapeMismatch


def _t(kind="I"):
    return FourTuple([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
                     [0.0, 1.0], [1.0, 0.0], kind)


class TestFourTuple:
    def test_fields_are_frozen_float_arrays(self):
        # functions taking a FourTuple do not validate it again: every way
        # to change one must either fail or build through the constructor
        t = _t()
        assert t.n == 2
        assert t.A.dtype == float
        for arr in (t.A, t.N, t.b, t.c):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.b = np.array([np.nan, 0.0])
        with pytest.raises(NonFiniteEntry):
            dataclasses.replace(t, b=[np.nan, 0.0])
        with pytest.raises(ShapeMismatch):
            t.with_kind("III")

    def test_accepts_lists_and_integer_entries(self):
        t = FourTuple([[0, 1], [0, 0]], [[1, 0], [0, 0]], [0, 1], [1, 0])
        assert t.b.tolist() == [0.0, 1.0]

    def test_with_kind(self):
        t = _t().with_kind("II")
        assert t.kind == "II"

    def test_validate_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            FourTuple([[0.0, 1.0]], [[1.0]], [0.0], [1.0])
        with pytest.raises(ShapeMismatch):
            FourTuple([[0.0]], [[1.0]], [0.0, 1.0], [1.0])

    def test_validate_bad_kind(self):
        with pytest.raises(ShapeMismatch):
            FourTuple([[0.0]], [[0.0]], [1.0], [1.0], kind="III")

    def test_validate_nonfinite(self):
        with pytest.raises(NonFiniteEntry):
            FourTuple([[np.nan]], [[0.0]], [1.0], [1.0])
        with pytest.raises(NonFiniteEntry):
            FourTuple([[0.0]], [[np.inf]], [1.0], [1.0])

    def test_validate_callable_directly(self):
        validate(_t())


class TestPiecewiseConstantInput:
    def test_level_lookup_uses_right_continuity(self):
        u = PiecewiseConstantInput([0.0, 1.0, 2.5], [1.0, -1.0, 0.5], 4.0)
        assert u.level_at(0.0) == 1.0
        assert u.level_at(0.999) == 1.0
        assert u.level_at(1.0) == -1.0
        assert u.level_at(2.5) == 0.5
        assert u.level_at(3.9) == 0.5

    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ValueError):
            PiecewiseConstantInput([0.5, 1.0], [1.0, 2.0], 3.0)

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseConstantInput([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], 4.0)

    def test_horizon_past_last_breakpoint(self):
        with pytest.raises(ValueError):
            PiecewiseConstantInput([0.0, 2.0], [1.0, 2.0], 2.0)

    def test_lengths_must_match(self):
        with pytest.raises(ShapeMismatch):
            PiecewiseConstantInput([0.0, 1.0], [1.0], 3.0)

    def test_pulse_input(self):
        u = pulse_input(1.5, 2.0, -1.0, 10.0)
        assert u.level_at(0.0) == 2.0
        assert u.level_at(1.5) == -1.0

    def test_zero_width_pulse_is_constant(self):
        u = pulse_input(0.0, 5.0, -1.0, 10.0)
        assert u.level_at(0.0) == -1.0
        assert len(u.levels) == 1

    def test_constant_input(self):
        u = constant_input(3.0, 2.0)
        assert u.level_at(1.9) == 3.0


class TestJson:
    """Matrices travel as decimal strings; serialization must round-trip
    bit-exactly and re-serialize to identical bytes."""

    def test_tuple_round_trip_exact(self):
        t = FourTuple([[0.1, -2.5e-17], [3.0, 4.0]],
                      [[1.0 / 3.0, 0.0], [0.0, 1.0]],
                      [0.1 + 0.2, 1.0], [1.0, -0.0], "II")
        s = to_json(t)
        t2 = from_json(s)
        assert t2.kind == "II"
        assert t2.A.tolist() == t.A.tolist()
        assert t2.b.tolist() == t.b.tolist()
        assert to_json(t2) == s

    def test_tuple_json_is_deterministic(self):
        t = _t()
        assert to_json(t) == to_json(_t())

    def test_dict_requires_all_keys(self):
        doc = json.loads(to_json(_t()))
        del doc["b"]
        with pytest.raises(ParseError):
            tuple_from_dict(doc)

    def test_bad_number_string(self):
        doc = json.loads(to_json(_t()))
        doc["A"][0][0] = "not-a-number"
        with pytest.raises(ParseError):
            tuple_from_dict(doc)

    def test_bad_dimension(self):
        doc = json.loads(to_json(_t()))
        doc["n"] = -1
        with pytest.raises(ParseError):
            tuple_from_dict(doc)
        doc["n"] = True
        with pytest.raises(ParseError):
            tuple_from_dict(doc)

    def test_malformed_text_reports_position(self):
        with pytest.raises(ParseError) as err:
            from_json("{not json")
        assert err.value.position is not None

    def test_trajectory_round_trip(self):
        tr = Trajectory(np.array([0.0, 0.5]), np.array([1.0, 2.0]),
                        np.array([[1.0, 0.0], [0.0, 1.0]]))
        tr2 = trajectory_from_json(trajectory_to_json(tr))
        assert tr2.times.tolist() == [0.0, 0.5]
        assert tr2.states.tolist() == tr.states.tolist()

    def test_trajectory_without_states(self):
        tr = Trajectory(np.array([0.0]), np.array([3.0]))
        tr2 = trajectory_from_json(trajectory_to_json(tr))
        assert tr2.states is None

    def test_trajectory_requires_lists(self):
        # a string is iterable, so an unchecked decoder reads "12" as [1, 2]
        with pytest.raises(ParseError):
            trajectory_from_json('{"times": "12", "outputs": "34"}')
        with pytest.raises(ParseError):
            trajectory_from_json('{"times": ["0", "1"], "outputs": ["0", "1"],'
                                 ' "states": [["1"], ["1", "2"]]}')

    # a string that names the keys passes an unchecked `key in doc` test
    @pytest.mark.parametrize("doc", [
        5, "breakpoints levels horizon",
        {"breakpoints": "01", "levels": "12", "horizon": "5"}])
    def test_input_must_be_an_object_of_lists(self, doc):
        with pytest.raises(ParseError):
            input_from_dict(doc)

    def test_input_round_trip(self):
        u = pulse_input(1.0, 0.5, -0.25, 7.0)
        u2 = input_from_dict(input_to_dict(u))
        assert u2.breakpoints.tolist() == u.breakpoints.tolist()
        assert u2.levels.tolist() == u.levels.tolist()
        assert u2.horizon == u.horizon

    def test_pair_round_trip(self):
        pair = CounterexamplePair(
            sigma=_t(), sigma_hat=_t(),
            input_class=InputClass("single-pulse", 1.0, 0.5),
            agreement_residual=1e-12,
            distinguishing_word="AN",
            distinguishing_input=constant_input(1.0, 4.0),
        )
        s = pair_to_json(pair)
        pair2 = pair_from_json(s)
        assert pair2.distinguishing_word == "AN"
        assert pair2.input_class.kind == "single-pulse"
        assert pair2.input_class.tau == 1.0
        assert pair_to_json(pair2) == s

    @pytest.mark.parametrize("part, key, value", [
        ("input_class", "kind", None), ("input_class", "kind", 5),
        (None, "distinguishing_word", [1, 2])],
        ids=["no-kind", "numeric-kind", "list-word"])
    def test_pair_input_class_requires_a_kind(self, part, key, value):
        doc = json.loads(pair_to_json(CounterexamplePair(
            sigma=_t(), sigma_hat=_t(), input_class=InputClass("constants"),
            agreement_residual=0.0, distinguishing_word="A")))
        where = doc if part is None else doc[part]
        if value is None:
            del where[key]
        else:
            where[key] = value
        with pytest.raises(ParseError):
            pair_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("part, key", [
        (None, "agreement_residual"), ("input_class", "tau"),
        ("input_class", "alpha")])
    def test_pair_numbers_must_be_finite(self, part, key, value):
        doc = json.loads(pair_to_json(CounterexamplePair(
            sigma=_t(), sigma_hat=_t(),
            input_class=InputClass("pulse-family", 1.0, 0.5),
            agreement_residual=1e-12, distinguishing_word="A")))
        (doc if part is None else doc[part])[key] = value
        with pytest.raises(ParseError, match=key):
            pair_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["single-pulse", "pulse-family",
                                      "constants", "sampled"])
    def test_constructed_pairs_round_trip(self, kind):
        rng = np.random.default_rng(5)
        if kind == "single-pulse":
            pair = single_pulse_pair(sample_in_C(2, rng)[0], 1.0, 1.0)
        elif kind == "sampled":
            pair = sampled_pair(sample_in_B_alpha(1.0, rng)[0], 1.0, 1.0)
        else:
            pair = pulse_family_pair(sample_in_G0(2, rng, kind="II")[0],
                                     1.0 if kind == "pulse-family" else 0.0,
                                     1.0)
        assert pair.input_class.kind == kind
        s = pair_to_json(pair)
        assert pair_to_json(pair_from_json(s)) == s

    def test_pair_requires_a_certificate(self):
        with pytest.raises(ValueError):
            CounterexamplePair(sigma=_t(), sigma_hat=_t(),
                               input_class=InputClass("constants"),
                               agreement_residual=0.0)

    def test_pair_requires_matching_shapes(self):
        one = FourTuple([[1.0]], [[0.0]], [1.0], [1.0])
        with pytest.raises(ShapeMismatch):
            CounterexamplePair(sigma=_t(), sigma_hat=one,
                               input_class=InputClass("constants"),
                               agreement_residual=0.0,
                               distinguishing_word="A")
