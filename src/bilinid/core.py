"""Domain types, validation, and JSON (de)serialization.

A bilinear SISO system is the 4-tuple (A, N, b, c) plus a kind tag:

    kind "I":   x' = (A + u N) x + b u,   x(0) = 0,   y = c x
    kind "II":  x' = (A + u N) x,         x(0) = b,   y = c x

The numeric payload is identical for both kinds; the tag only selects the
interpretation. All values are immutable once constructed.

A FourTuple is validated once, when it is built: __post_init__ runs
validate, the dataclass is frozen and its arrays are read-only, and
dataclasses.replace, with_kind and the JSON decoders all build through the
constructor. So a FourTuple is always well formed, and the functions that
take one trust it instead of checking it again.

Matrices and vectors serialize as decimal strings (shortest round-trip
representation) so JSON fixtures are bit-exact across platforms.
seeded_rng(seed, label) gives each labelled use of one seed its own
reproducible stream.
"""

import json
import math
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteEntry, ParseError, ShapeMismatch

TYPE_I = "I"
TYPE_II = "II"
KINDS = (TYPE_I, TYPE_II)


def seeded_rng(seed, label: str) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(label.encode()),))
    return np.random.default_rng(ss)


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FourTuple:
    """The system data (A, N, b, c) with a kind tag."""

    A: np.ndarray
    N: np.ndarray
    b: np.ndarray
    c: np.ndarray
    kind: str = TYPE_I

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "N", _freeze(self.N))
        object.__setattr__(self, "b", _freeze(np.ravel(self.b)))
        object.__setattr__(self, "c", _freeze(np.ravel(self.c)))
        validate(self)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def with_kind(self, kind: str) -> "FourTuple":
        return FourTuple(self.A, self.N, self.b, self.c, kind)


def validate(t: FourTuple) -> None:
    """Raise ShapeMismatch or NonFiniteEntry unless t is well formed."""
    n = t.n
    if n < 1:
        raise ShapeMismatch("state dimension must be positive")
    if t.kind not in KINDS:
        raise ShapeMismatch(f"kind must be one of {KINDS}, got {t.kind!r}")
    # one finite pass over all four arrays; only when it fails is each
    # array checked on its own, to name the first that holds the entry
    finite = np.isfinite(np.concatenate(
        [t.A.ravel(), t.N.ravel(), t.b.ravel(), t.c.ravel()])).all()
    for name, arr, shape in (
        ("A", t.A, (n, n)),
        ("N", t.N, (n, n)),
        ("b", t.b, (n,)),
        ("c", t.c, (n,)),
    ):
        if arr.shape != shape:
            raise ShapeMismatch(f"{name} has shape {arr.shape}, expected {shape}")
        if not (finite or np.isfinite(arr).all()):
            raise NonFiniteEntry(f"{name} contains a non-finite entry")


@dataclass(frozen=True, eq=False)
class PiecewiseConstantInput:
    """u(t) = levels[i] on [breakpoints[i], breakpoints[i+1]), constant after
    the last breakpoint up to the horizon. Breakpoints start at 0 and increase.
    The value at a breakpoint is the new level (half-open intervals)."""

    breakpoints: np.ndarray
    levels: np.ndarray
    horizon: float

    def __post_init__(self):
        bp = _freeze(np.ravel(self.breakpoints))
        lv = _freeze(np.ravel(self.levels))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "horizon", float(self.horizon))
        if bp.shape != lv.shape:
            raise ShapeMismatch(
                f"{bp.shape[0]} breakpoints but {lv.shape[0]} levels"
            )
        if bp.shape[0] == 0:
            raise ShapeMismatch("at least one interval is required")
        if not (np.isfinite(bp).all() and np.isfinite(lv).all()):
            raise NonFiniteEntry("input contains a non-finite entry")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not self.horizon > bp[-1]:
            raise ValueError("horizon must exceed the last breakpoint")

    def level_at(self, t: float) -> float:
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return float(self.levels[max(i, 0)])


def constant_input(level: float, horizon: float) -> PiecewiseConstantInput:
    return PiecewiseConstantInput(np.array([0.0]), np.array([level]), horizon)


def pulse_input(tau: float, alpha: float, beta: float,
                horizon: float) -> PiecewiseConstantInput:
    """u = alpha on [0, tau), beta afterward; tau = 0 degenerates to u = beta."""
    if tau == 0.0:
        return constant_input(beta, horizon)
    return PiecewiseConstantInput(np.array([0.0, tau]),
                                  np.array([alpha, beta]), horizon)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    outputs: np.ndarray
    states: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(np.ravel(self.times)))
        object.__setattr__(self, "outputs", _freeze(np.ravel(self.outputs)))
        if self.states is not None:
            object.__setattr__(self, "states", _freeze(self.states))
        if self.times.shape != self.outputs.shape:
            raise ShapeMismatch("times and outputs must have equal length")
        if self.states is not None and self.states.shape[0] != self.times.shape[0]:
            raise ShapeMismatch("states must have one row per time")


@dataclass(frozen=True, eq=False)
class SimilarityWitness:
    """Invertible change of basis T with the residuals of the four relations
    A = T Ahat T^-1, N = T Nhat T^-1, b = T bhat, c = chat T^-1."""

    T: np.ndarray
    residuals: dict

    def __post_init__(self):
        object.__setattr__(self, "T", _freeze(self.T))

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN when any residual is NaN, which max
        alone would skip unless it came first."""
        r = self.residuals.values()
        return math.nan if any(math.isnan(x) for x in r) else max(r)


INPUT_CLASS_KINDS = ("single-pulse", "pulse-family", "constants", "sampled")


@dataclass(frozen=True, eq=False)
class InputClass:
    """Descriptor of a restricted input class.

    kind is one of "single-pulse" (u_{tau,alpha}), "pulse-family"
    (alpha on [0,tau) then an arbitrary constant), "constants", or
    "sampled" (pulses of width k*tau at fixed amplitude, sampled every tau).
    """

    kind: str
    tau: Optional[float] = None
    alpha: Optional[float] = None


@dataclass(frozen=True, eq=False)
class CounterexamplePair:
    """Two systems that the given input class cannot distinguish, although
    they are not i/o equivalent. Carries both numeric certificates: the
    agreement residual over the class, and a distinguishing word and/or
    input. The agreement residual is the relative moment gap of the
    constructors (counterex, realization._moment_gap): the worst gap of a
    moment of the pair's difference system on a level of the class,
    relative to the larger member's share, after a rounding allowance; 0
    when no gap exceeds its allowance. It is scale-free, not an absolute
    output gap."""

    sigma: FourTuple
    sigma_hat: FourTuple
    input_class: InputClass
    agreement_residual: float
    distinguishing_word: Optional[str] = None
    distinguishing_input: Optional[PiecewiseConstantInput] = None

    def __post_init__(self):
        if self.sigma.n != self.sigma_hat.n:
            raise ShapeMismatch("pair members must share the dimension")
        if self.sigma.kind != self.sigma_hat.kind:
            raise ShapeMismatch("pair members must share the kind")
        if self.distinguishing_word is None and self.distinguishing_input is None:
            raise ValueError("a pair requires at least one certificate")


# -- JSON ---------------------------------------------------------------------
#
# Schema: {"n": int, "kind": "I"|"II", "A": [[..]], "N": [[..]], "b": [..],
# "c": [..]} with every numeric entry a decimal string. repr() of a Python
# float is the shortest string that round-trips, so to_json . from_json is
# the identity on documents produced here.

def _enc(x) -> str:
    return repr(float(x))


def _enc_vec(v) -> list:
    return [_enc(x) for x in np.ravel(v)]


def _enc_mat(m) -> list:
    return [_enc_vec(row) for row in np.asarray(m)]


def _dec_scalar(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ParseError(f"{where}: expected a number, got {type(x).__name__}")
    try:
        return float(x)
    except ValueError:
        raise ParseError(f"{where}: cannot parse {x!r} as a number") from None


def _dec_finite(x, where: str) -> float:
    x = _dec_scalar(x, where)
    if not np.isfinite(x):
        raise ParseError(f"{where}: expected a finite number, got {x!r}")
    return x


def _dec_vec(v, where: str, length: Optional[int] = None) -> np.ndarray:
    """A list of numbers, of the given length unless that is None."""
    if not isinstance(v, list) or length not in (None, len(v)):
        count = "" if length is None else f"{length} "
        raise ParseError(f"{where}: expected a list of {count}numbers")
    return np.array([_dec_scalar(x, where) for x in v])


def _dec_mat(m, where: str, n: Optional[int] = None) -> np.ndarray:
    """A list of n rows of n numbers or, with n None, of rows of one
    length."""
    if not isinstance(m, list) or n not in (None, len(m)):
        count = "" if n is None else f"{n} "
        raise ParseError(f"{where}: expected a list of {count}rows")
    rows = [_dec_vec(row, f"{where}[{i}]", n) for i, row in enumerate(m)]
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"{where}: rows differ in length")
    return np.array(rows)


def _dec_obj(doc, keys, where: str) -> dict:
    """A JSON object that holds every one of keys."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{where}: missing {key!r} key")
    return doc


def _dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", position=e.pos) from None


def _tuple_dict(t: FourTuple) -> dict:
    """The JSON document of t, before it is dumped."""
    return {
        "n": t.n,
        "kind": t.kind,
        "A": _enc_mat(t.A),
        "N": _enc_mat(t.N),
        "b": _enc_vec(t.b),
        "c": _enc_vec(t.c),
    }


def to_json(t: FourTuple) -> str:
    return _dumps(_tuple_dict(t))


def tuple_from_dict(doc) -> FourTuple:
    _dec_obj(doc, ("n", "kind", "A", "N", "b", "c"), "system")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n must be a positive integer")
    kind = doc["kind"]
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}")
    return FourTuple(
        A=_dec_mat(doc["A"], "A", n),
        N=_dec_mat(doc["N"], "N", n),
        b=_dec_vec(doc["b"], "b", n),
        c=_dec_vec(doc["c"], "c", n),
        kind=kind,
    )


def from_json(text: str) -> FourTuple:
    return tuple_from_dict(_loads(text))


def trajectory_to_json(tr: Trajectory) -> str:
    doc = {"times": _enc_vec(tr.times), "outputs": _enc_vec(tr.outputs)}
    if tr.states is not None:
        doc["states"] = _enc_mat(tr.states)
    return _dumps(doc)


def trajectory_from_json(text: str) -> Trajectory:
    doc = _dec_obj(_loads(text), ("times", "outputs"), "trajectory")
    states = doc.get("states")
    return Trajectory(_dec_vec(doc["times"], "times"),
                      _dec_vec(doc["outputs"], "outputs"),
                      None if states is None else _dec_mat(states, "states"))


def input_to_dict(u: PiecewiseConstantInput) -> dict:
    return {
        "breakpoints": _enc_vec(u.breakpoints),
        "levels": _enc_vec(u.levels),
        "horizon": _enc(u.horizon),
    }


def input_from_dict(doc) -> PiecewiseConstantInput:
    _dec_obj(doc, ("breakpoints", "levels", "horizon"), "input")
    return PiecewiseConstantInput(
        _dec_vec(doc["breakpoints"], "breakpoints"),
        _dec_vec(doc["levels"], "levels"),
        _dec_scalar(doc["horizon"], "horizon"),
    )


def pair_to_json(p: CounterexamplePair) -> str:
    doc = {
        "sigma": _tuple_dict(p.sigma),
        "sigma_hat": _tuple_dict(p.sigma_hat),
        "input_class": {
            "kind": p.input_class.kind,
            "tau": None if p.input_class.tau is None else _enc(p.input_class.tau),
            "alpha": None if p.input_class.alpha is None else _enc(p.input_class.alpha),
        },
        "agreement_residual": _enc(p.agreement_residual),
        "distinguishing_word": p.distinguishing_word,
        "distinguishing_input": (
            None if p.distinguishing_input is None
            else input_to_dict(p.distinguishing_input)
        ),
    }
    return _dumps(doc)


def pair_from_json(text: str) -> CounterexamplePair:
    doc = _dec_obj(_loads(text), ("sigma", "sigma_hat", "input_class",
                                  "agreement_residual"), "pair")
    cls = _dec_obj(doc["input_class"], ("kind",), "input_class")
    if cls["kind"] not in INPUT_CLASS_KINDS:
        raise ParseError(f"input_class: kind must be one of {INPUT_CLASS_KINDS}")
    if not isinstance(doc.get("distinguishing_word"), (str, type(None))):
        raise ParseError("distinguishing_word: expected a string or null")
    u = doc.get("distinguishing_input")
    return CounterexamplePair(
        sigma=tuple_from_dict(doc["sigma"]),
        sigma_hat=tuple_from_dict(doc["sigma_hat"]),
        input_class=InputClass(
            kind=cls["kind"],
            tau=None if cls.get("tau") is None else _dec_finite(cls["tau"], "tau"),
            alpha=None if cls.get("alpha") is None
            else _dec_finite(cls["alpha"], "alpha"),
        ),
        agreement_residual=_dec_finite(doc["agreement_residual"],
                                       "agreement_residual"),
        distinguishing_word=doc.get("distinguishing_word"),
        distinguishing_input=None if u is None else input_from_dict(u),
    )
