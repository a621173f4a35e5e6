"""Quantum-channel physics.

The paper models the success of a *single* entanglement attempt on a quantum
channel as a probability ``p̃_e`` that depends on the channel material and
length (Section II-5 cites a measured value of ``2.18e-4``; the simulations
use ``2e-4``).  Within one time slot, ``A`` attempts can be made on a channel
(4000 in the paper's default configuration), giving a per-slot, per-channel
success probability

    p_e = 1 - (1 - p̃_e)^A                                     (paper, Sec. III-B)

and using ``n_e`` parallel channels on the edge gives

    P_e(n_e) = 1 - (1 - p_e)^{n_e}.                            (paper, Eq. 1)

This module provides these formulas (in numerically stable form) together
with channel models that derive ``p̃_e`` either as a constant (the paper's
default) or from a standard fibre-loss model, which is what one would use
when the topology generator assigns physical lengths to edges.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive, check_probability

#: Paper default: per-attempt entanglement success probability (Sec. V-A2).
DEFAULT_ATTEMPT_SUCCESS = 2.0e-4

#: Paper default: number of attempts per time slot (Sec. V-A2).
DEFAULT_ATTEMPTS_PER_SLOT = 4000

#: Measured per-attempt success rate cited in Sec. II-5 of the paper.
MEASURED_ATTEMPT_SUCCESS = 2.18e-4

#: Time for a single entanglement attempt (Sec. II-5), seconds.
ATTEMPT_DURATION_S = 165e-6

#: Typical entanglement decoherence time (Sec. II-5), seconds.
DECOHERENCE_TIME_S = 1.46


def per_slot_success(attempt_success: float, attempts: int) -> float:
    """Per-slot success probability of a single channel after ``attempts`` tries.

    Implements ``p_e = 1 - (1 - p̃_e)^A`` using ``expm1``/``log1p`` so that
    tiny per-attempt probabilities (1e-4 and below) do not lose precision.
    """
    check_probability(attempt_success, "attempt_success")
    if attempts < 0:
        raise ValueError(f"attempts must be non-negative, got {attempts}")
    if attempts == 0 or attempt_success == 0.0:
        return 0.0
    if attempt_success >= 1.0:
        return 1.0
    # 1 - (1-p)^A  ==  -expm1(A * log1p(-p))
    return -math.expm1(attempts * math.log1p(-attempt_success))


def multi_channel_success(slot_success: float, channels: float) -> float:
    """Success probability of an edge when ``channels`` channels are used.

    Implements the paper's Eq. (1), ``P_e(n_e) = 1 - (1 - p_e)^{n_e}``.  The
    ``channels`` argument is allowed to be fractional because the
    continuous-relaxation solver evaluates the same expression on real-valued
    allocations.
    """
    check_probability(slot_success, "slot_success")
    check_non_negative(channels, "channels")
    if channels == 0 or slot_success == 0.0:
        return 0.0
    if slot_success >= 1.0:
        return 1.0
    return -math.expm1(channels * math.log1p(-slot_success))


def log_multi_channel_success(slot_success: float, channels: float) -> float:
    """``log P_e(n_e)`` computed stably (used by the objective function).

    Returns ``-inf`` when the success probability is exactly zero.
    """
    check_probability(slot_success, "slot_success")
    check_non_negative(channels, "channels")
    return log_multi_channel_success_unchecked(slot_success, channels)


def log_multi_channel_success_unchecked(slot_success: float, channels: float) -> float:
    """:func:`log_multi_channel_success` without its argument checks.

    For solver inner loops whose probabilities and channel counts are valid
    by construction; on valid arguments the two return the same float.
    """
    if channels == 0 or slot_success == 0.0:
        return float("-inf")
    if slot_success >= 1.0:
        return 0.0  # log(1)
    probability = -math.expm1(channels * math.log1p(-slot_success))
    if probability <= 0.0:
        return float("-inf")
    return math.log(probability)


def channels_for_target_success(slot_success: float, target: float) -> float:
    """Minimum (fractional) number of channels achieving ``P_e(n) >= target``.

    Useful for dimensioning studies: inverts Eq. (1).
    """
    check_probability(slot_success, "slot_success", allow_zero=False)
    check_probability(target, "target", allow_one=False)
    if target <= 0.0:
        return 0.0
    if slot_success >= 1.0:
        return 1.0
    return math.log1p(-target) / math.log1p(-slot_success)


class ChannelModel(ABC):
    """Maps a physical edge description to a per-attempt success probability."""

    @abstractmethod
    def attempt_success_probability(self, length: float) -> float:
        """Per-attempt entanglement success probability for a channel of ``length``."""

    def slot_success_probability(self, length: float, attempts: int) -> float:
        """Per-slot success probability for a channel of ``length`` after ``attempts``."""
        return per_slot_success(self.attempt_success_probability(length), attempts)


@dataclass(frozen=True)
class ConstantLossChannel(ChannelModel):
    """The paper's default model: the same ``p̃`` on every edge.

    The paper's simulation section uses a constant per-attempt success
    probability of ``2e-4`` regardless of edge length.
    """

    attempt_success: float = DEFAULT_ATTEMPT_SUCCESS

    def __post_init__(self) -> None:
        check_probability(self.attempt_success, "attempt_success", allow_zero=False)

    def attempt_success_probability(self, length: float) -> float:
        check_non_negative(length, "length")
        return self.attempt_success


@dataclass(frozen=True)
class FiberLossChannel(ChannelModel):
    """Length-dependent channel model based on fibre attenuation.

    The per-attempt success probability decays exponentially with length:

        p̃(L) = p0 * 10^(-loss_db_per_km * L / 10)

    ``p0`` is the zero-length (source/detector-limited) success probability
    and ``loss_db_per_km`` the standard attenuation of telecom fibre
    (~0.2 dB/km).  ``length_unit_km`` converts topology coordinate units into
    kilometres (the paper places nodes in a 100x100 unit square without
    fixing the physical scale).
    """

    base_success: float = 1.0e-3
    loss_db_per_km: float = 0.2
    length_unit_km: float = 1.0
    floor: float = 1.0e-9

    def __post_init__(self) -> None:
        check_probability(self.base_success, "base_success", allow_zero=False)
        check_non_negative(self.loss_db_per_km, "loss_db_per_km")
        check_positive(self.length_unit_km, "length_unit_km")
        check_probability(self.floor, "floor")

    def attempt_success_probability(self, length: float) -> float:
        check_non_negative(length, "length")
        km = length * self.length_unit_km
        transmittance = 10.0 ** (-self.loss_db_per_km * km / 10.0)
        return max(self.floor, self.base_success * transmittance)


def expected_attempts_until_success(attempt_success: float) -> float:
    """Expected number of attempts before the first success on one channel."""
    check_probability(attempt_success, "attempt_success", allow_zero=False)
    return 1.0 / attempt_success


def slot_duration_seconds(attempts: int, attempt_duration: float = ATTEMPT_DURATION_S) -> float:
    """Wall-clock duration of a slot that performs ``attempts`` sequential attempts."""
    if attempts < 0:
        raise ValueError(f"attempts must be non-negative, got {attempts}")
    check_positive(attempt_duration, "attempt_duration")
    return attempts * attempt_duration


def max_attempts_within_decoherence(
    decoherence_time: float = DECOHERENCE_TIME_S,
    attempt_duration: float = ATTEMPT_DURATION_S,
) -> int:
    """Largest number of sequential attempts that fit within the decoherence time.

    With the paper's cited numbers (1.46 s decoherence, 165 µs per attempt)
    this is roughly 8848, comfortably above the 4000 attempts per slot used
    in the evaluation.
    """
    check_positive(decoherence_time, "decoherence_time")
    check_positive(attempt_duration, "attempt_duration")
    return int(decoherence_time // attempt_duration)
