"""The discounted hitting time (DHT) framework — Section V-A of the paper.

The general form (Definition 5) is

``h(u, v) = alpha * sum_{i >= 1} lambda^i P_i(u, v) + beta``

with ``P_i(u, v)`` the probability of *first* hitting ``v`` at step ``i``
from ``u``.  The two published variants are specialisations (Table II):

* ``DHT_e`` (Guan et al. [8]): ``alpha = e``, ``beta = 0``,
  ``lambda = 1/e`` — i.e. ``sum_i e^{-(i-1)} P_i``.
* ``DHT_lambda`` (Sarkar & Moore [9]): ``alpha = 1/(1-lambda)``,
  ``beta = -1/(1-lambda)`` — the negated discounted-hitting-distance, so
  larger is more similar.

In practice the series is truncated at ``d`` steps (Eq. 4); Lemma 1 gives
the smallest ``d`` with truncation error at most ``epsilon``.

:class:`DHTMeasure` is DHT as a measure value (coefficients plus depth),
exactly like PPR in :mod:`repro.extensions`: every join reads its
kernel (also the cache identity), floor and bounds off it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.bounds import XBound
from repro.graph.validation import GraphValidationError


@dataclass(frozen=True)
class DHTParams:
    """Coefficients ``(alpha, beta, lambda)`` of the general DHT form.

    ``alpha`` must be positive: both published variants have ``alpha > 0``
    and every pruning bound in the paper (Lemmas 2 and 5, Theorem 1)
    silently relies on the series term being non-negative.
    """

    alpha: float
    beta: float
    decay: float  # the paper's lambda; renamed because `lambda` is reserved

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not (0.0 < self.decay < 1.0):
            raise ValueError(f"decay (lambda) must be in (0, 1), got {self.decay}")

    # ------------------------------------------------------------------
    # Named variants (Table II)
    # ------------------------------------------------------------------

    @classmethod
    def dht_e(cls) -> "DHTParams":
        """``DHT_e`` of [8]: ``sum_i e^{-(i-1)} P_i(u, v)``."""
        return cls(alpha=math.e, beta=0.0, decay=1.0 / math.e)

    @classmethod
    def dht_lambda(cls, decay: float = 0.2) -> "DHTParams":
        """``DHT_lambda`` of [9], negated into a similarity (footnote 3).

        The paper's default configuration is ``lambda = 0.2`` giving
        ``alpha = 1.25`` and ``beta = -1.25`` (Section VII-A).
        """
        if not (0.0 < decay < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        scale = 1.0 / (1.0 - decay)
        return cls(alpha=scale, beta=-scale, decay=decay)

    # ------------------------------------------------------------------
    # Truncation (Eq. 4, Lemma 1)
    # ------------------------------------------------------------------

    def steps_for_epsilon(self, epsilon: float) -> int:
        """Smallest ``d`` with ``|h - h_d| <= epsilon`` (Lemma 1).

        ``d >= log_lambda( epsilon (1 - lambda) / (alpha lambda) )``.
        For the paper's defaults (``lambda=0.2, alpha=1.25``) and
        ``epsilon = 1e-6`` this returns ``d = 8``.
        """
        if not (0.0 < epsilon < math.inf):
            raise GraphValidationError(
                f"epsilon must be finite and > 0, got {epsilon}"
            )
        ratio = epsilon * (1.0 - self.decay) / (self.alpha * self.decay)
        if ratio >= 1.0:
            return 1
        d = math.log(ratio) / math.log(self.decay)
        return max(1, math.ceil(d - 1e-12))

    def truncation_error_bound(self, d: int) -> float:
        """Upper bound on ``h - h_d``: the full geometric tail
        ``alpha * lambda^{d+1} / (1 - lambda)`` (cf. Lemma 2 with
        ``l = d``)."""
        if d < 0:
            raise ValueError(f"d must be >= 0, got {d}")
        return self.alpha * self.decay ** (d + 1) / (1.0 - self.decay)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    @property
    def zero_score(self) -> float:
        """Score of a pair with zero hitting probability at every step
        (``h = beta``): the floor of the score range."""
        return self.beta

    def max_score(self) -> float:
        """Score of a pair hit at step 1 with probability 1
        (``alpha * lambda + beta``): the ceiling of the score range."""
        return self.alpha * self.decay + self.beta

    def score_from_series(self, hit_probs: np.ndarray) -> float:
        """Truncated score ``h_d`` from ``[P_1, ..., P_d]`` (Eq. 4)."""
        hit_probs = np.asarray(hit_probs, dtype=np.float64)
        d = hit_probs.shape[-1]
        weights = self.decay ** np.arange(1, d + 1)
        return float(self.alpha * hit_probs.dot(weights) + self.beta)

    def scores_from_matrix(self, hit_matrix: np.ndarray) -> np.ndarray:
        """Vectorised ``h_d`` for a ``(d, n)`` matrix of hit series.

        Column ``u`` of ``hit_matrix`` is ``[P_1(u, q), ..., P_d(u, q)]``
        (the layout produced by
        :meth:`repro.walks.engine.WalkEngine.backward_first_hit_series`);
        the result is the length-``n`` vector of ``h_d(u, q)`` scores.
        """
        hit_matrix = np.asarray(hit_matrix, dtype=np.float64)
        d = hit_matrix.shape[0]
        weights = self.decay ** np.arange(1, d + 1)
        return self.alpha * weights.dot(hit_matrix) + self.beta

    def partial_score_prefixes(self, hit_probs: np.ndarray) -> np.ndarray:
        """All prefixes ``[h_0, h_1, ..., h_d]`` from one hit series.

        ``h_0 = beta`` (empty sum); ``h_l`` is the ``l``-step truncation.
        Used by the iterative-deepening algorithms, which need ``h_l`` at
        doubling checkpoints.
        """
        hit_probs = np.asarray(hit_probs, dtype=np.float64)
        d = hit_probs.shape[-1]
        weights = self.decay ** np.arange(1, d + 1)
        prefix = np.concatenate(([0.0], np.cumsum(hit_probs * weights)))
        return self.alpha * prefix + self.beta

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"DHT(alpha={self.alpha:.4g}, beta={self.beta:.4g}, lambda={self.decay:.4g})"


class DHTMeasure:
    """DHT as a :class:`~repro.extensions.measures.SeriesMeasure`: the
    coefficients ``params`` (default ``DHT_lambda(0.2)``) truncated at
    ``d`` steps.

    Pass either ``d`` or the error target ``epsilon`` that sets it via
    Lemma 1 (default ``1e-6``, so ``d = 8`` for the paper's defaults),
    not both.  The cache identity is ``params`` itself, so a
    ``WalkCache(engine, params)`` serves every depth of this measure.
    """

    def __init__(
        self,
        params: Optional[DHTParams] = None,
        d: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> None:
        self.params = params if params is not None else DHTParams.dht_lambda(0.2)
        if d is not None and epsilon is not None:
            raise GraphValidationError("pass either d or epsilon, not both")
        if d is None:
            d = self.params.steps_for_epsilon(1e-6 if epsilon is None else epsilon)
        elif isinstance(d, bool) or not isinstance(d, numbers.Integral):
            raise GraphValidationError(f"d must be an int, got {d!r}")
        if d < 1:
            raise GraphValidationError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self.name = f"DHT(lambda={self.params.decay})"

    @property
    def floor(self) -> float:
        """``beta`` — the score of a pair that never hits."""
        return self.params.zero_score

    def kernel(self) -> DHTParams:
        """The params themselves: a :class:`~repro.walks.state.WalkState`
        over them runs the first-hit (absorbing) block kernel of Eq. 5."""
        return self.params

    def x_bound(self, d: int) -> XBound:
        """Lemma 2's ``X`` table at depth ``d``:
        ``X_l^+ = alpha * lambda^{l+1} / (1 - lambda)``."""
        params = self.params
        return XBound(params.alpha / (1.0 - params.decay), params.decay, d)

    def tail_weights(self, d: int) -> np.ndarray:
        """``w_i * sup P_i = alpha * lambda^i``, ``i = 1 .. d`` — the
        Theorem 1 weights of the reach-mass ``Y`` bound."""
        return self.params.alpha * self.params.decay ** np.arange(1, d + 1)
