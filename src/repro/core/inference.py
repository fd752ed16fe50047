"""Malicious-ID inference (Section V.C of the paper).

The direction of each bit's probability shift betrays the injected
identifier: "if the bit entropy changes in the negative direction ...
the corresponding bit of the injected ID will be probably 0".  The paper
then applies **rank selection**: sort the vehicle's identifier pool in
ascending numerical order (dominant identifiers are a priori more likely
to be injected, because they win arbitration), keep the candidates that
obey the constraints derived from the entropy changes, and take the
first ``rank`` (paper: 10) as the candidate set.  A detection is a *hit*
when the true malicious identifier is in that set.

For multiple injected identifiers the direction alone is not enough; the
paper's modified algorithm uses "not only the change direction but also
the changing rate of each bit".  We implement that as a **weighted
mixture decomposition**: the observed probability shift is modelled as

    dp  ≈  sum_j  w_j (bits_j - p_base)

where the per-member weights ``w_j`` are free — they absorb both the
injected volume and the fact that low-priority members win arbitration
less often than high-priority ones (their success shares are unequal,
measurably so at high injection frequencies).  Candidate k-sets are
enumerated over a shortlist and scored by the residual of a per-set
least-squares weight fit; the best set leads the ranked candidate list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import IDSConfig
from repro.core.kernel import WindowBlock
from repro.core.template import GoldenTemplate
from repro.exceptions import InferenceError

#: Per-bit z-scores are capped here when converted to soft weights.
_Z_CAP = 6.0

#: Absolute floor for the per-bit noise scale (probability units).
_P_NOISE_FLOOR = 1e-4

#: Upper bound on enumerated k-combinations in the set search.  The
#: batched least-squares scorer handles this many 4-identifier sets in
#: well under a second; the size mainly buys shortlist *recall* for k=4.
_MAX_COMBINATIONS = 250_000


@dataclass(frozen=True)
class InferenceResult:
    """Everything the inference step derived from one attack episode."""

    #: Ranked candidate identifiers (at most ``config.rank``).
    candidates: Tuple[int, ...]
    #: Hard direction constraints: 1-based bit number -> required value.
    constraints: Dict[int, int]
    #: Estimated fraction of window traffic that was injected.
    injected_fraction: float
    #: Estimated mean bit composition of the injected identifiers.
    composition: np.ndarray
    #: Reconstructed k-identifier set (equals candidates[:1] for k=1).
    best_set: Tuple[int, ...]
    #: Estimated success share of each ``best_set`` member (sums to ~1).
    member_shares: Tuple[float, ...] = ()

    def hit_rate(self, true_ids: Sequence[int]) -> float:
        """Fraction of the true injected identifiers in the candidate set.

        For a single injected identifier this is the paper's hit
        indicator (1.0 or 0.0); for k identifiers it is the recovered
        fraction.
        """
        truth = set(true_ids)
        if not truth:
            raise InferenceError("hit_rate needs a non-empty truth set")
        return len(truth.intersection(self.candidates)) / len(truth)

    # ------------------------------------------------------------------
    # Serialisation (the fleet ledger persists scan results)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (lossless float round trip)."""
        return {
            "candidates": [int(c) for c in self.candidates],
            # JSON object keys are strings; from_dict restores the ints.
            "constraints": {str(b): int(v) for b, v in self.constraints.items()},
            "injected_fraction": float(self.injected_fraction),
            "composition": [float(v) for v in self.composition],
            "best_set": [int(c) for c in self.best_set],
            "member_shares": [float(s) for s in self.member_shares],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InferenceResult":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                candidates=tuple(int(c) for c in payload["candidates"]),
                constraints={
                    int(b): int(v) for b, v in payload["constraints"].items()
                },
                injected_fraction=float(payload["injected_fraction"]),
                composition=np.asarray(payload["composition"], dtype=float),
                best_set=tuple(int(c) for c in payload["best_set"]),
                member_shares=tuple(float(s) for s in payload["member_shares"]),
            )
        except KeyError as exc:
            raise InferenceError(f"inference dict missing field {exc}") from exc


class InferenceEngine:
    """Rank-selection inference over a known identifier pool."""

    def __init__(
        self,
        id_pool: Sequence[int],
        template: GoldenTemplate,
        config: Optional[IDSConfig] = None,
    ) -> None:
        self.config = config or IDSConfig()
        pool = sorted(set(int(i) for i in id_pool))
        if not pool:
            raise InferenceError("identifier pool must be non-empty")
        if pool[0] < 0 or pool[-1] >= (1 << self.config.n_bits):
            raise InferenceError(
                f"pool identifiers must fit in {self.config.n_bits} bits"
            )
        self.template = template
        #: Ascending pool — the paper's prior ordering for rank selection.
        self.id_pool: Tuple[int, ...] = tuple(pool)
        shifts = np.arange(self.config.n_bits - 1, -1, -1, dtype=np.int64)
        self._pool_bits = (
            (np.asarray(pool, dtype=np.int64)[:, None] >> shifts[None, :]) & 1
        ).astype(float)
        #: Mixture atoms: each identifier's deviation from the baseline.
        self._atoms = self._pool_bits - self.template.mean_p[None, :]

    # ------------------------------------------------------------------
    # Evidence extraction
    # ------------------------------------------------------------------
    def _noise_scale(self, n_messages: int) -> np.ndarray:
        """Per-bit noise scale for probability shifts.

        The larger of the template's observed per-bit range and the
        binomial sampling deviation for the window population, floored at
        a small constant (bits that are constant across the catalog have
        zero template range).
        """
        p = self.template.mean_p
        binomial = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / max(1, n_messages))
        return np.maximum(np.maximum(self.template.p_range, binomial), _P_NOISE_FLOOR)

    def _z_scores(self, probabilities: np.ndarray, n_messages: int) -> np.ndarray:
        delta = np.asarray(probabilities, dtype=float) - self.template.mean_p
        return delta / self._noise_scale(n_messages)

    def constraints_from(
        self, probabilities: np.ndarray, n_messages: int
    ) -> Dict[int, int]:
        """Hard direction constraints from significantly shifted bits.

        Returns a mapping of 1-based bit number (Bit 1 = MSB) to the
        required bit value of the injected identifier.
        """
        z = self._z_scores(probabilities, n_messages)
        constraints: Dict[int, int] = {}
        for index in range(self.config.n_bits):
            if z[index] > self.config.constraint_z:
                constraints[index + 1] = 1
            elif z[index] < -self.config.constraint_z:
                constraints[index + 1] = 0
        return constraints

    def injected_fraction(self, n_messages: int, n_windows: int = 1) -> float:
        """Estimate the injected share of traffic from count inflation."""
        expected = self.template.mean_count * max(1, n_windows)
        if n_messages <= 0:
            raise InferenceError("n_messages must be positive")
        fraction = (n_messages - expected) / n_messages
        return float(np.clip(fraction, self.config.min_injected_fraction, 0.95))

    def composition_estimate(
        self, probabilities: np.ndarray, injected_fraction: float
    ) -> np.ndarray:
        """Mean bit composition of the injected identifiers.

        Inverts the mixture ``p_obs = (1-lam) p_base + lam b`` per bit.
        """
        if not 0.0 < injected_fraction <= 1.0:
            raise InferenceError(
                f"injected fraction must be in (0, 1], got {injected_fraction}"
            )
        delta = np.asarray(probabilities, dtype=float) - self.template.mean_p
        return np.clip(self.template.mean_p + delta / injected_fraction, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Candidate ranking
    # ------------------------------------------------------------------
    def _rank_by_constraints(
        self, constraints: Dict[int, int], scores: np.ndarray
    ) -> List[int]:
        """Paper ordering, made noise-robust.

        Primary key: number of violated hard constraints (the paper's
        filter — identifiers obeying all constraints come first).
        Secondary: the soft composition-agreement score, so that when the
        shift is too weak to produce hard constraints the evidence still
        orders the pool.  Final tie-break: ascending identifier, the
        paper's dominant-first prior.
        """
        if constraints:
            bit_indices = np.asarray([bit - 1 for bit in constraints], dtype=int)
            required = np.asarray(
                [constraints[bit] for bit in constraints], dtype=float
            )
            violations = np.abs(
                self._pool_bits[:, bit_indices] - required[None, :]
            ).sum(axis=1)
        else:
            violations = np.zeros(len(self.id_pool))
        order = sorted(
            range(len(self.id_pool)),
            key=lambda i: (violations[i], -scores[i], self.id_pool[i]),
        )
        return [self.id_pool[i] for i in order]

    def _soft_scores(self, composition: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Confidence-weighted agreement of each pool ID with the composition."""
        weights = np.minimum(np.abs(z), _Z_CAP) / _Z_CAP
        agreement = 1.0 - np.abs(self._pool_bits - composition[None, :])
        return (agreement * weights[None, :]).sum(axis=1)

    # ------------------------------------------------------------------
    # Set reconstruction (multi-ID)
    # ------------------------------------------------------------------
    #: A composition bit is a *unanimity constraint* when its estimate is
    #: this close to 0 or 1 (every member must then carry that value).
    _UNANIMITY_MARGIN = 0.08

    #: The composition estimate for a bit is trusted when its noise,
    #: amplified by the mixture inversion (sigma / lambda), stays below
    #: this bound.
    _RELIABLE_SIGMA = 0.12

    def _candidate_members(
        self, k: int, delta: np.ndarray, noise: np.ndarray, fraction: float
    ) -> np.ndarray:
        """Pool indices that could be members (sound unanimity filter).

        A composition bit estimated at ~0 (or ~1) with small amplified
        noise means **every** injected member carries that bit value;
        identifiers violating such unanimity bits cannot be members.  The
        constraints are derived under a *conservative* (inflated)
        injected-fraction: the count-based estimate errs by tens of
        percent, and an underestimated fraction would overshoot the
        composition past [0, 1], where clipping fabricates unanimity bits
        that wrongly exclude true members.
        """
        safe_fraction = min(0.95, 1.5 * fraction)
        conservative = self.composition_estimate(
            self.template.mean_p + delta, safe_fraction
        )
        reliable = (noise / max(fraction, 1e-6)) < self._RELIABLE_SIGMA
        must_zero = reliable & (conservative <= self._UNANIMITY_MARGIN)
        must_one = reliable & (conservative >= 1.0 - self._UNANIMITY_MARGIN)
        mask = np.ones(len(self.id_pool), dtype=bool)
        if must_zero.any():
            mask &= (self._pool_bits[:, must_zero] == 0).all(axis=1)
        if must_one.any():
            mask &= (self._pool_bits[:, must_one] == 1).all(axis=1)
        surviving = np.flatnonzero(mask)
        if surviving.size < k:
            surviving = np.arange(len(self.id_pool))  # filter over-tightened
        return surviving

    def _fit_sets(
        self,
        sets_idx: np.ndarray,
        delta: np.ndarray,
        bit_weights: np.ndarray,
        penalize_degenerate: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched weighted least-squares fit of candidate member sets.

        ``sets_idx`` is (C, j): C candidate sets of j pool indices each.
        Returns the fitted non-negative member weights (C, j) and the
        weighted residual objective (C,).
        """
        combo_atoms = self._atoms[sets_idx]  # (C, j, n_bits)
        weighted = combo_atoms * bit_weights[None, None, :]
        j = sets_idx.shape[1]
        gram = np.einsum("cki,cmi->ckm", weighted, combo_atoms)
        gram += 1e-9 * np.eye(j)[None, :, :]
        rhs = np.einsum("cki,i->ck", weighted, delta)
        weights_fit = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        weights_fit = np.clip(weights_fit, 0.0, None)
        model = np.einsum("ck,cki->ci", weights_fit, combo_atoms)
        residual = delta[None, :] - model
        objective = (bit_weights[None, :] * residual**2).sum(axis=1)
        if penalize_degenerate:
            # A member fitted with (near-)zero weight means the set is
            # really a smaller set; nudge toward genuine k-mixtures.
            total = weights_fit.sum(axis=1, keepdims=True) + 1e-12
            min_share = (weights_fit / total).min(axis=1)
            objective = np.where(
                min_share < 0.02, objective + 0.1 * np.median(objective) + 1e-9,
                objective,
            )
        return weights_fit, objective

    #: Beam widths per level of the set search.
    _BEAM_WIDTH = 800

    def _reconstruct_set(
        self, k: int, delta: np.ndarray, n_messages: int, fraction: float
    ) -> Tuple[List[int], np.ndarray]:
        """Weighted mixture decomposition of the probability shift.

        Beam search over member sets: level j holds the best ``beam``
        j-subsets under the batched least-squares objective (the weighted
        residual of ``dp ~ sum_j w_j (bits_j - p_base)`` with fitted
        non-negative weights).  Level-wise refitting is what makes the
        recall robust — the dominant-share member ranks well as a
        singleton, and once its contribution is fitted the residual
        promotes the remaining members, even though they can look nothing
        like the blended composition (a centroid-ranked shortlist would
        systematically miss such corner members).
        """
        noise = self._noise_scale(n_messages)
        bit_weights = 1.0 / noise**2
        bit_weights /= bit_weights.max()
        pool = self._candidate_members(k, delta, noise, fraction)

        beam: np.ndarray = np.empty((1, 0), dtype=np.int64)
        for level in range(1, k + 1):
            # Extend every beam set by every candidate member; canonical
            # (sorted, unique) form dedupes permutations.
            extended = np.concatenate(
                [
                    np.repeat(beam, len(pool), axis=0),
                    np.tile(pool, len(beam))[:, None],
                ],
                axis=1,
            )
            extended.sort(axis=1)
            valid = np.ones(len(extended), dtype=bool)
            if level > 1:
                valid &= (np.diff(extended, axis=1) > 0).all(axis=1)
            extended = np.unique(extended[valid], axis=0)
            _weights, objective = self._fit_sets(
                extended, delta, bit_weights, penalize_degenerate=(level == k)
            )
            if level < k:
                keep = np.argsort(objective)[: self._BEAM_WIDTH]
                beam = extended[keep]
            else:
                best_row = int(np.argmin(objective))
                best = extended[best_row]
                fitted, _obj = self._fit_sets(
                    best[None, :], delta, bit_weights, penalize_degenerate=False
                )
                shares = fitted[0]
                share_total = shares.sum() + 1e-12
                members = [self.id_pool[int(i)] for i in best]
                order = np.argsort(members)
                return (
                    [members[int(i)] for i in order],
                    np.asarray([shares[int(i)] / share_total for i in order]),
                )
        raise AssertionError("unreachable: k >= 1 guaranteed by caller")

    # ------------------------------------------------------------------
    # Extension: estimating the number of injected identifiers
    # ------------------------------------------------------------------
    def estimate_k(
        self,
        probabilities: np.ndarray,
        n_messages: int,
        n_windows: int = 1,
        k_max: int = 4,
    ) -> int:
        """Estimate how many identifiers were injected.

        The paper evaluates with k known per scenario; this extension
        picks k by parsimony: the smallest k whose weighted mixture fit
        explains the shift adequately (chi-square-scale residual), falling
        back to the best-fitting k.  With unnormalised ``1/noise**2``
        weights the residual objective behaves like a chi-square with
        ~``n_bits`` degrees of freedom on clean fits.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (self.config.n_bits,):
            raise InferenceError(
                f"probabilities must have shape ({self.config.n_bits},), "
                f"got {probabilities.shape}"
            )
        if k_max < 1:
            raise InferenceError(f"k_max must be >= 1, got {k_max}")
        delta = probabilities - self.template.mean_p
        noise = self._noise_scale(n_messages)
        fraction = self.injected_fraction(n_messages, n_windows)
        chi_weights = 1.0 / noise**2
        objectives = {}
        for k in range(1, k_max + 1):
            members, shares = self._reconstruct_set(k, delta, n_messages, fraction)
            sets_idx = np.asarray(
                [[self.id_pool.index(m) for m in members]], dtype=np.int64
            )
            _w, objective = self._fit_sets(
                sets_idx, delta, chi_weights, penalize_degenerate=False
            )
            objectives[k] = float(objective[0])
        adequate = 2.0 * self.config.n_bits
        for k in range(1, k_max + 1):
            if objectives[k] <= adequate:
                return k
        return min(objectives, key=objectives.get)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def infer(
        self,
        probabilities: np.ndarray,
        n_messages: int,
        k: int = 1,
        n_windows: int = 1,
    ) -> InferenceResult:
        """Infer the injected identifier(s) from window measurements.

        Parameters
        ----------
        probabilities:
            The per-bit 1-probabilities measured during the attack
            (aggregated over the alarmed windows).
        n_messages:
            Number of messages behind ``probabilities``.
        k:
            Number of injected identifiers assumed (paper: known per
            scenario; 1 for single/weak, 2..4 for multi).
        n_windows:
            How many windows the measurement spans (for the injected-
            fraction estimate).
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (self.config.n_bits,):
            raise InferenceError(
                f"probabilities must have shape ({self.config.n_bits},), "
                f"got {probabilities.shape}"
            )
        if k < 1:
            raise InferenceError(f"k must be >= 1, got {k}")
        z = self._z_scores(probabilities, n_messages)
        constraints = self.constraints_from(probabilities, n_messages)
        fraction = self.injected_fraction(n_messages, n_windows)
        composition = self.composition_estimate(probabilities, fraction)
        delta = probabilities - self.template.mean_p

        if k == 1:
            scores = self._soft_scores(composition, z)
            ranked = self._rank_by_constraints(constraints, scores)
            candidates = tuple(ranked[: self.config.rank])
            best_set = candidates[:1]
            member_shares: Tuple[float, ...] = (1.0,) if best_set else ()
        else:
            members, shares = self._reconstruct_set(k, delta, n_messages, fraction)
            best_set = tuple(members)
            member_shares = tuple(float(s) for s in shares)
            bits_members = np.asarray(
                [
                    [(m >> shift) & 1 for shift in range(self.config.n_bits - 1, -1, -1)]
                    for m in members
                ],
                dtype=float,
            )
            composition = (
                (np.asarray(shares)[:, None] * bits_members).sum(axis=0)
                if len(members)
                else composition
            )
            scores = self._soft_scores(composition, z)
            order = sorted(
                range(len(self.id_pool)),
                key=lambda i: (-scores[i], self.id_pool[i]),
            )
            # The reconstructed set is the strongest evidence — lead the
            # candidate list with it, then fill by soft score.
            ranked = list(best_set)
            for index in order:
                can_id = self.id_pool[index]
                if can_id not in best_set:
                    ranked.append(can_id)
                if len(ranked) >= self.config.rank:
                    break
            candidates = tuple(ranked[: self.config.rank])
        return InferenceResult(
            candidates=candidates,
            constraints=constraints,
            injected_fraction=fraction,
            composition=composition,
            best_set=best_set,
            member_shares=member_shares,
        )

    def infer_from_windows(
        self, windows: WindowBlock, k: Union[int, str] = 1
    ) -> InferenceResult:
        """Aggregate alarmed windows and infer.

        ``windows`` is a :class:`~repro.core.kernel.WindowBlock`; only
        alarmed rows contribute.  Falls back to all judged rows when
        none alarmed (so the caller can still ask "what would you have
        guessed").  The message-weighted mean adds the rows in window
        order, the same float sequence as a per-window loop.  ``k`` may
        be ``"auto"``: :meth:`estimate_k` then picks it from the same
        aggregate.
        """
        selected = windows.alarm_mask
        if not selected.any():
            selected = windows.judged
        n_windows = int(np.count_nonzero(selected))
        if not n_windows:
            raise InferenceError("no judged windows to infer from")
        n_messages = windows.n_messages[selected]
        total = int(n_messages.sum())
        combined = (
            windows.probabilities[selected] * n_messages[:, None]
        ).sum(axis=0) / total
        if k == "auto":
            k = self.estimate_k(combined, total, n_windows=n_windows)
        return self.infer(combined, total, k=k, n_windows=n_windows)
