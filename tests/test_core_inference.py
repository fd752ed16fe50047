"""Malicious-ID inference: constraints, rank selection, set reconstruction."""

import numpy as np
import pytest

from repro.core.bitprob import BitCounter
from repro.core.config import IDSConfig
from repro.core.inference import InferenceEngine, InferenceResult
from repro.core.kernel import WindowBlock
from repro.core.template import TemplateBuilder
from repro.exceptions import InferenceError
from repro.io.trace import Trace, TraceRecord


def bits_of(can_id, n_bits=11):
    return np.array([(can_id >> (n_bits - 1 - i)) & 1 for i in range(n_bits)], float)


@pytest.fixture(scope="module")
def synthetic_setup():
    """A controlled pool + template where mixtures can be computed exactly.

    Base traffic: uniform over a 40-identifier pool; template windows are
    two identical passes so the template is exact and noise-free.
    """
    rng = np.random.default_rng(9)
    pool = sorted(int(i) for i in rng.choice(0x7FF, size=40, replace=False))
    config = IDSConfig(min_window_messages=10, template_windows=2, alpha=3.0)
    builder = TemplateBuilder(config)
    base_ids = pool * 25  # 1000 messages, uniform
    trace = Trace(
        TraceRecord(timestamp_us=i * 100, can_id=c) for i, c in enumerate(base_ids)
    )
    builder.add_trace(trace)
    builder.add_trace(trace)
    template = builder.build()
    engine = InferenceEngine(pool, template, config)
    return pool, template, config, engine


def mixed_probabilities(pool, injected, fraction):
    """Exact p-vector of base traffic mixed with injected identifiers."""
    base = np.mean([bits_of(i) for i in pool], axis=0)
    inj = np.mean([bits_of(i) for i in injected], axis=0)
    return (1 - fraction) * base + fraction * inj


class TestConstruction:
    def test_empty_pool_rejected(self, synthetic_setup):
        _pool, template, config, _engine = synthetic_setup
        with pytest.raises(InferenceError):
            InferenceEngine([], template, config)

    def test_oversized_pool_id_rejected(self, synthetic_setup):
        _pool, template, config, _engine = synthetic_setup
        with pytest.raises(InferenceError):
            InferenceEngine([0x800], template, config)

    def test_pool_sorted_ascending(self, synthetic_setup):
        pool, _t, _c, engine = synthetic_setup
        assert list(engine.id_pool) == sorted(pool)


class TestEvidence:
    def test_constraints_directions(self, synthetic_setup):
        pool, _t, _c, engine = synthetic_setup
        target = pool[7]
        p = mixed_probabilities(pool, [target], 0.3)
        constraints = engine.constraints_from(p, 2000)
        assert constraints  # a 30% injection must constrain some bits
        for bit, value in constraints.items():
            assert value == int(bits_of(target)[bit - 1])

    def test_no_shift_no_constraints(self, synthetic_setup):
        pool, template, _c, engine = synthetic_setup
        constraints = engine.constraints_from(template.mean_p.copy(), 2000)
        assert constraints == {}

    def test_injected_fraction_clipped(self, synthetic_setup):
        _pool, _t, config, engine = synthetic_setup
        # Fewer messages than the template expects -> clamped to minimum.
        assert engine.injected_fraction(100) == config.min_injected_fraction
        assert engine.injected_fraction(10_000_000) <= 0.95

    def test_injected_fraction_estimates_inflation(self, synthetic_setup):
        _pool, template, _c, engine = synthetic_setup
        n = int(template.mean_count / (1 - 0.2))  # 20% injected
        assert engine.injected_fraction(n) == pytest.approx(0.2, abs=0.02)

    def test_injected_fraction_rejects_nonpositive(self, synthetic_setup):
        _pool, _t, _c, engine = synthetic_setup
        with pytest.raises(InferenceError):
            engine.injected_fraction(0)

    def test_composition_inverts_mixture(self, synthetic_setup):
        pool, _t, _c, engine = synthetic_setup
        injected = [pool[3], pool[11]]
        p = mixed_probabilities(pool, injected, 0.25)
        composition = engine.composition_estimate(p, 0.25)
        truth = np.mean([bits_of(i) for i in injected], axis=0)
        assert np.allclose(composition, truth, atol=1e-9)

    def test_composition_rejects_bad_fraction(self, synthetic_setup):
        _pool, template, _c, engine = synthetic_setup
        with pytest.raises(InferenceError):
            engine.composition_estimate(template.mean_p, 0.0)


class TestSingleInference:
    @pytest.mark.parametrize("position", [0, 13, 26, 39])
    def test_exact_recovery(self, synthetic_setup, position):
        pool, template, _c, engine = synthetic_setup
        target = pool[position]
        p = mixed_probabilities(pool, [target], 0.2)
        n = int(template.mean_count / 0.8)
        result = engine.infer(p, n, k=1)
        assert result.candidates[0] == target
        assert result.best_set == (target,)

    def test_rank_limit_respected(self, synthetic_setup):
        pool, template, config, engine = synthetic_setup
        p = mixed_probabilities(pool, [pool[5]], 0.2)
        result = engine.infer(p, int(template.mean_count / 0.8), k=1)
        assert len(result.candidates) <= config.rank

    def test_hit_rate_single(self, synthetic_setup):
        pool, template, _c, engine = synthetic_setup
        p = mixed_probabilities(pool, [pool[5]], 0.2)
        result = engine.infer(p, int(template.mean_count / 0.8), k=1)
        assert result.hit_rate([pool[5]]) == 1.0
        missing = next(i for i in range(0x7FF) if i not in result.candidates)
        assert result.hit_rate([missing]) == 0.0

    def test_hit_rate_requires_truth(self, synthetic_setup):
        pool, template, _c, engine = synthetic_setup
        p = mixed_probabilities(pool, [pool[5]], 0.2)
        result = engine.infer(p, int(template.mean_count / 0.8), k=1)
        with pytest.raises(InferenceError):
            result.hit_rate([])

    def test_shape_validated(self, synthetic_setup):
        _pool, _t, _c, engine = synthetic_setup
        with pytest.raises(InferenceError):
            engine.infer(np.zeros(5), 100, k=1)

    def test_k_validated(self, synthetic_setup):
        _pool, template, _c, engine = synthetic_setup
        with pytest.raises(InferenceError):
            engine.infer(template.mean_p, 100, k=0)


class TestMultiInference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_recovery_uniform_mixture(self, synthetic_setup, k):
        pool, template, _c, engine = synthetic_setup
        injected = [pool[i] for i in (2, 9, 17, 31)[:k]]
        p = mixed_probabilities(pool, injected, 0.25)
        n = int(template.mean_count / 0.75)
        result = engine.infer(p, n, k=k)
        assert set(injected) <= set(result.candidates)
        assert result.hit_rate(injected) == 1.0

    def test_unequal_member_shares_recovered(self, synthetic_setup):
        """Members with unequal success shares (the arbitration skew)
        must still be reconstructed — the weighted least-squares fit."""
        pool, template, _c, engine = synthetic_setup
        a, b = pool[4], pool[22]
        base = np.mean([bits_of(i) for i in pool], axis=0)
        mix = 0.75 * base + 0.17 * bits_of(a) + 0.08 * bits_of(b)
        n = int(template.mean_count / 0.75)
        result = engine.infer(mix, n, k=2)
        assert set(result.best_set) == {a, b}
        # Fitted shares reflect the 17/8 split, dominant member first
        # in ascending-id order of (a, b).
        shares = dict(zip(result.best_set, result.member_shares))
        assert shares[a] > shares[b]

    def test_best_set_leads_candidates(self, synthetic_setup):
        pool, template, _c, engine = synthetic_setup
        injected = [pool[2], pool[9]]
        p = mixed_probabilities(pool, injected, 0.25)
        result = engine.infer(p, int(template.mean_count / 0.75), k=2)
        assert set(result.candidates[:2]) == set(result.best_set)

    def test_member_shares_sum_to_one(self, synthetic_setup):
        pool, template, _c, engine = synthetic_setup
        injected = [pool[2], pool[9], pool[30]]
        p = mixed_probabilities(pool, injected, 0.3)
        result = engine.infer(p, int(template.mean_count / 0.7), k=3)
        assert sum(result.member_shares) == pytest.approx(1.0, abs=1e-6)


def two_window_block(probabilities, n_messages, alarm, judged=(True, True)):
    """A 2-row WindowBlock carrying only what inference reads."""
    n_bits = len(probabilities[0])
    violated = np.zeros((2, n_bits), dtype=bool)
    violated[:, 0] = alarm
    zeros = np.zeros((2, n_bits))
    return WindowBlock(
        window_us=1_000_000,
        index=np.arange(2, dtype=np.int64),
        t_start_us=np.array([0, 1_000_000], dtype=np.int64),
        n_messages=np.asarray(n_messages, dtype=np.int64),
        n_attack_messages=np.zeros(2, dtype=np.int64),
        probabilities=np.asarray(probabilities, dtype=float),
        entropy=zeros,
        deviations=zeros.copy(),
        violated=violated,
        judged=np.asarray(judged, dtype=bool),
    )


class TestInferFromWindows:
    def test_aggregates_alarmed_windows(self, synthetic_setup, golden_template):
        _pool, _t, _c, engine = synthetic_setup
        pool = list(engine.id_pool)
        p_attack = mixed_probabilities(pool, [pool[5]], 0.2)
        windows = two_window_block(
            [p_attack, np.zeros(11)],  # row 1 is ignored: no alarm
            n_messages=[1200, 1000],
            alarm=[True, False],
        )
        result = engine.infer_from_windows(windows, k=1)
        assert result.candidates[0] == pool[5]

    def test_requires_windows(self, synthetic_setup):
        _pool, _t, _c, engine = synthetic_setup
        unjudged = two_window_block(
            [np.zeros(11), np.zeros(11)],
            n_messages=[3, 4],
            alarm=[False, False],
            judged=[False, False],
        )
        with pytest.raises(InferenceError):
            engine.infer_from_windows(unjudged, k=1)
