"""The PEM baseline miner."""

import numpy as np
import pytest

from repro.core.topk import PEMMiner, pem_iteration_count
from repro.exceptions import ConfigurationError, DomainError


class TestConfiguration:
    def test_iteration_count_formula(self):
        # d=1024, k=16, m=1: start at 5 bits (32 values), 10 total bits.
        miner = PEMMiner(k=16, epsilon=4.0, domain_size=1024)
        assert miner.start_bits == 5
        assert miner.n_iterations == 6
        assert pem_iteration_count(1024, 16) == 6

    def test_small_domain_single_iteration(self):
        miner = PEMMiner(k=16, epsilon=4.0, domain_size=20)
        assert miner.n_iterations == 1

    def test_extension_bits_shrink_iterations(self):
        one = PEMMiner(k=16, epsilon=4.0, domain_size=4096, extension_bits=1)
        two = PEMMiner(k=16, epsilon=4.0, domain_size=4096, extension_bits=2)
        assert two.n_iterations < one.n_iterations

    def test_default_keep_is_k(self):
        assert PEMMiner(k=10, epsilon=1.0, domain_size=256).keep == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            PEMMiner(k=0, epsilon=1.0, domain_size=8)
        with pytest.raises(DomainError):
            PEMMiner(k=2, epsilon=1.0, domain_size=0)
        with pytest.raises(DomainError):
            PEMMiner(k=2, epsilon=1.0, domain_size=8, extension_bits=0)
        with pytest.raises(ConfigurationError):
            PEMMiner(k=2, epsilon=1.0, domain_size=8, invalid_mode="nope")


class TestMining:
    def test_finds_clear_heavy_hitters(self, rng):
        """With a huge budget and well-separated counts, PEM is exact."""
        counts = np.zeros(256, dtype=np.int64)
        heavy = [7, 100, 200, 250]
        for rank, item in enumerate(heavy):
            counts[item] = 50_000 - 5000 * rank
        counts += rng.multinomial(20_000, np.ones(256) / 256)
        miner = PEMMiner(k=4, epsilon=8.0, domain_size=256, rng=rng)
        result = miner.mine_counts(counts, rng=rng)
        assert set(result.top_items) == set(heavy)

    def test_returns_at_most_k(self, rng):
        counts = rng.multinomial(30_000, np.ones(128) / 128)
        miner = PEMMiner(k=5, epsilon=4.0, domain_size=128, rng=rng)
        result = miner.mine_counts(counts, rng=rng)
        assert len(result.top_items) <= 5
        assert len(set(result.top_items)) == len(result.top_items)

    def test_items_within_domain(self, rng):
        """Prefix codes beyond d (non-power-of-two domains) never leak."""
        counts = rng.multinomial(30_000, np.ones(100) / 100)
        miner = PEMMiner(k=8, epsilon=4.0, domain_size=100, rng=rng)
        result = miner.mine_counts(counts, rng=rng)
        assert all(0 <= item < 100 for item in result.top_items)

    def test_rejects_wrong_count_length(self, rng):
        miner = PEMMiner(k=4, epsilon=1.0, domain_size=64, rng=rng)
        with pytest.raises(DomainError):
            miner.mine_counts(np.ones(63, dtype=np.int64), rng=rng)

    def test_always_invalid_users_degrade_little_under_vp(self, rng):
        """VP handles a large invalid cohort better than random
        replacement (Table III's +VP row)."""
        counts = np.zeros(256, dtype=np.int64)
        ranks = np.arange(256, dtype=np.float64)
        probs = np.exp(-ranks / 40.0)
        counts += np.random.default_rng(1).multinomial(40_000, probs / probs.sum())
        truth = set(np.argsort(-counts)[:8].tolist())

        def score(invalid_mode: str) -> float:
            hits = 0
            for t in range(12):
                miner = PEMMiner(
                    k=8, epsilon=2.0, domain_size=256, invalid_mode=invalid_mode,
                    rng=np.random.default_rng(100 + t),
                )
                result = miner.mine_counts(counts, n_always_invalid=40_000)
                hits += len(set(result.top_items) & truth)
            return hits / (12 * 8)

        assert score("vp") > score("random")


class TestFig3Failure:
    def test_prefix_expansion_misses_structured_top1(self):
        """The paper's Fig. 3: item '000' holds count 30 (the top-1) but
        its depth-1 prefix '0' (sum 61) loses to '1' (sum 63), so prefix
        expansion with keep=1 misses it even WITHOUT LDP noise.  We verify
        with a huge budget (noise negligible)."""
        counts = np.asarray([30, 0, 19, 12, 18, 13, 15, 17])
        misses = 0
        for t in range(20):
            miner = PEMMiner(
                k=1, epsilon=50.0, domain_size=8, extension_bits=1,
                rng=np.random.default_rng(t),
            )
            # Scale counts so per-iteration cohorts stay faithful.
            result = miner.mine_counts(counts * 1000)
            misses += result.top_items != [0]
        assert misses == 20  # deterministically wrong: the Fig. 3 trap
