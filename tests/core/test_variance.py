"""Closed-form utility theory: Theorems 4-10 and Table I."""

import numpy as np
import pytest

from repro.core.variance import (
    CPProbabilities,
    TABLE1_EPSILONS,
    cp_estimate_variance,
    ldp_count_moments,
    ldp_invalid_noise,
    pts_estimate_variance,
    table1,
    table1_coefficients,
    theorem10_gap_lower_bound,
    vp_count_moments,
    vp_invalid_noise,
    vp_vs_ldp_variance_gap,
)
from repro.exceptions import DomainError

P, Q = 0.5, 0.2


class TestInvalidNoise:
    def test_theorem4_formulas(self):
        e, v = ldp_invalid_noise(m=1000, d=10, p=P, q=Q)
        assert e == pytest.approx(1000 * Q + 100 * (P - Q))
        assert v == pytest.approx(1000 * Q * (1 - Q) + 100 * (P - Q) * (1 - P - Q))

    def test_theorem5_formulas(self):
        e, v = vp_invalid_noise(m=1000, p=P, q=Q)
        assert e == pytest.approx(1000 * Q * (1 - P))
        assert v == pytest.approx(1000 * (Q * (1 - Q) - P * Q * (1 + P * Q - 2 * Q)))

    def test_vp_noise_always_smaller(self):
        """Theorem 5 < Theorem 4 across budgets and domain sizes."""
        from repro.mechanisms.ue import oue_probabilities

        for eps in (0.5, 1.0, 2.0, 4.0):
            p, q = oue_probabilities(eps)
            for d in (2, 10, 100, 10_000):
                e_ldp, _ = ldp_invalid_noise(1000, d, p, q)
                e_vp, _ = vp_invalid_noise(1000, p, q)
                assert e_vp < e_ldp

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            ldp_invalid_noise(10, 0, P, Q)


class TestCountMoments:
    def test_theorem6_expectation(self):
        e, _ = ldp_count_moments(n1=100, n2=800, m=100, d=10, p=P, q=Q)
        expected = 100 * P + 800 * Q + 100 * Q + 10 * (P - Q)
        assert e == pytest.approx(expected)

    def test_theorem7_expectation_is_bernoulli_sums(self):
        e, v = vp_count_moments(n1=100, n2=800, m=100, p=P, q=Q)
        probs = (P * (1 - Q), Q * (1 - Q), Q * (1 - P))
        counts = (100, 800, 100)
        assert e == pytest.approx(sum(n * pr for n, pr in zip(counts, probs)))
        assert v == pytest.approx(
            sum(n * pr * (1 - pr) for n, pr in zip(counts, probs))
        )

    def test_variance_gap_identity(self):
        """The closing identity of Section V-B equals Var_VP - Var_LDP
        and is negative."""
        n1, n2, m, d = 100, 800, 100, 10
        _, v_ldp = ldp_count_moments(n1, n2, m, d, P, Q)
        _, v_vp = vp_count_moments(n1, n2, m, P, Q)
        gap = vp_vs_ldp_variance_gap(n1, n2, m, d, P, Q)
        assert gap == pytest.approx(v_vp - v_ldp)
        assert gap < 0

    def test_gap_negative_across_regimes(self):
        from repro.mechanisms.ue import oue_probabilities

        for eps in (0.5, 1.0, 2.0, 4.0):
            p, q = oue_probabilities(eps)
            for m_frac in (0.1, 0.5, 0.9):
                n = 10_000
                m = int(n * m_frac)
                gap = vp_vs_ldp_variance_gap(n - m - 100, 100, m, 50, p, q)
                assert gap < 0


class TestCPProbabilities:
    def test_from_budgets(self):
        probs = CPProbabilities.from_budgets(1.0, 1.0, 4)
        assert 0 < probs.q1 < probs.p1 <= 1
        assert probs.p2 == 0.5

    def test_pass_probabilities_ordering(self):
        probs = CPProbabilities.from_budgets(1.0, 1.0, 4)
        # True cell passes more often than same-class noise, which passes
        # more often than other-class noise.
        assert probs.pass_true > probs.pass_same_class > probs.pass_other_class


class TestTable1:
    # The paper's printed Table I (c = 4, even split).
    PAPER_N = [213.8, 58.9, 22.8, 10.5, 5.4, 3.0, 1.8, 1.1]
    PAPER_BIG_N = [441.8, 53.3, 12.0, 3.6, 1.3, 0.5, 0.2, 0.1]
    PAPER_F = [87.4, 32.9, 17.1, 10.3, 6.8, 4.9, 3.7, 2.9]

    def test_n_column_matches_paper_exactly(self):
        rows = table1()
        assert np.allclose(np.round(rows["n"], 1), self.PAPER_N)

    def test_big_n_column_matches_paper_exactly(self):
        rows = table1()
        assert np.allclose(np.round(rows["N"], 1), self.PAPER_BIG_N)

    def test_f_column_matches_paper_within_15_percent(self):
        """The paper's printed f-coefficients deviate from Eq. (5)'s
        grouping by ~10% (see EXPERIMENTS.md); our closed form stays
        within 15% of the printed values at every ε."""
        rows = table1()
        ratio = rows["f(C,I)"] / np.asarray(self.PAPER_F)
        assert (np.abs(ratio - 1.0) < 0.15).all()

    def test_all_coefficients_decrease_in_epsilon(self):
        rows = table1()
        for key in ("f(C,I)", "n", "N"):
            values = rows[key]
            assert (np.diff(values) < 0).all()

    def test_coefficients_positive(self):
        for eps in TABLE1_EPSILONS:
            assert all(c > 0 for c in table1_coefficients(eps))


class TestTheorem8And10:
    def test_cp_variance_linear_in_n(self):
        """Section V-C: Var is affine-increasing in the class amount n
        with f and N fixed (the Fig. 5b effect)."""
        base = dict(f=1e4, n_total=4e6, p1=0.6, q1=0.2, p2=0.5, q2=0.2)
        grid = (5e5, 1e6, 1.5e6, 2e6)
        variances = [cp_estimate_variance(n=n, **base) for n in grid]
        assert variances == sorted(variances)
        increments = np.diff(variances)
        # Equal n steps give equal variance steps (affine dependence).
        assert np.allclose(increments, increments[0], rtol=1e-6)

    def test_cp_variance_insensitive_to_f(self):
        """Section V-C: with f(C,I) << n, N (the realistic regime), the
        f coefficient cannot offset n and N — variance barely moves."""
        base = dict(n=2e6, n_total=4e6, p1=0.6, q1=0.2, p2=0.5, q2=0.2)
        lo = cp_estimate_variance(f=1e2, **base)
        hi = cp_estimate_variance(f=1e4, **base)
        assert hi == pytest.approx(lo, rel=0.05)

    def test_theorem10_gap_positive(self):
        """CP strictly beats GRR+OUE on the pair estimate."""
        from repro.mechanisms.grr import grr_probabilities
        from repro.mechanisms.ue import oue_probabilities

        for eps in (0.5, 1.0, 2.0, 4.0):
            p1, q1 = grr_probabilities(eps / 2, 4)
            p2, q2 = oue_probabilities(eps / 2)
            gap = theorem10_gap_lower_bound(
                f=1e3, n=1e5, n_total=1e6, f_item=5e3, p1=p1, q1=q1, p2=p2, q2=q2
            )
            assert gap > 0

    def test_pts_variance_exceeds_cp_variance(self):
        """The actual variance difference respects the Theorem 10 bound's
        sign: Var_PTS > Var_CP in every tested regime."""
        from repro.mechanisms.grr import grr_probabilities
        from repro.mechanisms.ue import oue_probabilities

        for eps in (0.5, 1.0, 2.0, 4.0):
            p1, q1 = grr_probabilities(eps / 2, 4)
            p2, q2 = oue_probabilities(eps / 2)
            args = dict(f=1e3, n=1e5, n_total=1e6, p1=p1, q1=q1, p2=p2, q2=q2)
            v_pts = pts_estimate_variance(f_item=5e3, **args)
            v_cp = cp_estimate_variance(**args)
            assert v_pts > v_cp


class TestVarianceMatrices:
    """Vectorised plug-in variance bounds behind estimate_variance()."""

    def test_ldp_matrix_matches_the_closed_form(self):
        from repro.core.variance import ldp_variance_matrix

        est = np.array([[100.0, 0.0], [250.0, 50.0]])
        out = ldp_variance_matrix(est, n_total=1000.0, p=P, q=Q)
        expected = (est * P * (1 - P) + (1000.0 - est) * Q * (1 - Q)) / (P - Q) ** 2
        np.testing.assert_allclose(out, expected)

    def test_ldp_matrix_clips_out_of_range_plug_ins(self):
        from repro.core.variance import ldp_variance_matrix

        # Calibration noise can push cells below 0 or above N; the
        # plug-in must clip so the variance stays a valid (positive)
        # binomial bound.
        est = np.array([[-40.0, 2000.0]])
        out = ldp_variance_matrix(est, n_total=1000.0, p=P, q=Q)
        assert (out > 0).all()
        np.testing.assert_allclose(
            out,
            ldp_variance_matrix(
                np.array([[0.0, 1000.0]]), n_total=1000.0, p=P, q=Q
            ),
        )

    def test_hec_matrix_scales_with_group_rescaling(self):
        from repro.core.variance import hec_variance_matrix

        est = np.full((2, 3), 50.0)
        sizes = np.array([800.0, 200.0])
        out = hec_variance_matrix(est, sizes, n_total=1000.0, p=P, q=Q)
        assert out.shape == (2, 3)
        # The smaller group's N/n_g rescaling amplifies its noise.
        assert (out[1] > out[0]).all()

    def test_hec_matrix_rejects_empty_groups(self):
        from repro.core.variance import hec_variance_matrix

        with pytest.raises(DomainError):
            hec_variance_matrix(
                np.ones((2, 2)), np.array([10.0, 0.0]),
                n_total=10.0, p=P, q=Q,
            )

    def test_pts_matrix_matches_scalar_cells(self):
        from repro.core.variance import pts_variance_matrix
        from repro.mechanisms.grr import grr_probabilities
        from repro.mechanisms.ue import oue_probabilities

        p1, q1 = grr_probabilities(1.0, 3)
        p2, q2 = oue_probabilities(1.0)
        est = np.array([[400.0, 100.0], [50.0, 250.0], [10.0, 90.0]])
        sizes = est.sum(axis=1)
        out = pts_variance_matrix(
            est, sizes, n_total=float(est.sum()),
            p1=p1, q1=q1, p2=p2, q2=q2,
        )
        f_item = est.sum(axis=0)
        for c in range(3):
            for i in range(2):
                expected = pts_estimate_variance(
                    f=est[c, i], n=sizes[c], n_total=float(est.sum()),
                    f_item=f_item[i], p1=p1, q1=q1, p2=p2, q2=q2,
                )
                assert out[c, i] == pytest.approx(expected)

    def test_cp_matrix_matches_scalar_cells(self):
        from repro.core.variance import cp_variance_matrix
        from repro.mechanisms.grr import grr_probabilities
        from repro.mechanisms.ue import oue_probabilities

        p1, q1 = grr_probabilities(1.0, 3)
        p2, q2 = oue_probabilities(1.0)
        est = np.array([[400.0, 100.0], [50.0, 250.0], [10.0, 90.0]])
        sizes = est.sum(axis=1)
        out = cp_variance_matrix(
            est, sizes, n_total=float(est.sum()),
            p1=p1, q1=q1, p2=p2, q2=q2,
        )
        for c in range(3):
            for i in range(2):
                expected = cp_estimate_variance(
                    f=est[c, i], n=sizes[c], n_total=float(est.sum()),
                    p1=p1, q1=q1, p2=p2, q2=q2,
                )
                assert out[c, i] == pytest.approx(expected)

    @pytest.mark.parametrize("framework", ["ptj", "pts", "pts-cp"])
    def test_session_variance_bound_covers_observed_error(self, framework):
        """End-to-end sanity: across repeated runs the realised squared
        error of each cell stays within a few multiples of the session's
        own variance bound (it is a bound evaluated at a plug-in, not an
        exact moment)."""
        from repro.stream import make_session

        rng = np.random.default_rng(7)
        c, d, n = 2, 8, 20_000
        truth = rng.dirichlet(np.ones(c * d)) * n
        labels, items = np.divmod(
            rng.choice(c * d, size=n, p=truth / truth.sum()), d
        )
        errors, bounds = [], []
        for run in range(5):
            session = make_session(
                framework, epsilon=2.0, n_classes=c, n_items=d,
                mode="simulate", rng=np.random.default_rng(100 + run),
            )
            session.ingest_batch((labels, items))
            err = (session.estimate() - truth.reshape(c, d)) ** 2
            errors.append(err)
            bounds.append(session.estimate_variance())
        mean_err = np.mean(errors, axis=0)
        bound = np.mean(bounds, axis=0)
        assert (bound > 0).all()
        # Mean squared error within 8x the bound per cell (loose: 5 runs).
        assert (mean_err <= 8.0 * bound + 1e-9).all()


class TestProtocolModeMonteCarlo:
    """Seeded Monte Carlo of the four frameworks in protocol mode, every
    one of which privatises items as OUE bit-vector reports at this shape
    (PTS and PTS-CP summed per perturbed label, PTJ over the joint
    domain, HEC per group).

    Each trial privatises the same fixed population afresh.  Across the
    trials every cell's mean estimate must sit within four standard
    errors of the true count (unbiasedness; for HEC, of the true count
    plus its Theorem-4 deniability term), and its empirical variance
    must agree with the framework's closed form evaluated at the truth:
    under ``pts_variance_matrix`` / ``cp_variance_matrix`` /
    ``hec_variance_matrix``, and within a factor of
    ``ldp_variance_matrix``, which is exact for PTJ.  The truth, the
    budget split and the perturbation probabilities are computed here
    from the population and ε alone, never read back from a session.
    """

    TRIALS = 200
    N_CLASSES, N_ITEMS, N_USERS = 3, 16, 5_000
    EPSILON = 1.0
    #: Fixed before the first run.  With 199 degrees of freedom the
    #: sample variance of a cell whose true variance equals the bound
    #: exceeds 1.5x it with probability about 1e-7, so across 96 cells a
    #: failure means the estimator is noisier than the theorem allows.
    VARIANCE_TOLERANCE = 1.5

    def _population(self):
        c, d, n = self.N_CLASSES, self.N_ITEMS, self.N_USERS
        rng = np.random.default_rng(2025)
        # Zipf-like items within unequal classes; some cells stay empty.
        weights = np.outer([0.5, 0.3, 0.2], 1.0 / np.arange(1, d + 1) ** 1.5)
        weights[2, -4:] = 0.0
        cells = rng.choice(c * d, size=n, p=(weights / weights.sum()).ravel())
        labels, items = np.divmod(cells, d)
        truth = np.bincount(cells, minlength=c * d).reshape(c, d)
        return labels, items, truth.astype(np.float64)

    def _probabilities(self):
        """GRR over the classes with ε₁ = ε/2, OUE (p₂ = ½) with ε₂ = ε/2."""
        e1 = e2 = np.exp(self.EPSILON / 2)
        c = self.N_CLASSES
        return e1 / (e1 + c - 1), 1.0 / (e1 + c - 1), 0.5, 1.0 / (e2 + 1)

    def _estimates(self, framework, labels, items):
        from repro.stream import make_session

        seeds = np.random.SeedSequence([7, self.TRIALS]).spawn(self.TRIALS)
        estimates = np.empty((self.TRIALS, self.N_CLASSES, self.N_ITEMS))
        for trial, seed in enumerate(seeds):
            session = make_session(
                framework, epsilon=self.EPSILON, n_classes=self.N_CLASSES,
                n_items=self.N_ITEMS, mode="protocol",
                rng=np.random.default_rng(seed),
            )
            session.ingest_batch(labels, items)
            estimates[trial] = session.estimate()
        return estimates

    @pytest.mark.parametrize("framework", ["pts", "pts-cp"])
    def test_unbiased_and_within_variance_bound(self, framework):
        from repro.core.variance import cp_variance_matrix, pts_variance_matrix

        labels, items, truth = self._population()
        estimates = self._estimates(framework, labels, items)

        mean = estimates.mean(axis=0)
        variance = estimates.var(axis=0, ddof=1)
        standard_error = np.sqrt(variance / self.TRIALS)
        assert (np.abs(mean - truth) <= 4.0 * standard_error).all()

        closed_form = {"pts": pts_variance_matrix, "pts-cp": cp_variance_matrix}
        bound = closed_form[framework](
            truth, truth.sum(axis=1), float(self.N_USERS),
            *self._probabilities(),
        )
        assert (bound > 0).all()
        assert (variance <= self.VARIANCE_TOLERANCE * bound).all()

    def _oue(self, domain_size):
        """OUE's ``(p, q)`` over the whole budget; both PTJ's joint domain
        and HEC's item domain are past GRR's ``d < 3e^ε + 2`` range."""
        assert domain_size >= 3.0 * np.exp(self.EPSILON) + 2.0
        return 0.5, 1.0 / (np.exp(self.EPSILON) + 1.0)

    def test_ptj_unbiased_and_matches_exact_variance(self):
        from repro.core.variance import ldp_variance_matrix

        labels, items, truth = self._population()
        estimates = self._estimates("ptj", labels, items)

        mean = estimates.mean(axis=0)
        variance = estimates.var(axis=0, ddof=1)
        standard_error = np.sqrt(variance / self.TRIALS)
        assert (np.abs(mean - truth) <= 4.0 * standard_error).all()

        exact = ldp_variance_matrix(
            truth, float(self.N_USERS), *self._oue(self.N_CLASSES * self.N_ITEMS)
        )
        assert (exact > 0).all()
        # Two-sided: the closed form is the exact variance of PTJ's
        # calibrated count, so the same 1.5 factor bounds it from below.
        assert (variance <= self.VARIANCE_TOLERANCE * exact).all()
        assert (variance >= exact / self.VARIANCE_TOLERANCE).all()

    def test_hec_unbiased_up_to_deniability_and_within_variance_bound(self):
        from repro.core.variance import hec_variance_matrix

        labels, items, truth = self._population()
        estimates = self._estimates("hec", labels, items)

        # Theorem 4: every user of another class reports a uniformly
        # random item, adding (N - n_C) / d to each cell of class C.
        class_sizes = truth.sum(axis=1)
        expected = truth + ((self.N_USERS - class_sizes) / self.N_ITEMS)[:, None]
        mean = estimates.mean(axis=0)
        variance = estimates.var(axis=0, ddof=1)
        standard_error = np.sqrt(variance / self.TRIALS)
        assert (np.abs(mean - expected) <= 4.0 * standard_error).all()

        # Groups are drawn iid per user, so their expected size is N / c.
        group_sizes = np.full(self.N_CLASSES, self.N_USERS / self.N_CLASSES)
        bound = hec_variance_matrix(
            expected, group_sizes, float(self.N_USERS), *self._oue(self.N_ITEMS)
        )
        assert (bound > 0).all()
        assert (variance <= self.VARIANCE_TOLERANCE * bound).all()
