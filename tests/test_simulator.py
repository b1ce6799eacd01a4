"""Finite-width Monte Carlo simulator: reproducibility, moments, gradients."""
import math
from collections import Counter

import numpy as np
import pytest

from signalprop.activations import builtin
from signalprop.errors import ConfigurationError, DomainError
from signalprop import meanfield as mf
from signalprop import simulator as sim


def make_config(**overrides):
    defaults = dict(depth=8, width=120, hp=mf.HyperParams(1.7, 0.05),
                    activation="tanh", seed=7)
    defaults.update(overrides)
    return sim.NetworkConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize("kwargs,exc", [
        (dict(depth=0), DomainError),
        (dict(width=0), DomainError),
        (dict(backprop_weights="random"), ConfigurationError),
    ])
    def test_validation(self, kwargs, exc):
        with pytest.raises(exc):
            make_config(**kwargs)


class TestInputs:
    @pytest.mark.parametrize("rho", [1.0, 0.8])
    def test_prepared_moments(self, rho):
        cfg = make_config(hp=mf.HyperParams(1.7, 0.05, rho=rho), width=200)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.6, 0.4)
        hp = cfg.hp
        n = cfg.width
        # E[z^2] = sigma_w_sq ||x||^2 / (rho n) + sigma_b_sq at layer 0
        # (the mask contributes a factor rho / rho^2 on the diagonal).
        q_a = hp.sigma_w_sq * float(x_a @ x_a) / (hp.rho * n) + hp.sigma_b_sq
        q_b = hp.sigma_w_sq * float(x_b @ x_b) / (hp.rho * n) + hp.sigma_b_sq
        assert math.isclose(q_a, 0.8, rel_tol=1e-12)
        assert math.isclose(q_b, 0.6, rel_tol=1e-12)
        cov = hp.sigma_w_sq * float(x_a @ x_b) / n + hp.sigma_b_sq
        assert math.isclose(cov / math.sqrt(0.8 * 0.6), 0.4, rel_tol=1e-12)

    def test_unrealizable_correlation_is_clamped(self):
        # Identical inputs with dropout cannot reach c0 = 1; the overlap
        # saturates instead of raising.
        cfg = make_config(hp=mf.HyperParams(1.7, 0.05, rho=0.8))
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 1.0)
        cos = float(x_a @ x_b) / (np.linalg.norm(x_a) * np.linalg.norm(x_b))
        assert math.isclose(cos, 1.0, abs_tol=1e-12)

    def test_rejects_q0_below_bias_floor(self):
        cfg = make_config()
        with pytest.raises(DomainError):
            sim.prepare_inputs(cfg, 0.01, 0.8, 0.5)


class TestReproducibility:
    def test_same_seed_same_results(self):
        cfg = make_config()
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        one = sim.forward_pair(cfg, x_a, x_b, 5)
        two = sim.forward_pair(cfg, x_a, x_b, 5)
        np.testing.assert_array_equal(one.q_aa_hat, two.q_aa_hat)
        np.testing.assert_array_equal(one.c_ab_hat, two.c_ab_hat)

    def test_different_seed_differs(self):
        cfg_a = make_config(seed=1)
        cfg_b = make_config(seed=2)
        x_a, x_b = sim.prepare_inputs(cfg_a, 0.8, 0.8, 0.6)
        one = sim.forward_pair(cfg_a, x_a, x_b, 5)
        two = sim.forward_pair(cfg_b, x_a, x_b, 5)
        assert not np.array_equal(one.q_aa_hat, two.q_aa_hat)

    def test_backward_modes_differ(self):
        cfg_tied = make_config()
        cfg_ind = make_config(backprop_weights="independent")
        x, _ = sim.prepare_inputs(cfg_tied, 0.8, 0.8, 0.6)
        target = np.eye(10)[0]
        tied = sim.backward_gradients(cfg_tied, x, target, 3)
        ind = sim.backward_gradients(cfg_ind, x, target, 3)
        assert not np.array_equal(tied.mean_log_norm_sq, ind.mean_log_norm_sq)


class TestForwardAgreement:
    def test_moments_track_theory(self):
        hp = mf.HyperParams(1.7, 0.05)
        cfg = make_config(depth=15, width=400, hp=hp, seed=3)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        emp = sim.forward_pair(cfg, x_a, x_b, 40)
        traj = mf.iterate_trajectory(hp, builtin("tanh"), q0_a=0.8, q0_b=0.8,
                                     c0=0.6, layers=15)
        for l in range(15):
            assert abs(emp.q_aa_hat[l] - traj.q_aa[l]) < 6 * emp.q_aa_stderr[l]
            assert abs(emp.c_ab_hat[l] - traj.c_ab[l]) < max(
                6 * emp.c_ab_stderr[l], 0.01)

    def test_linear_network_layer_zero_exact_mean(self):
        # For a linear net the layer-0 second moment is unbiased with a
        # known standard error of sqrt(2/width) q0 per realization.
        hp = mf.HyperParams(0.5, 0.1)
        cfg = make_config(hp=hp, activation="linear", depth=2, width=300)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        emp = sim.forward_pair(cfg, x_a, x_b, 100)
        assert abs(emp.q_aa_hat[0] - 0.8) < 6 * emp.q_aa_stderr[0]


class TestGradients:
    def test_norms_decay_in_ordered_phase(self):
        hp = mf.HyperParams(1.0, 0.05)
        cfg = make_config(hp=hp, depth=30, width=200, seed=11)
        x, _ = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        target = np.eye(10)[0]
        norms = sim.backward_gradients(cfg, x, target, 20)
        assert norms.truncated_at is None
        assert norms.mean_log_norm_sq.shape == (30,)
        # Deeper-from-output layers carry smaller gradients.
        assert norms.mean_log_norm_sq[0] < norms.mean_log_norm_sq[-1]

    def test_gradient_slope_matches_chi1(self):
        hp = mf.HyperParams(2.5, 0.05)
        act = builtin("tanh")
        fp = mf.fixed_point(hp, act)
        cfg = make_config(hp=hp, depth=40, width=300, seed=5)
        x, _ = sim.prepare_inputs(cfg, fp.q_star, fp.q_star, 0.6)
        target = np.eye(10)[0]
        norms = sim.backward_gradients(cfg, x, target, 30)
        layers = np.arange(5, 35)
        slope = np.polyfit(layers, norms.mean_log_norm_sq[5:35], 1)[0]
        chi = mf.chi1(hp, act, fp.q_star)
        assert math.isclose(slope, -math.log(chi), rel_tol=0.15)

    def test_covariance_shares_network(self):
        hp = mf.HyperParams(1.3, 0.05)
        cfg = make_config(hp=hp, depth=10, width=200)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        target = np.eye(10)[0]
        cov = sim.backward_covariance(cfg, x_a, x_a, (target, target), 10)
        norms = sim.backward_gradients(cfg, x_a, target, 10)
        # Identical inputs: the covariance is exactly the squared norm.
        np.testing.assert_allclose(np.log(cov.dot), norms.log_norm_sq,
                                   rtol=1e-12)


class TestKernel:
    @pytest.mark.parametrize("mode", sim.BACKPROP_MODES)
    def test_normals_drawn_per_network(self, monkeypatch, mode):
        # k x N normals per layer and pass instead of an N x N matrix; the
        # C x N readout is the only dense draw.
        drawn = Counter()
        original = sim._normals

        def counted(cfg, network, layer, role, shape):
            drawn[network] += shape[0] * shape[1]
            assert shape[0] <= 10 and shape[1] == cfg.width
            return original(cfg, network, layer, role, shape)

        monkeypatch.setattr(sim, "_normals", counted)
        cfg = make_config(depth=6, width=200, backprop_weights=mode)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        target = np.eye(10)[0]
        sim.backward_covariance(cfg, x_a, x_b, (target, target), 3)
        k, n = 2, cfg.width
        bound = 2 * cfg.depth * n * k + 10 * n
        assert bound < n * n
        assert sorted(drawn) == [0, 1, 2]
        assert all(count <= bound for count in drawn.values())

    def test_backward_pass_reuses_forward_masks(self, monkeypatch):
        # One mask draw per (network, layer), layers 0 to depth (the
        # readout's input included); the backward pass draws none.
        drawn = Counter()
        original = sim._masks

        def counted(cfg, network, layer, k):
            drawn[network, layer] += 1
            return original(cfg, network, layer, k)

        monkeypatch.setattr(sim, "_masks", counted)
        cfg = make_config(hp=mf.HyperParams(1.7, 0.05, 0.9), depth=6, width=50)
        x, _ = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        sim.backward_gradients(cfg, x, np.eye(10)[0], 3)
        assert drawn == Counter({(net, l): 1 for net in range(3) for l in range(7)})

    @pytest.mark.parametrize("rho", [1.0, 0.9])
    @pytest.mark.parametrize("sw2,depth,expected", [
        # (forward_pair, backward_gradients, backward_covariance)
        (1e60, 8, (6, 0, 0)),     # Gram overflow at layer 6: no loss
        (1e100, 8, (4, 0, 0)),    # pre-activations reach inf at layer 7
        (1e12, 40, (26, 0, 0)),
    ])
    def test_overflow_truncation(self, sw2, depth, expected, rho):
        hp = mf.HyperParams(sw2, 0.1, rho)
        cfg = make_config(hp=hp, activation="linear", depth=depth, width=50, seed=1)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        target = np.eye(10)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            emp = sim.forward_pair(cfg, x_a, x_b, 3)
            norms = sim.backward_gradients(cfg, x_a, target, 3)
            cov = sim.backward_covariance(cfg, x_a, x_b, (target, target), 3)
        assert (emp.truncated_at, norms.truncated_at, cov.truncated_at) == expected
        assert len(emp.q_aa_hat) == expected[0]
        assert norms.log_norm_sq.shape == (3, 0) and cov.dot.shape == (3, 0)
        assert np.all(np.isfinite(emp.q_aa_hat)) and np.all(np.isfinite(emp.c_ab_hat))

    def test_each_input_of_a_pair_runs_as_if_alone(self):
        # Sharing a network changes no bit of either input's forward
        # arithmetic. Backward, independent mode draws each input's fresh
        # term from the same normals; tied mode samples the weights given
        # both forward products, so a pair differs from a run alone in
        # realization (not in distribution).
        for mode in sim.BACKPROP_MODES:
            cfg = make_config(hp=mf.HyperParams(2.5, 0.05, 0.9), depth=12, width=60,
                              backprop_weights=mode)
            x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
            target = np.eye(10)[0]
            pair = sim._propagate(cfg, np.stack([x_a, x_b]), 2, np.stack([target, target]))
            alone = sim._propagate(cfg, np.stack([x_a]), 2, np.stack([target]))
            assert all(np.all(np.isfinite(single)) for single in alone)
            np.testing.assert_array_equal(pair[0][:, :, :1, :1], alone[0])
            if mode == "independent":
                np.testing.assert_array_equal(pair[1][:, :, :1, :1], alone[1])

    def test_identical_inputs_stay_identical(self):
        # c0 = 1 without dropout gives x_b == x_a, a rank-one input block:
        # both rows must stay bit-identical through every layer.
        cfg = make_config(depth=10, width=80)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 1.0)
        assert np.array_equal(x_a, x_b)
        emp = sim.forward_pair(cfg, x_a, x_b, 4)
        assert emp.truncated_at is None
        assert np.all(emp.c_ab_hat == 1.0)
        assert np.all(emp.c_ab_stderr == 0.0)

    def test_fully_masked_inputs(self):
        # At width 1 dropout masks whole input rows; a zero row has zero
        # weight gradients and leaves the other row's draw well defined.
        cfg = make_config(hp=mf.HyperParams(1.7, 0.05, 0.5), depth=6, width=1)
        x_a, x_b = np.array([0.9]), np.array([-0.4])
        targets = np.stack([np.eye(10)[0], np.eye(10)[3]])
        gram, grad = sim._propagate(cfg, np.stack([x_a, x_b]), 40, targets)
        assert np.all(np.isfinite(gram)) and np.all(np.isfinite(grad))
        assert np.any(grad[:, :, 0, 0] == 0) and np.any(grad[:, :, 1, 1] == 0)
        assert np.all(grad[:, :, 0, 0] >= 0) and np.all(grad[:, :, 1, 1] >= 0)


def dense_propagate(cfg, inputs, n_networks, targets, rng):
    """Reference for ``sim._propagate``: every weight matrix drawn in full.

    The backward pass reuses the forward matrices (tied) or draws fresh
    ones (independent). One plain generator serves every draw; O(N^2)
    normals per layer, so only for small widths.
    """
    act = cfg.resolve_activation()
    depth, rho, k, n = cfg.depth, cfg.hp.rho, len(inputs), cfg.width
    hp, n_classes = cfg.hp, targets.shape[1]

    def weights(rows=n):
        return math.sqrt(hp.sigma_w_sq / n) * rng.standard_normal((rows, n))

    def biases(size=n):
        return math.sqrt(hp.sigma_b_sq) * rng.standard_normal(size)

    gram = np.empty((n_networks, depth, k, k))
    grad = np.empty_like(gram)
    for net in range(n_networks):
        keep = [(rng.random((k, n)) < rho) / rho for _ in range(depth + 1)]
        fs, ws, zs = [keep[0] * inputs], [], []
        for l in range(depth):
            ws.append(weights())
            zs.append(fs[l] @ ws[l].T + biases())
            gram[net, l] = zs[l] @ zs[l].T / n
            fs.append(keep[l + 1] * act.phi(zs[l]))
        w_up = weights(n_classes)
        logits = fs[depth] @ w_up.T + biases(n_classes)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        delta = p / p.sum(axis=1, keepdims=True) - targets
        tied = cfg.backprop_weights == "tied"
        back = w_up if tied else weights(n_classes)
        for l in range(depth - 1, -1, -1):
            delta = act.d_phi(zs[l]) * (delta @ back) * keep[l + 1]
            grad[net, l] = (delta @ delta.T) * (fs[l] @ fs[l].T)
            back = ws[l] if tied else weights()
    return gram, grad


class TestDenseReference:
    @pytest.mark.parametrize("rho", [1.0, 0.7])
    @pytest.mark.parametrize("mode", sim.BACKPROP_MODES)
    def test_conditioned_sampler_matches_dense(self, mode, rho):
        # Exact in distribution at any width: at N = 4 every per-layer mean
        # of a Gram entry and of a gradient dot product agrees with the
        # dense sampler's within 5 standard errors. A linear net with a
        # large sigma_w^2 ties its softmax to the weights strongly enough
        # that sampling tied backward weights as independent ones misses
        # by 7 to 9 standard errors at rho = 1.
        cfg = make_config(hp=mf.HyperParams(3.0, 0.1, rho), activation="linear",
                          depth=3, width=4, backprop_weights=mode, seed=21)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.3)
        inputs = np.stack([x_a, x_b])
        targets = np.stack([np.eye(10)[0], np.eye(10)[4]])
        n_networks = 3000
        fast = sim._propagate(cfg, inputs, n_networks, targets)
        dense = dense_propagate(cfg, inputs, n_networks, targets,
                                np.random.default_rng(22))
        for ours, ref in zip(fast, dense):
            (m1, s1), (m2, s2) = sim._mean_stderr(ours), sim._mean_stderr(ref)
            assert np.all(np.abs(m1 - m2) <= 5 * np.hypot(s1, s2))


class TestInputFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vectors.f32"
        data = np.arange(24, dtype="<f4").reshape(2, 12)
        data.tofile(path)
        loaded = sim.load_input_vectors(path, 12)
        np.testing.assert_allclose(loaded, data.astype(float))

    def test_bad_length(self, tmp_path):
        path = tmp_path / "vectors.f32"
        np.arange(10, dtype="<f4").tofile(path)
        with pytest.raises(ConfigurationError):
            sim.load_input_vectors(path, 12)
