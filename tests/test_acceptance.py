"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria are numbered 1-9. Tolerances are stated inline next to each
assertion; every criterion reports its outcome through the ``report``
fixture, which writes past pytest's capture so the summary survives into
piped logs.
"""
import math

import numpy as np
import pytest

from signalprop import analysis, backprop, cli
from signalprop.activations import builtin
from signalprop import meanfield as mf
from signalprop import simulator as sim

TANH = builtin("tanh")
LINEAR = builtin("linear")

GRID_SW2 = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
GRID_SB2 = (0.01, 0.05, 0.1, 0.3)


def measured_scales(hp, xi_q_theory, xi_c_theory, fp):
    """Residual-fit depth scales using the protocol behind Fig. 2.

    The variance scale is fit from a fresh start q0 = 0.8; the
    correlation scale is fit with the variance pinned at q* so the
    c-residual is a clean single exponential.
    """
    q_star, _ = mf.solve_q_star(hp, TANH)
    depth_q = int(min(3000, 30 * xi_q_theory + 60))
    q = 0.8
    q_path = [q]
    for _ in range(depth_q):
        q = mf.variance_map(q, hp, TANH)
        q_path.append(q)
    q_res = np.abs(np.array(q_path) - q_star)
    xi_q_meas = analysis.fit_exponential(q_res, floor=1e-10, ceiling=1e-2).xi

    c0 = 0.6 if abs(fp.c_star - 0.6) > 1e-3 else 0.3
    depth_c = int(min(4000, 30 * xi_c_theory + 60))
    traj = mf.iterate_trajectory(hp, TANH, q0_a=q_star, q0_b=q_star, c0=c0,
                                 layers=depth_c)
    _, c_res = analysis.residuals(traj, fp)
    xi_c_meas = analysis.fit_exponential(c_res, floor=1e-10, ceiling=1e-2).xi
    return xi_q_meas, xi_c_meas


class TestCriterion1:
    def test_critical_point_anchor(self, report):
        value = mf.critical_sigma_w(0.0, TANH)
        ok = abs(value - 1.0) <= 1e-6
        report(1, ok, f"critical sigma_w^2 at sigma_b^2=0 is {value} "
                      "(tanh, tol 1e-6)")
        assert ok


class TestCriterion2:
    def test_depth_scale_agreement(self, report):
        worst = 0.0
        checked = 0
        for sb2 in GRID_SB2:
            crit = mf.critical_sigma_w(sb2, TANH)
            for sw2 in GRID_SW2:
                if abs(sw2 - crit) < 0.1:
                    continue
                hp = mf.HyperParams(sw2, sb2)
                fp = mf.fixed_point(hp, TANH)
                scales = mf.depth_scales(hp, TANH, fp=fp)
                xi_q_meas, xi_c_meas = measured_scales(
                    hp, scales.xi_q, scales.xi_c, fp)
                err_q = abs(xi_q_meas - scales.xi_q) / scales.xi_q
                err_c = abs(xi_c_meas - scales.xi_c) / scales.xi_c
                worst = max(worst, err_q, err_c)
                checked += 1
        ok = worst <= 0.02
        report(2, ok, f"residual-fit xi_q/xi_c vs theory over {checked} "
                      f"grid points, worst relative error {worst:.4f} "
                      "(tol 2%)")
        assert ok


class TestCriterion3:
    def test_xi_c_diverges_at_criticality(self, report):
        minimum = math.inf
        for sb2 in (0.01, 0.05, 0.1):
            crit = mf.critical_sigma_w(sb2, TANH)
            for sw2 in (crit - 1e-6, crit + 1e-6):
                hp = mf.HyperParams(sw2, sb2)
                fp = mf.fixed_point(hp, TANH)
                xi = mf.xi_c(hp, TANH, fp.q_star, fp.c_star)
                minimum = min(minimum, xi)
        ok = minimum >= 1e3
        report(3, ok, f"min xi_c within 1e-6 of the critical line is "
                      f"{minimum:.3g} (threshold 1e3)")
        assert ok


class TestCriterion4:
    def test_dropout_destroys_criticality(self, report):
        rhos = (0.99, 0.95, 0.9, 0.8)
        sw2_grid = np.arange(0.1, 3.0 + 1e-9, 0.01)
        maxima = {}
        worst_identity = 0.0
        for rho in rhos:
            best = 0.0
            for sw2 in sw2_grid:
                hp = mf.HyperParams(float(sw2), 0.05, rho=rho)
                fp = mf.fixed_point(hp, TANH)
                xi = mf.xi_c(hp, TANH, fp.q_star, fp.c_star)
                assert math.isfinite(xi), (rho, sw2, xi)
                best = max(best, xi)
                # c = 1 image of the correlation map vs the closed form
                # 1 - (1 - rho) sigma_w^2 E[phi^2] / (rho q*).
                image = mf.correlation_map(1.0, fp.q_star, fp.q_star, hp, TANH)
                second_moment = (mf.variance_map(fp.q_star, hp, TANH)
                                 - hp.sigma_b_sq) * hp.rho / hp.sigma_w_sq
                closed = 1.0 - ((1.0 - rho) * hp.sigma_w_sq * second_moment
                                / (rho * fp.q_star))
                worst_identity = max(worst_identity, abs(image - closed))
            maxima[rho] = best
        monotone = all(maxima[a] > maxima[b]
                       for a, b in zip(rhos, rhos[1:]))
        ok = monotone and worst_identity <= 1e-10
        report(4, ok, "max xi_c finite for all rho, maxima "
                      + ", ".join(f"rho={r}: {maxima[r]:.1f}" for r in rhos)
                      + f"; monotone in 1-rho: {monotone}; dropout identity "
                        f"max deviation {worst_identity:.2e} (tol 1e-10)")
        assert ok


class TestCriterion5:
    @pytest.mark.parametrize("sw2,sb2,rho", [
        (0.5, 0.1, 1.0), (0.5, 0.1, 0.8), (0.7, 0.2, 0.9),
    ])
    def test_linear_closed_forms(self, report, sw2, sb2, rho):
        hp = mf.HyperParams(sw2, sb2, rho=rho)
        eff = sw2 / rho
        fp = mf.fixed_point(hp, LINEAR)
        q_exact = sb2 / (1.0 - eff)
        c_exact = sb2 / (q_exact * (1.0 - sw2))
        chi = mf.chi1(hp, LINEAR, fp.q_star)
        scales = mf.depth_scales(hp, LINEAR, fp=fp)
        factor = backprop.grad_covariance_factor(hp, LINEAR, fp.q_star,
                                                 fp.c_star)
        checks = {
            "q*": (fp.q_star, q_exact),
            "c*": (fp.c_star, c_exact),
            "chi1": (chi, eff),
            "xi_q": (scales.xi_q, -1.0 / math.log(eff)),
            "xi_c": (scales.xi_c, -1.0 / math.log(sw2)),
            "xi_grad": (scales.xi_grad, -1.0 / math.log(eff)),
            "grad factor": (factor, sw2),
        }
        worst = max(abs(got - want) for got, want in checks.values())
        ok = worst <= 1e-10
        report(5, ok, f"linear closed forms at (sw2={sw2}, sb2={sb2}, "
                      f"rho={rho}), max abs deviation {worst:.2e} (tol 1e-10)")
        assert ok, checks


class TestCriterion6:
    def test_monte_carlo_forward_agreement(self, report):
        hp = mf.HyperParams(1.7, 0.05)
        cfg = sim.NetworkConfig(depth=60, width=1000, hp=hp,
                                activation=TANH, seed=2024)
        x_a, x_b = sim.prepare_inputs(cfg, 0.8, 0.8, 0.6)
        emp = sim.forward_pair(cfg, x_a, x_b, 200)
        traj = mf.iterate_trajectory(hp, TANH, q0_a=0.8, q0_b=0.8, c0=0.6,
                                     layers=60)
        worst_sigma = 0.0
        for l in range(60):
            worst_sigma = max(
                worst_sigma,
                abs(emp.q_aa_hat[l] - traj.q_aa[l]) / emp.q_aa_stderr[l],
                abs(emp.c_ab_hat[l] - traj.c_ab[l]) / emp.c_ab_stderr[l],
            )
        ok = worst_sigma <= 5.0
        report(6, ok, f"N=1000, 200 nets, L=60: worst |empirical - theory| "
                      f"is {worst_sigma:.2f} standard errors (tol 5)")
        assert ok


class TestCriterion7:
    def test_gradient_depth_scale(self, report):
        failures = []
        details = []
        for sw2 in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            hp = mf.HyperParams(sw2, 0.05)
            fp = mf.fixed_point(hp, TANH)
            chi = mf.chi1(hp, TANH, fp.q_star)
            xi_theory = -1.0 / math.log(chi)
            cfg = sim.NetworkConfig(depth=240, width=300, hp=hp,
                                    activation=TANH, seed=77)
            x, _ = sim.prepare_inputs(cfg, fp.q_star, fp.q_star, 0.6)
            target = np.eye(10)[0]
            norms = sim.backward_gradients(cfg, x, target, 50)
            mean_norm = np.exp(norms.log_norm_sq).mean(axis=0)
            layers = np.arange(15, 225)
            slope = np.polyfit(layers, np.log(mean_norm[15:225]), 1)[0]
            xi_meas = 1.0 / slope
            if abs(xi_theory) < 50:
                rel = abs(xi_meas - xi_theory) / abs(xi_theory)
                if rel > 0.10:
                    failures.append((sw2, xi_theory, xi_meas, rel))
                details.append(f"sw2={sw2}: {rel * 100:.1f}%")
            else:
                if math.copysign(1, xi_meas) != math.copysign(1, xi_theory):
                    failures.append((sw2, xi_theory, xi_meas, "sign"))
                details.append(f"sw2={sw2}: sign ok")
        ok = not failures
        report(7, ok, "fitted |xi_grad| vs -1/log(chi1), L=240, N=300, "
                      "50 nets: " + "; ".join(details)
                      + " (tol 10% where |xi|<50)")
        assert ok, failures


class TestCriterion8:
    def test_duality_theory(self, report):
        worst = 0.0
        for sb2 in GRID_SB2:
            for sw2 in GRID_SW2:
                hp = mf.HyperParams(sw2, sb2)
                fp = mf.fixed_point(hp, TANH)
                factor = backprop.grad_covariance_factor(hp, TANH, fp.q_star,
                                                         fp.c_star)
                xi = mf.xi_c(hp, TANH, fp.q_star, fp.c_star)
                worst = max(worst, abs(factor - math.exp(-1.0 / xi)))
        ok_theory = worst <= 1e-10
        report(8, ok_theory, f"covariance factor vs e^(-1/xi_c) over the "
                             f"criterion-2 grid, max deviation {worst:.2e} "
                             "(tol 1e-10); empirical slope tested separately")
        assert ok_theory

    def test_duality_empirical_linear(self, report):
        hp = mf.HyperParams(0.5, 0.1)
        fp = mf.fixed_point(hp, LINEAR)
        cfg = sim.NetworkConfig(depth=40, width=300, hp=hp,
                                activation=LINEAR, seed=4)
        x_a, x_b = sim.prepare_inputs(cfg, fp.q_star, fp.q_star, 0.6)
        target = np.eye(10)[0]
        cov = sim.backward_covariance(cfg, x_a, x_b, (target, target), 100)
        # Fit far enough in for the forward correlation to have converged
        # (xi_c = -1/log 0.5, so layer 24 is deep in the fixed point).
        layers = np.arange(24, 40)
        values = cov.mean_dot[24:40]
        assert np.all(values > 0)
        slope = np.polyfit(layers, np.log(values), 1)[0]
        # log(dot) grows toward the output at rate -log(0.5) per layer,
        # i.e. slope vs depth-from-output is log(0.5).
        measured = -slope
        ok = abs(measured - math.log(0.5)) <= 0.10 * abs(math.log(0.5))
        report(8, ok, f"linear grad-covariance slope {measured:.4f} vs "
                      f"log 0.5 = {math.log(0.5):.4f} (tol 10%)")
        assert ok


class TestCriterion9:
    def test_trainable_depth_order_of_magnitude(self, report, tmp_path):
        out = tmp_path / "trainable.csv"
        status = cli.main([
            "trainable-depth", "--sigma-w-sq", "0.5:3.0:51",
            "--sigma-b-sq", "0.05", "--rho", "0.99",
            "--out", str(out),
        ])
        assert status == 0
        import csv as _csv
        with open(out) as handle:
            rows = list(_csv.DictReader(handle))
        best = max(float(r["max_trainable_depth"]) for r in rows)
        # Order-of-magnitude check against a bound of about 100 layers.
        ok = 30.0 <= best <= 1000.0
        report(9, ok, f"max 6*xi_c at rho=0.99, sigma_b^2=0.05 is "
                      f"{best:.1f} layers (expected order 10^2)")
        assert ok
