"""The shared finite-difference stencils against the hand-written ones they
replaced.  Each reference below is one of the seven former copies, kept as
it was; every result must be equal bit for bit."""

import numpy as np
import pytest

from cowlib import (ConstructionError, Density1D, EvaluationError, Interval,
                    MixtureComponent, MixtureModel, fit_extended_ml,
                    fit_weighted_ml, mlfit, wcov)
from cowlib._numdiff import derivative, numerical_hessian
from cowlib.sweights import compute_W_variant_B, weight_functions
from cowlib.toygen import ToySpec, generate_simple, simple_truth_densities
from cowlib.wcov import QuasiScoreSpec, corrected_covariance_full

T_IV = Interval(0.0, 3.0)
T_DENSITIES = {"normal": Density1D("normal", [1.5, 0.5], T_IV),
               "exponential": Density1D("exponential", [2.0], T_IV)}


# ---------------------------------------------------------------------------
# the former stencils


def ref_numerical_hessian(objective, params, rel_step=1e-5):
    x = np.asarray(params, dtype=float)
    n = len(x)
    steps = rel_step * np.maximum(np.abs(x), 1.0)

    def f(p):
        v = float(objective(p))
        if not np.isfinite(v):
            raise EvaluationError(f"objective non-finite at probe point {p.tolist()}")
        return v

    f0 = f(x)
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return 0.5 * (H + H.T)


def ref_log_derivs1(density, t, theta, rel_step=1e-6):
    p = len(theta)
    out = np.empty((p, len(t)))
    for k in range(p):
        h = rel_step * max(abs(theta[k]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        out[k] = (density.with_params(tp).logpdf(t)
                  - density.with_params(tm).logpdf(t)) / (2 * h)
    return out


def ref_log_derivs2(density, t, theta, rel_step=1e-4):
    p = len(theta)
    steps = rel_step * np.maximum(np.abs(theta), 1.0)
    l0 = density.with_params(theta).logpdf(t)
    out = np.empty((p, p, len(t)))
    for k in range(p):
        ek = np.zeros(p)
        ek[k] = steps[k]
        lp = density.with_params(theta + ek).logpdf(t)
        lm = density.with_params(theta - ek).logpdf(t)
        out[k, k] = (lp - 2 * l0 + lm) / steps[k] ** 2
        for l in range(k + 1, p):
            el = np.zeros(p)
            el[l] = steps[l]
            v = (density.with_params(theta + ek + el).logpdf(t)
                 - density.with_params(theta + ek - el).logpdf(t)
                 - density.with_params(theta - ek + el).logpdf(t)
                 + density.with_params(theta - ek - el).logpdf(t)
                 ) / (4 * steps[k] * steps[l])
            out[k, l] = out[l, k] = v
    return out


def ref_extended_grad(model, data, params):
    """The score of ``fit_extended_ml`` with its shape-parameter loop."""
    n_comp = len(model.components)
    slices, off = [], n_comp
    for c in model.components:
        npar = c.density.n_params if c.free_shape else 0
        slices.append(slice(off, off + npar))
        off += npar
    dens = [c.density.with_params(params[s]) if s.stop > s.start else c.density
            for c, s in zip(model.components, slices)]
    g = np.stack([d.pdf(data) for d in dens])
    f = np.maximum(params[:n_comp] @ g, 1e-300)
    out = np.empty(len(params))
    out[:n_comp] = 1.0 - g @ (1.0 / f)
    for i, s in enumerate(slices):
        d = model.components[i].density
        for off in range(s.start, s.stop):
            h = 1e-6 * max(abs(params[off]), 1.0)
            tp, tm = params[s].copy(), params[s].copy()
            tp[off - s.start] += h
            tm[off - s.start] -= h
            try:
                dgi = (d.with_params(tp).pdf(data) - d.with_params(tm).pdf(data)) / (2 * h)
                out[off] = -np.sum(params[i] * dgi / f)
            except ConstructionError:
                out[off] = 0.0
    return out


def ref_weighted_grad(density, t, w, theta):
    """The score of ``fit_weighted_ml``, a sum over the events of nonzero weight."""
    active = w != 0
    t, w = t[active], w[active]
    out = np.empty(len(theta))
    for j in range(len(theta)):
        h = 1e-6 * max(abs(theta[j]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        try:
            lp = density.with_params(tp).logpdf(t)
            lm = density.with_params(tm).logpdf(t)
        except ConstructionError:
            out[j] = 0.0
            continue
        out[j] = -np.sum(w * ((lp - lm) / (2 * h)))
    return out


def ref_dphi(spec, lam, m):
    ns, nb, gs, gb, _, _ = spec.unpack(lam)
    f = ns * gs.pdf(m) + nb * gb.pdf(m)
    out = np.empty((spec.n_phi, len(m)))
    for k, (comp, idx) in enumerate(spec.phi_free):
        dens = gs if comp == "s" else gb
        h = 1e-6 * max(abs(dens.params[idx]), 1.0)
        pp, pm = dens.params.copy(), dens.params.copy()
        pp[idx] += h
        pm[idx] -= h
        dg = (dens.with_params(pp).pdf(m) - dens.with_params(pm).pdf(m)) / (2 * h)
        out[k] = (ns if comp == "s" else nb) * dg / f
    return out


def ref_full_covariance(spec, lam, m, t):
    """``corrected_covariance_full``'s joint covariance with its Jacobian loop."""
    dim = spec.dim
    scales = np.maximum(np.abs(lam), 1.0)
    iw = 2 + spec.n_phi
    w_scale = float(np.max(np.abs(lam[iw:iw + 3])))
    if w_scale > 0:
        scales[iw:iw + 3] = np.maximum(np.abs(lam[iw:iw + 3]), w_scale)
    J = np.empty((dim, dim))
    for j in range(dim):
        h = 1e-6 * scales[j]
        lp, lm = lam.copy(), lam.copy()
        lp[j] += h
        lm[j] -= h
        J[:, j] = (spec.score(lp, m, t) - spec.score(lm, m, t)) / (2 * h)
    CS = spec.score_covariance(lam, m, t)
    X = np.linalg.solve(J, CS)
    C = np.linalg.solve(J, X.T).T
    return 0.5 * (C + C.T)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def toy():
    return generate_simple(ToySpec(study="simple", n_events=1500, z=0.3, seed=61))


@pytest.fixture
def captured_scores(monkeypatch):
    """The score closures the fits hand to the optimizer."""
    grads = []
    run = mlfit._run_fit

    def capture(nll, grad, *args):
        grads.append(grad)
        return run(nll, grad, *args)

    monkeypatch.setattr(mlfit, "_run_fit", capture)
    return grads


def free_model(n):
    gs, gb, _, _ = simple_truth_densities()
    return MixtureModel([MixtureComponent("s", gs, True), MixtureComponent("b", gb, True)],
                        np.array([0.5 * n, 0.5 * n]))


# ---------------------------------------------------------------------------
# the shared stencils reproduce every former copy


@pytest.mark.parametrize("kind", sorted(T_DENSITIES))
@pytest.mark.parametrize("shift", [1.0, 0.9, 1.3])
def test_log_derivatives(toy, kind, shift):
    d = T_DENSITIES[kind]
    t = toy.data[:, 1]
    theta = d.params * shift
    assert np.array_equal(wcov._log_derivs1(d, t, theta), ref_log_derivs1(d, t, theta))
    w = np.linspace(-0.5, 1.5, len(t))
    assert np.array_equal(wcov._weighted_hessian(d, t, w, theta),
                          np.einsum("i,kli->kl", w, ref_log_derivs2(d, t, theta)))


def test_objective_hessian(toy):
    gs, gb, _, _ = simple_truth_densities()
    s, b = gs.pdf(toy.m), gb.pdf(toy.m)

    def nll(p):
        return float(np.sum(p) - np.sum(np.log(p[0] * s + p[1] * b)))

    for y in ([450.0, 1050.0], [0.3, 2.0], [1e-3, 1499.0]):
        assert np.array_equal(numerical_hessian(nll, y), ref_numerical_hessian(nll, y))


def test_extended_fit_score(toy, captured_scores):
    model = free_model(len(toy.m))
    fit = fit_extended_ml(toy.m, model)
    assert fit.converged
    grad = captured_scores[0]
    x = fit.params
    # the last point puts the signal width within one step of 0, where the
    # lower probe cannot be built and that component of the score is 0
    probes = [x, x * 1.01, np.concatenate([x[:2], [0.45, 5e-7], x[4:]])]
    for p in probes:
        got = grad(p)
        assert np.array_equal(got, ref_extended_grad(model, toy.m, p))
    assert got[3] == 0.0


@pytest.mark.parametrize("kind", sorted(T_DENSITIES))
def test_weighted_fit_score(toy, captured_scores, kind):
    d = T_DENSITIES[kind]
    t = toy.data[:, 1]
    w = np.where(toy.labels == 0, 1.0, 0.0)   # zero weights are masked
    w[::7] = -0.25
    fit = fit_weighted_ml(t, w, d)
    assert fit.converged
    grad = captured_scores[0]
    for theta in (fit.params, fit.params * 1.02):
        assert np.array_equal(grad(theta), ref_weighted_grad(d, t, w, theta))


def test_dphi(toy):
    gs, gb, hs, _ = simple_truth_densities()
    spec = QuasiScoreSpec(gs=gs, gb=gb, hs=hs, phi_free=(("s", 0), ("s", 1), ("b", 0)))
    lam = np.array([450.0, 1050.0, 0.51, 0.079, 1.1, 0.2, 0.1, 0.05, 2.0])
    assert np.array_equal(spec._dphi(lam, toy.m), ref_dphi(spec, lam, toy.m))


@pytest.mark.parametrize("phi_free", [(), (("s", 0), ("s", 1))], ids=["fixed", "free"])
def test_full_sandwich_jacobian(toy, phi_free):
    gs, gb, hs, _ = simple_truth_densities()
    m, t = toy.data[:, 0], toy.data[:, 1]
    free = bool(phi_free)
    mfit = fit_extended_ml(m, MixtureModel(
        [MixtureComponent("s", gs, free), MixtureComponent("b", gb, False)],
        np.array([750.0, 750.0])))
    assert mfit.converged
    gs_hat = mfit.model.components[0].density
    z = float(mfit.params[0] / mfit.params[:2].sum())
    w = weight_functions(compute_W_variant_B([gs_hat, gb], [z, 1 - z], m), [gs_hat, gb]).w_k(0, m)
    tfit = fit_weighted_ml(t, w, hs, bounds=[(0.05, 20.0)])
    assert tfit.converged
    spec = QuasiScoreSpec(gs=gs, gb=gb, hs=hs, phi_free=phi_free)
    lam = spec.lambda_from_fits(m, mfit, tfit)
    corr = corrected_covariance_full(toy.data, spec, lam)
    assert np.array_equal(corr.full, ref_full_covariance(spec, lam, m, t))


# ---------------------------------------------------------------------------
# the shared stencils themselves


def test_derivative_step():
    x = np.array([0.3, 2.5])
    for k, scale, h in ((0, None, 1e-6), (1, None, 1e-6 * 2.5), (1, 7.0, 1e-6 * 7.0)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        assert np.array_equal(derivative(np.exp, x, k, scale),
                              (np.exp(xp) - np.exp(xm)) / (2 * h))


def test_array_hessian_is_the_hessian_of_each_element():
    t = np.array([0.2, 1.0, 2.9])

    def objective(p):
        return p[0] ** 2 * t + np.sin(p[1]) * t ** 2

    p = np.array([1.2, 0.4])
    H = numerical_hessian(objective, p)
    assert H.shape == (2, 2, 3)
    for i, ti in enumerate(t):
        assert np.array_equal(H[..., i],
                              ref_numerical_hessian(lambda q: objective(q)[i], p))


def test_hessian_is_reexported_with_its_one_default():
    # the benchmark's tracer spans cowlib.mlfit.numerical_hessian, and its
    # reference recorder perturbs the step through __defaults__
    import cowlib
    assert mlfit.numerical_hessian is numerical_hessian is cowlib.numerical_hessian
    assert numerical_hessian.__defaults__ == (1e-5,)
