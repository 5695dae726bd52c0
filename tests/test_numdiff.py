"""The closed-form derivatives and the one remaining stencil against the
hand-written finite differences they replaced.  Each reference below is one
of the former copies, kept as it was.  ``numerical_hessian`` must equal its
reference bit for bit; the closed forms (the scores of the fits, the shape
rows and the Jacobian of the joint quasi-score) are held to the accuracy of
the finite difference."""

import numpy as np
import pytest

from cowlib import (ConstructionError, Density1D, EvaluationError, Interval,
                    MixtureComponent, MixtureModel, fit_extended_ml,
                    fit_weighted_ml, mlfit, wcov)
from cowlib.mlfit import numerical_hessian
from cowlib.sweights import compute_W_variant_B, weight_functions
from cowlib.toygen import ToySpec, generate_simple, simple_truth_densities
from cowlib.wcov import QuasiScoreSpec, corrected_covariance_full

T_IV = Interval(0.0, 3.0)
T_DENSITIES = {"normal": Density1D("normal", [1.5, 0.5], T_IV),
               "exponential": Density1D("exponential", [2.0], T_IV)}
MONOMIAL = Density1D("monomial", [2.5], T_IV)
EPS = np.finfo(float).eps


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


def ref_shape_rows(spec, lam, m):
    """The per-event shape rows y_k (dg_k/dphi) / f of the joint quasi-score
    by step-1e-6 central differences of each free component's pdf."""
    model, _, _ = spec.unpack(lam)
    y, dens = model.yields, model.densities()
    f = sum(yk * d.pdf(m) for yk, d in zip(y, dens))
    rows = []
    for k, c in enumerate(model.components):
        if not c.free_shape:
            continue
        for idx in range(dens[k].n_params):
            h = 1e-6 * max(abs(dens[k].params[idx]), 1.0)
            pp, pm = dens[k].params.copy(), dens[k].params.copy()
            pp[idx] += h
            pm[idx] -= h
            dg = (dens[k].with_params(pp).pdf(m) - dens[k].with_params(pm).pdf(m)) / (2 * h)
            rows.append(y[k] * dg / f)
    return np.array(rows)


def ref_jacobian(spec, lam, m, t):
    """The Jacobian of the joint quasi-score by the central differences that
    ``corrected_covariance_full`` took: step 1e-6 times max(|lam_j|, 1), and
    on the W block, which shrinks like 1/N, max(|lam_j|, max |W|)."""
    dim = spec.dim
    scales = np.maximum(np.abs(lam), 1.0)
    iw = spec._w_slice
    w_scale = float(np.max(np.abs(lam[iw])))
    if w_scale > 0:
        scales[iw] = np.maximum(np.abs(lam[iw]), w_scale)
    J = np.empty((dim, dim))
    for j in range(dim):
        h = 1e-6 * scales[j]
        lp, lm = lam.copy(), lam.copy()
        lp[j] += h
        lm[j] -= h
        J[:, j] = (spec.score(lp, m, t) - spec.score(lm, m, t)) / (2 * h)
    return J


def ref_full_covariance(spec, lam, m, t):
    """``corrected_covariance_full``'s joint covariance with the Jacobian
    :func:`ref_jacobian`."""
    J = ref_jacobian(spec, lam, m, t)
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
    """The nll gradients the fits solve: the closures handed to the
    optimizer, and theta -> -score(theta_0) for the closed-form score the
    exponential weighted fit hands to ``brentq``."""
    grads = []
    run, root = mlfit._run_fit, mlfit.brentq

    def capture(nll, grad, *args):
        grads.append(grad)
        return run(nll, grad, *args)

    def capture_root(score, *args, **kwargs):
        grads.append(lambda theta: np.array([-score(theta[0])]))
        return root(score, *args, **kwargs)

    monkeypatch.setattr(mlfit, "_run_fit", capture)
    monkeypatch.setattr(mlfit, "brentq", capture_root)
    return grads


def free_model(n):
    gs, gb, _, _ = simple_truth_densities()
    return MixtureModel([MixtureComponent("s", gs, True), MixtureComponent("b", gb, True)],
                        np.array([0.5 * n, 0.5 * n]))


# ---------------------------------------------------------------------------
# the closed forms and the objective Hessian against the former copies


@pytest.mark.parametrize("kind", sorted(T_DENSITIES) + ["monomial"])
@pytest.mark.parametrize("shift", [1.0, 0.9, 1.3])
def test_log_derivatives(toy, kind, shift):
    d = T_DENSITIES.get(kind, MONOMIAL)
    t = toy.data[:, 1]
    theta = d.params * shift
    w = np.linspace(-0.5, 1.5, len(t))
    d1, ref1 = d.with_params(theta).dlogpdf(t), ref_log_derivs1(d, t, theta)
    H, ref2 = (wcov._weighted_hessian(d, t, w, theta),
               np.einsum("i,kli->kl", w, ref_log_derivs2(d, t, theta)))
    # the closed forms against the stencils: the step-1e-6 first derivative rounds by eps |ln h| / h
    # (measured <= 2.3e-10 (1 + |ln h|)); the step-1e-4 Hessian is off by
    # its truncation, h^2/12 of the fourth derivative (measured <= 1.1e-7
    # relative)
    log_h = np.abs(d.with_params(theta).logpdf(t))
    assert np.all(np.abs(d1 - ref1) <= 1e-9 * (1.0 + log_h))
    assert np.allclose(H, ref2, rtol=1e-6, atol=0)


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
    # reference's lower probe cannot be built and that component is 0
    probes = [x, x * 1.01, np.concatenate([x[:2], [0.45, 5e-7], x[4:]])]
    # the reference's central difference at step 1e-6 rounds by up to
    # eps N / 1e-6 (measured <= 6.3e-8 at N = 1500); the yield components
    # are the same expression
    for p in probes:
        got, ref = grad(p), ref_extended_grad(model, toy.m, p)
        assert np.array_equal(got[:2], ref[:2])
        assert np.all(np.abs(got - ref) <= 2 * EPS * len(toy.m) / 1e-6)
    # the signal density underflows at every event: no signal shape score
    assert got[2] == got[3] == 0.0


def test_extended_fit_score_monomial(toy, captured_scores):
    # a monomial background, to the central difference's rounding as above
    gs, _, _, _ = simple_truth_densities()
    model = MixtureModel([MixtureComponent("s", gs, True),
                          MixtureComponent("b", Density1D("monomial", [1.5], gs.support), True)],
                         np.array([750.0, 750.0]))
    fit_extended_ml(toy.m, model)
    grad = captured_scores[0]
    x = np.array([450.0, 1050.0, 0.5, 0.08, 1.2])
    got, ref = grad(x), ref_extended_grad(model, toy.m, x)
    assert np.array_equal(got[:2], ref[:2])
    assert np.all(np.abs(got - ref) <= 2 * EPS * len(toy.m) / 1e-6)
    # within one step of k = 1 the reference's lower probe cannot be built
    # and gives 0; the closed form agrees with a forward difference, which
    # is off by its truncation (measured 4.6e-7 relative)
    p = np.concatenate([x[:4], [1.0 + 5e-7]])
    got, ref = grad(p), ref_extended_grad(model, toy.m, p)
    assert ref[4] == 0.0
    assert np.all(np.abs(got[:4] - ref[:4]) <= 2 * EPS * len(toy.m) / 1e-6)
    gb = model.components[1].density
    f = p[0] * gs.with_params(p[2:4]).pdf(toy.m) + p[1] * gb.with_params(p[4:]).pdf(toy.m)
    dg = (gb.with_params(p[4:] + 1e-6).pdf(toy.m) - gb.with_params(p[4:]).pdf(toy.m)) / 1e-6
    assert got[4] == pytest.approx(-p[1] * np.sum(dg / f), rel=1e-5)


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
        ref = ref_weighted_grad(d, t, w, theta)
        # the closed forms (S1 - S0 E_lam[t - lo] for the exponential) are
        # not finite differences; the
        # central one at step 1e-6 rounds by ~eps/1e-6 of each |w ln h|, so
        # they agree to 1e-9 of sum|w| W (measured: exponential 3e-12 at the
        # fit point and 3e-13 at 1.02x, where the score is 2.45; normal
        # 7.3e-8 and 2.6e-8)
        tol = 1e-9 * np.sum(np.abs(w)) * d.support.width
        assert np.all(np.abs(grad(theta) - ref) <= tol)


def assert_columns_close(J, ref, bound=1e-8):
    """Each column of ``J`` within ``bound`` of the largest |element| of the
    same column of ``ref``."""
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(scale > 0)
    assert np.all(np.max(np.abs(J - ref), axis=0) <= bound * scale)


THREE_SHAPES = [[0.51, 0.079], [1.1], [0.26, 0.031]]
THREE_LAYOUTS = [(True, False, True), (False, True, True)]


def three_component_spec(free):
    """A signal, background and narrow-peak model with the shapes ``free``
    says, and a lambda off the root of its quasi-score in that layout."""
    gs, gb, hs, _ = simple_truth_densities()
    peak = Density1D("normal", [0.25, 0.03], gs.support)
    model = MixtureModel([MixtureComponent(lab, d, fr) for lab, d, fr
                          in zip("sbp", (gs, gb, peak), free)], np.full(3, 500.0))
    lam = np.concatenate([[450.0, 900.0, 150.0]]
                         + [p for p, fr in zip(THREE_SHAPES, free) if fr]
                         + [[0.3, 0.1, 0.05, 0.2, 0.05, 0.25], [2.0]])
    return QuasiScoreSpec(model, hs), lam


def test_dphi(toy):
    # the shape rows y_k g_k dln g_k/dphi / f in closed form against the
    # step-1e-6 central difference of g, which is off by its truncation,
    # h^2/6 of the third derivative (measured <= 3.1e-8 where |row| <= 20.5,
    # at the narrow third peak); a free third component after a fixed one
    # checks that the rows follow the layout of the m fit's parameters,
    # mlfit._shape_slices
    for free in THREE_LAYOUTS:
        spec, lam = three_component_spec(free)
        n_m = spec._w_slice.start
        got = spec._per_event(lam, toy.m, toy.column("t"))[3:n_m]
        ref = ref_shape_rows(spec, lam, toy.m)
        assert got.shape == ref.shape == (n_m - 3, len(toy.m))
        assert np.all(np.abs(got - ref) <= 1e-7 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("free", THREE_LAYOUTS, ids=["free-fixed-free", "fixed-free-free"])
def test_three_component_jacobian(toy, free):
    # the closed-form Jacobian against the stencil, at a lambda off the
    # root and with a free component after a fixed one; the stencil rounds
    # by ~eps |S| / h (measured <= 7.3e-10 of each column's largest element)
    spec, lam = three_component_spec(free)
    m, t = toy.m, toy.column("t")
    assert_columns_close(spec.jacobian(lam, m, t), ref_jacobian(spec, lam, m, t))


@pytest.mark.parametrize("free", [(False, False), (True, False), (True, True)],
                         ids=["fixed", "free", "both-free"])
def test_full_sandwich_jacobian(toy, free):
    gs, gb, hs, _ = simple_truth_densities()
    m, t = toy.data[:, 0], toy.data[:, 1]
    model = MixtureModel([MixtureComponent("s", gs, free[0]),
                          MixtureComponent("b", gb, free[1])], np.array([750.0, 750.0]))
    mfit = fit_extended_ml(m, model)
    assert mfit.converged
    dens = mfit.model.densities()
    z = mfit.model.fractions
    w = weight_functions(compute_W_variant_B(dens, z, m), dens).w_k(0, m)
    tfit = fit_weighted_ml(t, w, hs, bounds=[(0.05, 20.0)])
    assert tfit.converged
    spec = QuasiScoreSpec(model, hs)
    lam = spec.lambda_from_fits(m, mfit, tfit)
    # the closed-form Jacobian is the stencil's to its rounding (measured
    # <= 3.5e-10 of each column's largest element), and so is the sandwich
    # (measured <= 1.2e-9 of sqrt(C_ii C_jj))
    assert_columns_close(spec.jacobian(lam, m, t), ref_jacobian(spec, lam, m, t))
    corr = corrected_covariance_full(toy.data, spec, lam)
    ref = ref_full_covariance(spec, lam, m, t)
    sd = np.sqrt(np.diag(ref))
    assert np.all(np.abs(corr.full - ref) <= 1e-8 * np.outer(sd, sd))
    # naive is the inverse weighted Hessian at the signal weight of lambda
    H = wcov._weighted_hessian(hs, t, spec.weight_s(m, lam), lam[-1:])
    assert np.array_equal(corr.naive, mlfit._covariance(H))


# ---------------------------------------------------------------------------
# the objective Hessian itself


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
