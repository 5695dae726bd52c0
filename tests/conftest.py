"""Shared fixtures and helpers for the test suite."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from cowlib import CowSet, Interval, make_density

# property tests draw the same examples on every run and have no time limit
settings.register_profile("cowlib", derandomize=True, deadline=None)
settings.load_profile("cowlib")

# Any JSON value.  Numbers stay in [-2, 300] (or are nan/inf), so no drawn
# count, order or size can ask for a large allocation, and strings hold no
# "/", so a drawn file name stays in the working directory.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 300) | st.floats(-2, 300)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(st.characters(exclude_characters="/"), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)


@pytest.fixture(scope="session")
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="session")
def box_model(unit_interval):
    """Closed-form two-component model: signal uniform on [0, 1/2] (density 2),
    background uniform on [0, 1].

    With signal fraction 1/2 the mixture is 3/2 on the left half and 1/2 on
    the right, so every W-matrix integral is a sum of two constant pieces:

        W_ss = (4 / (3/2)) * 1/2               = 4/3
        W_sb = (2 / (3/2)) * 1/2               = 2/3
        W_bb = (1 / (3/2)) * 1/2 + (1/(1/2))*1/2 = 4/3

    and the signal weight function is +1 on [0, 1/2), -1 on (1/2, 1].
    """
    gs = make_density("uniform", [0.0, 0.5], unit_interval)
    gb = make_density("uniform", [0.0, 1.0], unit_interval)
    return gs, gb


BOX_W = np.array([[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]])


@pytest.fixture(scope="session")
def box_W():
    return BOX_W


def sample_box_mixture(rng, n, z=0.5):
    """Draw n events from the box_model mixture with signal fraction z."""
    is_sig = rng.random(n) < z
    m = rng.random(n)
    m[is_sig] *= 0.5
    return m


def quad(f, iv, *densities):
    """The integral of the vectorized ``f`` over the interval ``iv`` by
    scipy's adaptive QUADPACK rule, split at the breakpoints of
    ``densities`` inside ``iv``: an oracle independent of cowlib's own
    quadrature."""
    # imported here, after cowlib has set one BLAS thread for scipy's BLAS too
    import scipy.integrate
    pts = sorted({p for d in densities for p in d.breakpoints() if iv.lo < p < iv.hi})
    return scipy.integrate.quad(lambda x: float(f(np.array([x]))[0]), iv.lo, iv.hi,
                                points=pts or None, epsabs=1e-12, epsrel=1e-12,
                                limit=500)[0]


def count_integrals(monkeypatch, module):
    """Wrap ``module.integrate``; returns one entry per call, each a list
    that gets one entry per integrand evaluation (the node batch size)."""
    calls = []
    integrate = module.integrate

    def counted(f, *args, **kwargs):
        evals = []
        calls.append(evals)

        def g(x):
            evals.append(len(x))
            return f(x)

        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", counted)
    return calls


def count_pdf_calls(monkeypatch):
    """Wrap ``Density1D.pdf``; returns the list of densities it was called on."""
    from cowlib import Density1D
    calls = []
    pdf = Density1D.pdf

    def counted(self, x):
        calls.append(self)
        return pdf(self, x)

    monkeypatch.setattr(Density1D, "pdf", counted)
    return calls


def with_efficiency(cow, eff):
    """``cow`` with the efficiency map ``eff`` in its spec, and its W, A and B."""
    return CowSet(dataclasses.replace(cow.spec, efficiency=eff), cow.W, cow.A, cow.B)
