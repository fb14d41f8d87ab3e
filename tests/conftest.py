import pytest

import randzest as rz


@pytest.fixture
def rng():
    return rz.make_rng(20260810)


def make_glm_dataset(seed: int, family: str, interaction: bool, n: int = 200,
                     d: int = 2):
    """Synthetic experiment whose outcomes follow the named family.

    Returns (dataset, spec).  Coefficients are kept small so all linear
    predictors stay far from the clamp region.
    """
    gen = rz.make_rng(seed)
    x = gen.standard_normal((n, d))
    if family == "gaussian":
        fam = rz.gaussian_family()
    elif family == "binomial":
        fam = rz.binomial_family()
    elif family == "poisson":
        fam = rz.poisson_family()
    else:
        raise ValueError(family)
    spec = rz.MeanSpec(fam, interaction, d)
    theta = 0.4 * gen.standard_normal(spec.dim)
    mu1 = rz.glm_mean(spec, 1, x, theta)
    mu0 = rz.glm_mean(spec, 0, x, theta)
    if family == "gaussian":
        y1 = mu1 + gen.standard_normal(n)
        y0 = mu0 + gen.standard_normal(n)
    elif family == "binomial":
        y1 = (gen.random(n) < mu1).astype(float)
        y0 = (gen.random(n) < mu0).astype(float)
    else:
        y1 = gen.poisson(mu1).astype(float)
        y0 = gen.poisson(mu0).astype(float)
    pot = rz.PotentialTable(y1, y0, x)
    assignment = rz.draw_assignment(gen, n, n // 2)
    return rz.observe(pot, assignment), spec


def one_treated_dataset(seed: int = 0, n: int = 40):
    """A binary-outcome experiment with one covariate in which only unit 0
    is treated: every fit on it converges, and no arm-wise sandwich exists."""
    gen = rz.make_rng(seed)
    x = gen.standard_normal((n, 1))
    y = (gen.random(n) < 0.5).astype(float)
    return rz.Dataset(rz.Assignment([1] + [0] * (n - 1)), y, x)
