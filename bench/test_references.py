"""Each benchmark reference against a brute-force evaluation on a cheap case."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

import references

# quadpack warns when roundoff caps its own error estimate; the asserts decide
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def _shooting_lambda_star(n):
    """max over rho of rho^2 e^(w(rho)), where w'' + (n-1)/r w' + e^w = 0, w(0) = 0.

    u(x) = w(rho |x|) - w(rho) solves -Laplace(u) = lambda e^u on the unit
    ball with lambda = rho^2 e^(w(rho)); the fold of this family is lambda*.
    """
    r0 = 1e-6
    # series start w = -r^2 / (2n) avoids the 1/r term at the axis
    sol = integrate.solve_ivp(
        lambda r, z: [z[1], -(n - 1.0) / r * z[1] - math.exp(z[0])],
        (r0, 20.0), [-r0 ** 2 / (2 * n), -r0 / n],
        rtol=1e-12, atol=1e-14, dense_output=True,
    )
    lam = lambda rho: rho ** 2 * math.exp(sol.sol(rho)[0])
    grid = np.linspace(0.1, 20.0, 400)
    i = int(np.argmax([lam(r) for r in grid]))
    res = optimize.minimize_scalar(
        lambda r: -lam(r), bounds=(grid[i - 1], grid[i + 1]), method="bounded",
        options={"xatol": 1e-10},
    )
    return -res.fun


@pytest.mark.parametrize("n", [2, 3])
def test_classical_lambda_star(n):
    value, half_width = references.LAMBDA_STAR_CLASSICAL[n]
    assert abs(_shooting_lambda_star(n) - value) <= half_width + 1e-6


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_flux_constant_is_profile_energy(s):
    # g(y) = 2^(1-s)/Gamma(s) y^s K_s(y) has g(0) = 1 and solves
    # (y^(1-2s) g')' = y^(1-2s) g, so its weighted energy equals the flux.
    c = 2.0 ** (1.0 - s) / math.gamma(s)
    g = lambda y: c * y ** s * special.kv(s, y)
    dg = lambda y: -c * y ** s * special.kv(1.0 - s, y)
    energy = sum(
        integrate.quad(lambda y: y ** (1 - 2 * s) * (dg(y) ** 2 + g(y) ** 2), a, b,
                       epsabs=0.0, epsrel=1e-11, limit=200)[0]
        for a, b in ((0.0, 1.0), (1.0, np.inf))
    )
    assert references.flux_constant(s) == pytest.approx(energy, rel=1e-8)
    assert references.flux_constant(0.5) == 1.0


@pytest.mark.parametrize("n,s", [(3, 0.5), (5, 0.3), (10, 0.75)])
def test_poisson_constant_normalizes_the_kernel(n, s):
    # C y^(2-2s) / (|x|^2 + y^2)^((n+2-2s)/2) has unit mass over R^n (take y = 1)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    mass = area * integrate.quad(
        lambda r: r ** (n - 1) / (r * r + 1.0) ** ((n + 2 - 2 * s) / 2.0), 0.0, np.inf,
        epsabs=0.0, epsrel=1e-12,
    )[0]
    assert references.poisson_constant(n, s) * mass == pytest.approx(1.0, rel=1e-9)


def test_riesz_phi1_origin():
    phi1 = lambda r: math.sin(math.pi * r) / (math.sqrt(2 * math.pi) * r)
    direct = 4.0 * math.pi * integrate.quad(
        lambda r: r * r * phi1(r) / r ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-13
    )[0]
    assert references.riesz_phi1_n3(0.0) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("x", [0.3, 0.7])
def test_riesz_phi1_off_axis(x):
    # the volume integral in (rho, theta) without the closed-form angular part
    phi1 = lambda r: math.sin(math.pi * r) / (math.sqrt(2 * math.pi) * r)

    def shell(rho):
        return integrate.quad(
            lambda t: math.sin(t) / (x * x + rho * rho - 2 * x * rho * math.cos(t)),
            0.0, math.pi, epsabs=0.0, epsrel=1e-11, limit=200,
        )[0]

    direct = 2.0 * math.pi * sum(
        integrate.quad(lambda r: r * r * phi1(r) * shell(r), a, b,
                       epsabs=0.0, epsrel=1e-9, limit=200)[0]
        for a, b in ((0.0, x), (x, 1.0))
    )
    assert references.riesz_phi1_n3(x) == pytest.approx(direct, rel=1e-7)


@pytest.mark.parametrize("n,s,a,b", [(3, 0.5, 2.0, 1.5), (5, 0.3, 1.3, 1.1), (10, 0.75, 3.0, 0.5)])
def test_angular_integral(n, s, a, b):
    p = (n + 2.0 - 2.0 * s) / 2.0
    direct = integrate.quad(
        lambda t: math.sin(t) ** (n - 2) * (a - b * math.cos(t)) ** (-p),
        0.0, math.pi, epsabs=0.0, epsrel=1e-12,
    )[0]
    assert references.angular_integral(n, s, a, b) == pytest.approx(direct, rel=1e-10)


def test_a_constant_cartesian():
    # n = 3, s = 1/2: the angular integral is 2 / (a^2 - b^2); integrate the
    # (r, y) plane on a Cartesian product rule instead of the polar one.
    n, s, beta = 3, 0.5, 1.5

    def integrand(y, r):
        a, b = 1.0 + r * r + y * y, 2.0 * r
        return (y ** (3 - 2 * s) * r ** (n - 1) * (r * r + y * y) ** (-(beta + 2) / 2)
                * 2.0 / (a * a - b * b))

    total = 0.0
    for r0, r1 in ((0.0, 1.0), (1.0, 2.0), (2.0, np.inf)):
        for y0, y1 in ((0.0, 1.0), (1.0, np.inf)):
            total += integrate.dblquad(integrand, r0, r1, y0, y1,
                                       epsabs=0.0, epsrel=1e-8)[0]
    assert references.a_constant(n, s, beta) == pytest.approx(2 * math.pi * total,
                                                              rel=1e-5)
