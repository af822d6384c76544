"""Reference values for the benchmark's output checks, computed without fracgelfand.

Each reference is a closed form, a literature value or a scipy quadrature of
a closed-form integrand; `test_references.py` checks each one against a
brute-force evaluation on a cheap case.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# lambda* of -Laplace(u) = lambda e^u on the unit ball of R^n (s = 1), as
# (value, half-width of the digits the source gives): n = 2 is exact
# (Liouville), n = 3 is Joseph & Lundgren (1973).
LAMBDA_STAR_CLASSICAL = {2: (2.0, 0.0), 3: (3.32, 0.005)}


def flux_constant(s):
    """Extension flux constant 2^(1-2s) Gamma(1-s) / Gamma(s)."""
    return 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)


def poisson_constant(n, s):
    """Half-space Poisson-kernel normalization Gamma((n+2-2s)/2) / (pi^(n/2) Gamma(1-s))."""
    return math.gamma((n + 2.0 - 2.0 * s) / 2.0) / (
        math.pi ** (n / 2.0) * math.gamma(1.0 - s)
    )


def riesz_phi1_n3(x):
    """int_{B_1} |phi_1(z)| / |x - z|^2 dz for n = 3, s = 1/2, at |x| = x.

    phi_1(rho) = sin(pi rho) / (sqrt(2 pi) rho) is the first L^2-normalized
    Dirichlet eigenfunction of the unit ball of R^3.  At the origin the
    integral is sqrt(8 pi) Si(pi); elsewhere the angular integral is the
    closed form (1 / (x rho)) log|(x + rho) / (x - rho)|, leaving a radial
    quadrature with a logarithmic singularity at rho = x.
    """
    if x == 0.0:
        return math.sqrt(8.0 * math.pi) * float(special.sici(math.pi)[0])

    def radial(rho):
        return math.sin(math.pi * rho) * math.log(abs((x + rho) / (x - rho)))

    inner = sum(
        integrate.quad(radial, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        for a, b in ((0.0, x), (x, 1.0))
    )
    return math.sqrt(2.0 * math.pi) / x * inner


def angular_integral(n, s, a, b):
    """int_0^pi sin^(n-2)t (a - b cos t)^(-p) dt with p = (n+2-2s)/2, for a > |b|.

    Closed form B(1/2, (n-1)/2) a^(-p) 2F1(p/2, (p+1)/2; n/2; b^2/a^2)
    (Gradshteyn & Ryzhik 3.665; DLMF 15.6).
    """
    p = (n + 2.0 - 2.0 * s) / 2.0
    return (
        special.beta(0.5, (n - 1.0) / 2.0)
        * a ** (-p)
        * special.hyp2f1(p / 2.0, (p + 1.0) / 2.0, n / 2.0, (b / a) ** 2)
    )


def a_constant(n, s, beta, epsrel=1e-7):
    """Weighted kernel constant A(n, s, beta) of the sign condition.

    A = |S^(n-2)| int_0^inf int_0^inf y^(3-2s) r^(n-1) (r^2+y^2)^(-(beta+2)/2)
        T(r, y) dr dy,   T = angular_integral(n, s, 1 + r^2 + y^2, 2r),
    integrated in polar coordinates r = R cos(phi), y = R sin(phi), with the
    radial integral split at R = 1, where the kernel peaks as phi -> 0.
    """
    area = 2.0 * math.pi ** ((n - 1.0) / 2.0) / math.gamma((n - 1.0) / 2.0)

    def radial(R, phi):
        r, y = R * math.cos(phi), R * math.sin(phi)
        T = angular_integral(n, s, 1.0 + R * R, 2.0 * r)
        return y ** (3.0 - 2.0 * s) * r ** (n - 1.0) * R ** (-(beta + 1.0)) * T

    def over_R(phi):
        return sum(
            integrate.quad(radial, a, b, args=(phi,), epsabs=0.0, epsrel=epsrel,
                           limit=200)[0]
            for a, b in ((0.0, 1.0), (1.0, 2.0), (2.0, np.inf))
        )

    total = integrate.quad(over_R, 0.0, math.pi / 2.0, epsabs=0.0, epsrel=epsrel,
                           limit=200)[0]
    return area * total


def lemma_a_margin(n, s, beta):
    """Sign-condition margin 1 - beta * poisson_constant * A(n, s, beta)."""
    return 1.0 - beta * poisson_constant(n, s) * a_constant(n, s, beta)
