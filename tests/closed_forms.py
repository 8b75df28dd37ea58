"""Closed-form spectra that more than one test file checks against."""

import math

import numpy as np

from kaleidobilliards.geometry import geometry_from_inward_normals


def birectangular_geometry(alpha):
    """The spherical triangle with angles (alpha, pi/2, pi/2); its area is alpha."""
    inward = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [math.sin(alpha), -math.cos(alpha), 0.0]])
    return geometry_from_inward_normals(inward)


def birectangular_levels(alpha, count):
    """Lowest levels of the spherical triangle with angles (alpha, pi/2, pi/2).

    u = sin(mu phi) P_nu^(-mu)(cos theta) with mu = j pi/alpha vanishes on the
    equator when nu - mu is odd, so the levels are nu (nu + 1) with
    nu = j pi/alpha + 2 m + 1, j >= 1, m >= 0.
    """
    nu = np.add.outer(np.arange(1, count + 1) * math.pi / alpha, 2.0 * np.arange(count) + 1.0)
    return np.sort((nu * (nu + 1.0)).ravel())[:count]
