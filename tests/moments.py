"""Trapezoid moments of sampled densities, shared by the tests as an oracle."""

import math

import numpy as np


def trapezoid_mean_std(axis, density):
    """Mean and standard deviation of a sampled 1-d density (trapezoid weights)."""
    axis = np.asarray(axis, float)
    density = np.asarray(density, float)
    norm = np.trapezoid(density, axis)
    if norm <= 0.0:
        raise ValueError("density has zero norm")
    mean = np.trapezoid(axis * density, axis) / norm
    var = np.trapezoid((axis - mean) ** 2 * density, axis) / norm
    return mean, math.sqrt(max(var, 0.0))
