"""Closed forms of the phasor network's loss and derivatives, tests only.

backward() forms none of them: it pulls each cotangent through z -> z/|z| as
a tangent projection and differentiates 0.5 ||y - yhat||^2 in the complex
domain. The per-unit real 2x2 Jacobian, the phase-form loss and its gradient
here are the closed forms the tests check that against.
"""

import numpy as np

from phasornet.errors import ValidationError


def activation_jacobian(z):
    """Real 2x2 Jacobian [[du/da, du/db], [dv/da, dv/db]] of z -> z/|z|.

    Singular at z = 0; callers must route |z| <= Theta units to zero gradient.
    """
    a, b = float(np.real(z)), float(np.imag(z))
    r = np.hypot(a, b)
    if r == 0.0:
        raise ValidationError("activation Jacobian is singular at z = 0")
    r3 = r ** 3
    return np.array([[b * b / r3, -a * b / r3], [-a * b / r3, a * a / r3]])


def loss_cosine(output_phases, target_phases):
    """L = N_y - sum_i cos(theta_i - thetahat_i), the phase form of loss_mse
    when every output is active."""
    d = np.asarray(target_phases, dtype=np.float64) - np.asarray(output_phases, dtype=np.float64)
    return d.shape[-1] - np.cos(d).sum(axis=-1)


def loss_phase_gradient(theta, theta_hat):
    """sin(theta - thetahat), which is -dL/dthetahat for loss_cosine's
    L = N_y - sum cos(theta - thetahat): the descent direction of thetahat."""
    return np.sin(np.asarray(theta, dtype=np.float64) - np.asarray(theta_hat, dtype=np.float64))
