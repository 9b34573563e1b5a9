"""Parameter sets, models and moments shared by the test modules."""

import math

from opodimer.linearized import build_linear_model
from opodimer.model import SystemParams, steady_state
from opodimer.spectrum import output_moment, spectral_matrix


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


def model_for(p):
    steady_state(p)  # raises AboveThresholdError at or above threshold
    return build_linear_model(p)


def numeric_moments(p, omega, theta=0.0):
    S = spectral_matrix(model_for(p), omega)
    qx = [(1, theta, 1.0)]
    qy = [(1, theta + math.pi / 2, 1.0)]
    qx2 = [(2, theta, 1.0)]
    qy2 = [(2, theta + math.pi / 2, 1.0)]
    ga = p.gamma_a
    return {
        "S_X": output_moment(S, qx, qx, ga),
        "S_Y": output_moment(S, qy, qy, ga),
        "V_XY": output_moment(S, qx, qy, ga),
        "V_X1X2": output_moment(S, qx, qx2, ga),
        "V_Y1Y2": output_moment(S, qy, qy2, ga),
    }
