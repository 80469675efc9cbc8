"""SPD 2x2 metric-tensor fields for anisotropic mesh adaptation.

``repro.metric`` is the shared sizing vocabulary of the adaptation loop:
:mod:`tensor` holds the vectorised compact-storage SPD algebra
(closed-form eigen-decomposition, log-Euclidean calculus) and :mod:`field`
the :class:`MetricField` abstraction (Hessian recovery from P1 solutions,
interpolation, metric edge lengths, gradation limiting shared with
:mod:`repro.sizing.limit`).
"""

from . import tensor
from .field import MetricField

__all__ = ["MetricField", "tensor"]
