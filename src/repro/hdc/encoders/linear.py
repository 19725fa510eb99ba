"""Linear random-projection encoder.

A simpler (and for linearly separable data, faster-converging) alternative to
the RBF encoder: project the input with a Gaussian random matrix and apply an
optional pointwise nonlinearity.  Used as an ablation against the paper's RBF
choice.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EncodingError
from repro.hdc.backend import DTypeSpec
from repro.hdc.encoders.base import BaseEncoder
from repro.utils.rng import SeedLike

_ACTIVATIONS = ("none", "tanh", "sign")


class LinearEncoder(BaseEncoder):
    """Gaussian random-projection encoder with optional nonlinearity.

    Parameters
    ----------
    in_features:
        Number of input features ``F``.
    dim:
        Output dimensionality ``D``.
    activation:
        ``"none"`` (identity), ``"tanh"`` or ``"sign"`` applied to the
        projected values.
    scale:
        Standard deviation of the Gaussian projection entries.
    rng:
        Seed or generator.
    dtype:
        Floating dtype of the projection matrix and the encodings (the
        random stream is dtype-independent: draws happen in float64 and are
        cast).
    """

    def __init__(
        self,
        in_features: int,
        dim: int,
        activation: str = "tanh",
        scale: float = 1.0,
        rng: SeedLike = None,
        dtype: DTypeSpec = np.float64,
    ):
        super().__init__(in_features=in_features, dim=dim, rng=rng, dtype=dtype)
        if activation not in _ACTIVATIONS:
            raise EncodingError(
                f"activation must be one of {_ACTIVATIONS}, got {activation!r}"
            )
        if scale <= 0:
            raise EncodingError("scale must be positive")
        self._activation = activation
        self._scale = float(scale)
        self._bases = self._rng.normal(
            0.0, self._scale, size=(self._dim, self._in_features)
        ).astype(self._dtype, copy=False)

    @property
    def activation(self) -> str:
        """Name of the pointwise nonlinearity."""
        return self._activation

    @property
    def bases(self) -> np.ndarray:
        """The ``(D, F)`` projection matrix (read-only view)."""
        view = self._bases.view()
        view.setflags(write=False)
        return view

    def _encode(self, X: np.ndarray) -> np.ndarray:
        return self._activate(X @ self._bases.T)

    def _encode_partial(self, X: np.ndarray, dimensions: np.ndarray) -> np.ndarray:
        return self._activate(X @ self._bases[dimensions].T)

    def _activate(self, projected: np.ndarray) -> np.ndarray:
        if self._activation == "tanh":
            # ``projected`` is a fresh matmul result: reuse it for the output.
            return np.tanh(projected, out=projected)
        if self._activation == "sign":
            one = self._dtype.type(1.0)
            return np.where(projected >= 0.0, one, -one)
        return projected

    def _regenerate(self, dimensions: np.ndarray) -> None:
        self._bases[dimensions] = self._rng.normal(
            0.0, self._scale, size=(dimensions.size, self._in_features)
        )
