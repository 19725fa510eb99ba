"""RBF (random Fourier feature) encoder.

This is the encoder the paper uses for cybersecurity data (Sec. III,
*Dimension Regeneration*): each output dimension ``d`` has a base vector
``b_d ~ N(0, gamma^2 I)`` and a phase ``c_d ~ U(0, 2*pi)``, and the encoding is

    H_d(x) = cos(x . b_d + c_d)

which approximates a Gaussian (RBF) kernel feature map (Rahimi & Recht 2007)
and therefore captures non-linear relationships between flow features.
Regenerating dimension ``d`` simply redraws ``b_d`` and ``c_d``.
"""

from __future__ import annotations


import numpy as np

from repro.exceptions import EncodingError
from repro.hdc.backend import DTypeSpec
from repro.hdc.encoders.base import BaseEncoder
from repro.utils.rng import SeedLike


class RBFEncoder(BaseEncoder):
    """Random-Fourier-feature encoder with per-dimension regeneration.

    Parameters
    ----------
    in_features:
        Number of input features ``F``.
    dim:
        Output dimensionality ``D``.
    gamma:
        Bandwidth of the Gaussian base-vector distribution
        (``b_d ~ N(0, gamma^2 I)``).  Larger gamma means a narrower kernel.
        The default ``"auto"`` uses ``1 / sqrt(in_features)``, which keeps the
        projection phase ``x . b_d`` at unit scale regardless of how many flow
        features the dataset has (the same heuristic as sklearn's
        ``gamma='scale'`` for min-max-scaled inputs).
    use_sine:
        If ``True``, half of the dimensions use ``sin`` instead of ``cos``,
        which reduces the variance of the kernel approximation.
    rng:
        Seed or generator.
    dtype:
        Floating dtype of the base vectors, phases and encodings (the
        random stream is dtype-independent: draws happen in float64 and are
        cast).
    """

    def __init__(
        self,
        in_features: int,
        dim: int,
        gamma: float | str = "auto",
        use_sine: bool = False,
        rng: SeedLike = None,
        dtype: DTypeSpec = np.float64,
    ):
        super().__init__(in_features=in_features, dim=dim, rng=rng, dtype=dtype)
        if gamma == "auto":
            gamma = 1.0 / np.sqrt(in_features)
        if not isinstance(gamma, (int, float)) or gamma <= 0:
            raise EncodingError("gamma must be positive or 'auto'")
        self._gamma = float(gamma)
        self._use_sine = bool(use_sine)
        self._bases = self._rng.normal(
            0.0, self._gamma, size=(self._dim, self._in_features)
        ).astype(self._dtype, copy=False)
        self._phases = self._rng.uniform(0.0, 2.0 * np.pi, size=self._dim).astype(
            self._dtype, copy=False
        )
        if self._use_sine:
            self._sine_mask = np.arange(self._dim) % 2 == 1
        else:
            self._sine_mask = np.zeros(self._dim, dtype=bool)

    # ------------------------------------------------------------ properties
    @property
    def gamma(self) -> float:
        """Bandwidth of the Gaussian base-vector distribution."""
        return self._gamma

    @property
    def bases(self) -> np.ndarray:
        """The ``(D, F)`` base-vector matrix (read-only view for inspection)."""
        view = self._bases.view()
        view.setflags(write=False)
        return view

    @property
    def phases(self) -> np.ndarray:
        """The ``(D,)`` phase vector (read-only view for inspection)."""
        view = self._phases.view()
        view.setflags(write=False)
        return view

    # --------------------------------------------------------------- encoding
    def _encode(self, X: np.ndarray) -> np.ndarray:
        return self._project(X, self._bases, self._phases, self._sine_mask)

    def _encode_partial(self, X: np.ndarray, dimensions: np.ndarray) -> np.ndarray:
        return self._project(
            X, self._bases[dimensions], self._phases[dimensions], self._sine_mask[dimensions]
        )

    def _project(
        self, X: np.ndarray, bases: np.ndarray, phases: np.ndarray, sine_mask: np.ndarray
    ) -> np.ndarray:
        # Phase shift and cosine run in place on the projection, so the
        # encoding needs one (n, D) array; the sine columns read their
        # projection before the cosine overwrites it.
        H = X @ bases.T
        H += phases
        sines = np.sin(H[:, sine_mask]) if self._use_sine else None
        np.cos(H, out=H)
        if sines is not None:
            H[:, sine_mask] = sines
        return H

    def _regenerate(self, dimensions: np.ndarray) -> None:
        self._bases[dimensions] = self._rng.normal(
            0.0, self._gamma, size=(dimensions.size, self._in_features)
        )
        self._phases[dimensions] = self._rng.uniform(0.0, 2.0 * np.pi, size=dimensions.size)
