"""Abstract encoder interface."""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.exceptions import EncodingError
from repro.hdc.backend import DTypeSpec, resolve_dtype
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_matrix


class BaseEncoder(abc.ABC):
    """Maps ``(n, F)`` feature matrices to ``(n, D)`` hypervector matrices.

    Subclasses must implement :meth:`_encode` and :meth:`_regenerate`, and
    should override :meth:`_encode_partial` with a column-sliced computation.
    The public :meth:`encode` / :meth:`encode_partial` / :meth:`regenerate`
    wrappers perform validation and book-keeping (regeneration counting for
    effective-dimensionality accounting) so that subclasses stay focused on
    the math.

    Every encoder carries a ``dtype`` (float64 by default for backward
    compatibility; the CyberHD training pipeline passes the backend policy's
    float32).  Random parameter draws always happen in float64 and are cast
    afterwards, so the random stream -- and therefore the *structure* of the
    encoder -- is identical across dtypes for a given seed.
    """

    def __init__(
        self,
        in_features: int,
        dim: int,
        rng: SeedLike = None,
        dtype: DTypeSpec = np.float64,
    ):
        if in_features <= 0:
            raise EncodingError("in_features must be positive")
        if dim <= 0:
            raise EncodingError("dim must be positive")
        self._in_features = int(in_features)
        self._dim = int(dim)
        self._rng = ensure_rng(rng)
        self._dtype = resolve_dtype(dtype)
        self._regenerated_total = 0

    # ------------------------------------------------------------ properties
    @property
    def in_features(self) -> int:
        """Number of input features ``F``."""
        return self._in_features

    @property
    def dim(self) -> int:
        """Output (physical) dimensionality ``D``."""
        return self._dim

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the encoded hypervectors."""
        return self._dtype

    @property
    def regenerated_total(self) -> int:
        """Cumulative number of dimensions regenerated over the encoder's life.

        The paper's *effective dimensionality* is
        ``D* = dim + regenerated_total``.
        """
        return self._regenerated_total

    @property
    def effective_dim(self) -> int:
        """Effective dimensionality ``D* = D + total regenerated dimensions``."""
        return self._dim + self._regenerated_total

    # ------------------------------------------------------------------- API
    def encode(self, X: np.ndarray) -> np.ndarray:
        """Encode a feature matrix into hyperspace.

        Parameters
        ----------
        X:
            ``(n, F)`` feature matrix (a single sample may be passed as a 1-D
            array and is promoted to one row).

        Returns
        -------
        ndarray
            ``(n, D)`` encoded hypervectors in the encoder's dtype.
        """
        X = self._check_input(X)
        H = self._encode(X)
        if H.shape != (X.shape[0], self._dim):
            raise EncodingError(
                f"encoder produced shape {H.shape}, expected {(X.shape[0], self._dim)}"
            )
        return H

    def encode_packed(self, X: np.ndarray, chunk_size: int = 2048) -> np.ndarray:
        """Encode, sign-binarize and bit-pack in one fused pass.

        The packed serving path scores sign bits only, so materializing the
        full ``(n, D)`` float hypervector matrix is wasted memory traffic.
        This fusion encodes ``chunk_size`` rows at a time and immediately
        packs each chunk's signs into ``uint64`` words: peak float footprint
        is ``chunk_size * D`` elements instead of ``n * D``, and the output
        is 32x smaller than a float32 encoding.

        Contract: ``encode_packed(X)`` equals
        ``pack_sign_bits(encode(X))`` bit for bit -- encoders are row-wise
        independent, so chunking cannot change any sign.

        Returns
        -------
        ndarray
            ``(n, ceil(D / 64))`` ``uint64`` packed sign bits.
        """
        from repro.hdc.bitpack import pack_sign_bits, packed_words

        X = self._check_input(X)
        n = X.shape[0]
        step = max(1, int(chunk_size))
        out = np.empty((n, packed_words(self._dim)), dtype=np.uint64)
        for start in range(0, n, step):
            H = self._encode(X[start : start + step])
            if H.shape != (min(step, n - start), self._dim):
                raise EncodingError(
                    f"encoder produced shape {H.shape}, expected "
                    f"{(min(step, n - start), self._dim)}"
                )
            out[start : start + step] = pack_sign_bits(H)
        return out

    def encode_partial(self, X: np.ndarray, dimensions: Sequence[int]) -> np.ndarray:
        """Encode only the selected output dimensions.

        This is the incremental re-encoding entry point for dimension
        regeneration: after ``regenerate(dims)`` only the columns in ``dims``
        of an encoded matrix change, so a caller holding ``H = encode(X)``
        can write ``encode_partial(X, dims)`` into those columns instead of
        re-encoding all ``D`` columns.  ``CyberHD`` does the write with
        :func:`repro.hdc.backend.assign_columns`, which refreshes the sample
        norms in the same pass, and warm-starts the new class-matrix columns
        from the returned array itself.

        Contract: ``encode_partial(X, dims)`` is **bitwise identical** to
        ``encode(X)[:, dims]`` for the encoder's current parameters (the
        equivalence suite in ``tests/test_backend.py`` enforces this for
        every bundled encoder).

        Parameters
        ----------
        X:
            ``(n, F)`` feature matrix.
        dimensions:
            Output dimension indices to compute, each in ``[0, D)``.

        Returns
        -------
        ndarray
            ``(n, len(dimensions))`` columns of the encoding, in the order
            the dimensions were given.
        """
        X = self._check_input(X)
        idx = np.asarray(dimensions, dtype=np.int64).ravel()
        if idx.size == 0:
            return np.zeros((X.shape[0], 0), dtype=self._dtype)
        if idx.min() < 0 or idx.max() >= self._dim:
            raise EncodingError(
                f"partial-encode indices must be in [0, {self._dim}), got "
                f"[{idx.min()}, {idx.max()}]"
            )
        H = self._encode_partial(X, idx)
        if H.shape != (X.shape[0], idx.size):
            raise EncodingError(
                f"encoder produced shape {H.shape}, expected {(X.shape[0], idx.size)}"
            )
        return H

    def regenerate(self, dimensions: Sequence[int]) -> np.ndarray:
        """Resample the base vectors of the selected output dimensions.

        Parameters
        ----------
        dimensions:
            Indices of output dimensions whose base vectors are replaced with
            fresh random draws (step ``H`` of the CyberHD workflow).

        Returns
        -------
        ndarray
            The (sorted, de-duplicated) dimension indices actually regenerated.
        """
        idx = np.unique(np.asarray(dimensions, dtype=np.int64))
        if idx.size == 0:
            return idx
        if idx.min() < 0 or idx.max() >= self._dim:
            raise EncodingError(
                f"regeneration indices must be in [0, {self._dim}), got "
                f"[{idx.min()}, {idx.max()}]"
            )
        self._regenerate(idx)
        self._regenerated_total += int(idx.size)
        return idx

    # --------------------------------------------------------- subclass API
    @abc.abstractmethod
    def _encode(self, X: np.ndarray) -> np.ndarray:
        """Encode a validated ``(n, F)`` matrix; return ``(n, D)``."""

    def _encode_partial(self, X: np.ndarray, dimensions: np.ndarray) -> np.ndarray:
        """Encode a validated ``(n, F)`` matrix restricted to ``dimensions``.

        The fallback computes the full encoding and slices it; subclasses
        override with a computation proportional to ``len(dimensions)``.
        """
        return self._encode(X)[:, dimensions]

    @abc.abstractmethod
    def _regenerate(self, dimensions: np.ndarray) -> None:
        """Resample base vectors for the validated dimension indices."""

    # ----------------------------------------------------------------- misc
    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = check_matrix(X, "X")
        if X.shape[1] != self._in_features:
            raise EncodingError(
                f"encoder expects {self._in_features} features, got {X.shape[1]}"
            )
        return X.astype(self._dtype, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(in_features={self._in_features}, dim={self._dim}, "
            f"dtype={self._dtype.name}, regenerated_total={self._regenerated_total})"
        )
