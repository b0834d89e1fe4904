"""Counter-based noise streams.

Every random quantity consumed by the simulation engine is addressed by the
tuple ``(master_seed, path_index, step_index, channel)``.  The implementation
maps that tuple onto the counter space of numpy's Philox-4x64 bit generator:

* key      = ``(master_seed, path_index)``   (two 64-bit words)
* counter  = ``[word_block, purpose, 0, 0]`` (counter[0] is least significant;
  one counter block yields four 64-bit words)

``purpose`` separates independent channels of a path's stream (Gaussian
increments, jump epochs, jump marks), and within a purpose the raw 64-bit
words are laid out consecutively, e.g. Gaussian word ``step_index * m +
channel``.  Because a word's value depends only on its counter address, a
stream produces bitwise-identical numbers whether it is read one step at a
time, in chunks, or as a whole path, and regardless of which thread or worker
happens to ask.  Coupled simulations share increments by sharing a stream;
ensembles are independent because distinct path indices are distinct keys.

Normals are produced by inverse-CDF transform of one uniform word each (no
rejection sampling), which is what makes the per-word addressing exact.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["NoiseStream", "PATH_BLOCK_PRIMARY", "PATH_BLOCK_PI_A", "PATH_BLOCK_PI_B"]

# Reserved path-index blocks.  Ensemble estimators place their paths at
# PATH_BLOCK_PRIMARY + i; the two independent invariant-measure estimators
# use the PI blocks so that "different seed" means a provably disjoint set
# of Philox keys under one master seed.
PATH_BLOCK_PRIMARY = 0
PATH_BLOCK_PI_A = 1 << 20
PATH_BLOCK_PI_B = 1 << 21

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)


class NoiseStream:
    """Deterministic random words for one ``(master_seed, path_index)`` pair.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed; any Python int (folded to 64 bits).
    path_index : int
        Which path of the ensemble this stream feeds.
    """

    PURPOSE_GAUSS = 0
    PURPOSE_EPOCH = 1
    PURPOSE_MARK = 2

    def __init__(self, master_seed: int, path_index: int = 0):
        if path_index < 0:
            raise ValueError("path_index must be nonnegative")
        self.master_seed = int(master_seed)
        self.path_index = int(path_index)
        self._key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.path_index & 0xFFFFFFFFFFFFFFFF],
            dtype=_U64,
        )

    def spawn(self, path_index: int) -> "NoiseStream":
        """Stream for another path of the same experiment."""
        return NoiseStream(self.master_seed, path_index)

    # -- raw word addressing ------------------------------------------------

    def raw_words(self, purpose: int, start: int, count: int) -> np.ndarray:
        """``count`` consecutive 64-bit words of a purpose region, from word ``start``."""
        if count <= 0:
            return np.empty(0, dtype=_U64)
        block, offset = divmod(int(start), 4)
        counter = np.array([block, purpose, 0, 0], dtype=_U64)
        bg = np.random.Philox(key=self._key, counter=counter)
        words = bg.random_raw(offset + count)
        return words[offset:]

    def uniforms(self, purpose: int, start: int, count: int) -> np.ndarray:
        """Uniforms on the open interval (0, 1), one word each."""
        words = self.raw_words(purpose, start, count)
        return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53

    # -- engine-facing draws -------------------------------------------------

    def gaussians(self, step_index: int, m: int) -> np.ndarray:
        """The ``m`` standard normals of step ``step_index`` (shape ``(m,)``)."""
        u = self.uniforms(self.PURPOSE_GAUSS, step_index * m, m)
        return ndtri(u)

    def gaussian_block(self, step_start: int, n_steps: int, m: int) -> np.ndarray:
        """Standard normals for steps ``step_start .. step_start+n_steps``.

        Shape ``(n_steps, m)``; row ``k`` is bitwise identical to
        ``gaussians(step_start + k, m)``.
        """
        u = self.uniforms(self.PURPOSE_GAUSS, step_start * m, n_steps * m)
        return ndtri(u).reshape(n_steps, m)

    def epoch_uniforms(self, start: int, count: int) -> np.ndarray:
        return self.uniforms(self.PURPOSE_EPOCH, start, count)

    def mark_uniforms(self, start: int, count: int) -> np.ndarray:
        return self.uniforms(self.PURPOSE_MARK, start, count)

    def __repr__(self):  # pragma: no cover
        return f"NoiseStream(master_seed={self.master_seed}, path_index={self.path_index})"
