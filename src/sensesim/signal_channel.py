"""Primary-user signal models and channel models.

Samples are real baseband amplitudes in units of the noise: the
channel adds zero-mean Gaussian noise of variance 1, and the engine
scales a signal frame by ``sqrt(gamma)``, so the received SNR at fading
gain 1 is gamma times the frame's mean square.  A signal model has no
amplitude of its own: its frames have a nominal mean square of 1, so the
SNR is the only amplitude setting (frames of mean square P at gamma are
the nominal ones at gamma P).  No noise scale is modelled either: at a
calibrated false-alarm rate one would cancel from every rate.

Fading is flat block fading: one envelope gain per frame, drawn fresh
each frame and held constant across its samples.  The Rayleigh envelope
has density ``2h*exp(-h^2)`` for h >= 0, normalized so E[h^2] = 1; an
AWGN channel has gain 1 always.

Key discipline: trial t of a run has the key ``fold(mix64(seed), 1,
t)``, and each kind of draw folds in one fixed role -- ``SIGNAL_ROLE``
for signal symbols, ``FADING_ROLE`` for the envelope gain,
``NOISE_ROLE`` for noise -- so trial t's noise is drawn from
``fold(mix64(seed), 1, t, NOISE_ROLE)``.  One trial key therefore serves
all three roles without interference, and the noise realization of a
frame is identical whether or not a signal is present (common random
numbers across hypotheses).  A signal model's ``block`` draws its
frames and a channel's ``noise`` and ``gains`` draw the rest; no other
package code draws.  ``tests/oracle_scalar.py`` redraws single trials
from the same role keys as the test-side reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import NORMAL_MAX, fold_in, normal_block, uniform_block

AWGN = "awgn"
RAYLEIGH = "rayleigh"
RAYLEIGH_GAIN_MAX = 6.1181  # no drawn gain exceeds sqrt(-ln 2^-54) = 6.11800...

SIGNAL_ROLE = 1
FADING_ROLE = 2
NOISE_ROLE = 3


class SignalModel:
    """Base class for primary-user signal models; see the variants below.

    ``block(keys, n)`` draws one engine frame per trial key from its
    ``SIGNAL_ROLE`` sub-stream (``tests/oracle_scalar.py`` redraws each
    row on its own, bit for bit); ``mean_square(n)`` is the mean of
    x[k]^2 every frame shares, or None when frames differ in it; no
    |x[k]| it draws exceeds ``crest``.
    ``block`` may draw into the buffers of :func:`~sensesim.rng.normal_block`
    (``out`` float64 and ``work`` uint64, ``n + n % 2`` columns) and
    return a view of ``out``; without them its frames are allocated.
    """

    crest: float

    def block(self, keys: np.ndarray, n: int, *, out=None, work=None) -> np.ndarray:
        raise NotImplementedError

    def mean_square(self, n: int) -> float | None:
        raise NotImplementedError


@dataclass(frozen=True)
class Bpsk(SignalModel):
    """Antipodal symbols: every sample is +1 or -1."""

    crest = 1.0

    def block(self, keys, n, *, out=None, work=None):
        u = uniform_block(fold_in(keys, SIGNAL_ROLE), n, out=out, work=work)
        u -= 0.5  # negative exactly when u < 0.5
        return np.copysign(1.0, u, out=u)

    def mean_square(self, n):
        return 1.0


@dataclass(frozen=True)
class Sinusoid(SignalModel):
    """Deterministic cosine, ``cycles_per_frame`` periods across the frame.

    Amplitude is ``sqrt(2)``.  With c = ``cycles_per_frame`` and n
    samples the frame's mean square is exactly

        1 + sin(2*pi*c) * cos(2*pi*c*(n-1)/n) / (n * sin(2*pi*c/n))

    when n does not divide 2c, and 2 when it does (every sample lands on
    +-amplitude).  It equals 1 when 2c is an integer that n does not
    divide (whole half-cycles, for example c=1 at n=8); other values
    generally miss it: at n=10, c=5 gives 2.0 and c=0.3 gives 0.936.
    """

    cycles_per_frame: float = 1.0
    crest = math.sqrt(2.0)

    def __post_init__(self):
        c = self.cycles_per_frame
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
            raise ValueError(f"cycles_per_frame must be a positive finite number, got {c!r}")

    def _row(self, n: int) -> np.ndarray:
        k = np.arange(n, dtype=np.float64)
        return self.crest * np.cos(2.0 * np.pi * self.cycles_per_frame * k / n)

    def block(self, keys, n, *, out=None, work=None):
        return np.broadcast_to(self._row(n), (keys.size, n))  # draws nothing

    def mean_square(self, n):
        return float(np.mean(self._row(n) ** 2))


@dataclass(frozen=True)
class GaussianIid(SignalModel):
    """White Gaussian samples of unit variance (noise-like primary)."""

    crest = NORMAL_MAX

    def block(self, keys, n, *, out=None, work=None):
        return normal_block(fold_in(keys, SIGNAL_ROLE), n, out=out, work=work)

    def mean_square(self, n):
        return None


SIGNAL_MODELS = {"bpsk": Bpsk, "sinusoid": Sinusoid, "gaussian": GaussianIid}


@dataclass(frozen=True)
class ChannelModel:
    """Channel kind.  ``noise(keys, n)`` draws unit-variance w from each
    key's ``NOISE_ROLE`` sub-stream, alike on every kind, and
    ``gains(keys)`` h = sqrt(-ln u) from its ``FADING_ROLE`` one (None on
    AWGN: gain 1), in the buffers of ``rng.normal_block`` and
    ``uniform_block`` if given."""

    kind: str = AWGN

    def __post_init__(self):
        if self.kind not in (AWGN, RAYLEIGH):
            raise ValueError(f"channel kind must be '{AWGN}' or '{RAYLEIGH}', got {self.kind!r}")

    def noise(self, keys: np.ndarray, n: int, *, out=None, work=None) -> np.ndarray:
        return normal_block(fold_in(keys, NOISE_ROLE), n, out=out, work=work)

    def gains(self, keys: np.ndarray, *, out=None, work=None) -> np.ndarray | None:
        if self.kind == AWGN:
            return None
        h = uniform_block(fold_in(keys, FADING_ROLE), 1, out=out, work=work)[:, 0]
        return np.sqrt(np.negative(np.log(h, out=h), out=h), out=h)

    def peak(self, signal: SignalModel | None = None, gamma: float = 0.0) -> float:
        """A bound on every |y| of y = h sqrt(gamma) x + w: NORMAL_MAX, plus
        the largest gain times sqrt(gamma) times the signal's ``crest``;
        the noise alone without a signal."""
        peak = NORMAL_MAX
        if signal is not None:
            amp = (RAYLEIGH_GAIN_MAX if self.kind == RAYLEIGH else 1.0) * math.sqrt(gamma)
            peak += amp * signal.crest
        return peak


def snr_to_linear(snr_db: float) -> float:
    """dB to linear power ratio: gamma = 10^(snr_db/10).

    Refuses an SNR whose gamma is not a positive finite double: above
    about 3082.5 dB it overflows, below about -3236.1 dB it rounds to 0.
    """
    if not (isinstance(snr_db, (int, float)) and math.isfinite(snr_db)):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    try:
        gamma = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        gamma = math.inf
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"snr_db {snr_db!r} gives linear power {gamma!r}, "
                         "not a positive finite double")
    return gamma
