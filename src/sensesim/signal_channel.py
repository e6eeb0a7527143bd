"""Primary-user signal generation and channel models.

Samples are real baseband amplitudes under a unit-noise-variance
convention: the channel adds zero-mean Gaussian noise of variance
``noise_variance`` (default 1.0), and ``transmit`` scales a frame by
``sqrt(gamma * sigma^2)``: the received SNR at fading gain 1 is gamma
times the frame's mean square, so gamma itself for a unit-power frame.

Fading is flat block fading: one envelope gain per frame, drawn fresh
each frame and held constant across its samples.  The Rayleigh envelope
has density ``2h*exp(-h^2)`` for h >= 0, normalized so E[h^2] = 1; an
AWGN channel has gain 1 always.

Stream discipline: every operation that draws randomness takes a
per-frame (per-trial) stream and reads from a fixed role sub-stream of
it -- ``child(SIGNAL_ROLE)`` for signal symbols, ``child(FADING_ROLE)``
for the envelope gain, ``child(NOISE_ROLE)`` for noise.  One trial
stream therefore serves all three roles without interference, and the
noise realization of a frame is identical whether or not a signal is
present (common random numbers across hypotheses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Stream, fold_in, normal_block, uniform_block

AWGN = "awgn"
RAYLEIGH = "rayleigh"

SIGNAL_ROLE = 1
FADING_ROLE = 2
NOISE_ROLE = 3


@dataclass(frozen=True, eq=False)
class SampleFrame:
    """A length-n vector of real amplitudes, immutable after creation."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise ValueError(f"frame must be a non-empty 1-D vector, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("frame samples must all be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @property
    def n(self) -> int:
        return self.samples.size

    def mean_power(self) -> float:
        """Empirical per-sample power, mean of samples squared."""
        return float(np.mean(self.samples**2))


class SignalModel:
    """Base class for primary-user signal models; see the variants below.

    ``block(keys, n)`` draws one engine frame per trial key from its
    ``SIGNAL_ROLE`` sub-stream, bit for bit the frame :func:`gen_primary`
    draws from ``Stream(key)``; ``mean_square(n)`` is the mean of x[k]^2
    every frame shares, or None when frames differ in it.
    """

    power: float

    def block(self, keys: np.ndarray, n: int) -> np.ndarray:
        raise NotImplementedError

    def mean_square(self, n: int) -> float | None:
        raise NotImplementedError


@dataclass(frozen=True)
class Bpsk(SignalModel):
    """Antipodal symbols: every sample is +sqrt(power) or -sqrt(power)."""

    power: float = 1.0

    def __post_init__(self):
        _check_power(self.power)

    def block(self, keys, n):
        u = uniform_block(fold_in(keys, SIGNAL_ROLE), n)
        return np.where(u < 0.5, -1.0, 1.0) * math.sqrt(self.power)

    def mean_square(self, n):
        return float(self.power)


@dataclass(frozen=True)
class Sinusoid(SignalModel):
    """Deterministic cosine, ``cycles_per_frame`` periods across the frame.

    Amplitude is ``sqrt(2*power)``.  With c = ``cycles_per_frame`` and n
    samples the frame's mean square is exactly

        power * (1 + sin(2*pi*c) * cos(2*pi*c*(n-1)/n) / (n * sin(2*pi*c/n)))

    when n does not divide 2c, and ``2*power`` when it does (every sample
    lands on +-amplitude).  It equals ``power`` when 2c is an integer
    that n does not divide (whole half-cycles, for example c=1 at n=8);
    other values generally miss it: at n=10, c=5 gives 2.0*power and
    c=0.3 gives 0.936*power.
    """

    power: float = 1.0
    cycles_per_frame: float = 1.0

    def __post_init__(self):
        _check_power(self.power)
        c = self.cycles_per_frame
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
            raise ValueError(f"cycles_per_frame must be a positive finite number, got {c!r}")

    def _row(self, n: int) -> np.ndarray:
        k = np.arange(n, dtype=np.float64)
        return math.sqrt(2.0 * self.power) * np.cos(2.0 * np.pi * self.cycles_per_frame * k / n)

    def block(self, keys, n):
        return np.broadcast_to(self._row(n), (keys.size, n))

    def mean_square(self, n):
        return float(np.mean(self._row(n) ** 2))


@dataclass(frozen=True)
class GaussianIid(SignalModel):
    """White Gaussian samples of variance ``power`` (noise-like primary)."""

    power: float = 1.0

    def __post_init__(self):
        _check_power(self.power)

    def block(self, keys, n):
        return normal_block(fold_in(keys, SIGNAL_ROLE), n) * math.sqrt(self.power)

    def mean_square(self, n):
        return None


SIGNAL_MODELS = {"bpsk": Bpsk, "sinusoid": Sinusoid, "gaussian": GaussianIid}


def _check_power(power) -> None:
    if not (isinstance(power, (int, float)) and math.isfinite(power) and power > 0):
        raise ValueError(f"signal power must be a positive finite number, got {power!r}")


@dataclass(frozen=True)
class ChannelModel:
    """Channel kind plus noise power sigma^2."""

    kind: str = AWGN
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.kind not in (AWGN, RAYLEIGH):
            raise ValueError(f"channel kind must be '{AWGN}' or '{RAYLEIGH}', got {self.kind!r}")
        v = self.noise_variance
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"noise_variance must be a positive finite number, got {v!r}")

    @property
    def noise_std(self) -> float:
        return math.sqrt(self.noise_variance)


@dataclass(frozen=True)
class FadingDraw:
    """One block-constant envelope gain; 0.0 marks a frame with no signal path."""

    gain: float

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain >= 0):
            raise ValueError(f"fading gain must be finite and >= 0, got {self.gain!r}")


def snr_to_linear(snr_db: float) -> float:
    """dB to linear power ratio: gamma = 10^(snr_db/10)."""
    if not (isinstance(snr_db, (int, float)) and math.isfinite(snr_db)):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


def gen_primary(model: SignalModel, n: int, rng: Stream) -> SampleFrame:
    """Generate one frame of the primary signal.

    Draws come from ``rng.child(SIGNAL_ROLE)``: one uniform per sample
    for Bpsk, one normal per sample for GaussianIid, none for the
    deterministic Sinusoid.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sig = rng.child(SIGNAL_ROLE)
    if isinstance(model, Bpsk):
        u = sig.uniforms(n)
        x = np.where(u < 0.5, -1.0, 1.0) * math.sqrt(model.power)
    elif isinstance(model, Sinusoid):
        k = np.arange(n, dtype=np.float64)
        x = math.sqrt(2.0 * model.power) * np.cos(
            2.0 * np.pi * model.cycles_per_frame * k / n
        )
    elif isinstance(model, GaussianIid):
        x = sig.normals(n) * math.sqrt(model.power)
    else:
        raise ValueError(f"unknown signal model {model!r}")
    return SampleFrame(x)


def draw_fading(channel: ChannelModel, rng: Stream) -> FadingDraw:
    """One envelope gain for a frame.

    AWGN is the constant 1.  Rayleigh inverts the CDF 1 - exp(-h^2):
    h = sqrt(-ln u) with u uniform on (0, 1), read from
    ``rng.child(FADING_ROLE)``.
    """
    if channel.kind == AWGN:
        return FadingDraw(1.0)
    u = rng.child(FADING_ROLE).uniform(0)
    # numpy transforms, not math.*, so scalar draws match vectorized
    # blocks bit for bit even where libm and numpy differ in the last ulp
    return FadingDraw(float(np.sqrt(-np.log(u))))


def noise_frame(channel: ChannelModel, n: int, rng: Stream) -> SampleFrame:
    """A pure-noise frame: n Gaussians of variance sigma^2 from the noise role."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = rng.child(NOISE_ROLE).normals(n) * channel.noise_std
    return SampleFrame(w)


def transmit(
    x: SampleFrame,
    channel: ChannelModel,
    snr_db: float | None,
    rng: Stream,
) -> tuple[SampleFrame, FadingDraw]:
    """Pass a signal frame through the channel at the given SNR.

    Returns ``(y, h)`` with ``y[k] = h * sqrt(gamma * sigma^2) * x[k] + w[k]``,
    where w is i.i.d. zero-mean Gaussian of variance sigma^2 and h is one
    fading draw held constant over the frame.  The gain is returned so
    callers can condition closed-form checks on the realized channel.

    ``snr_db=None`` is the explicit noise-only sentinel: the signal path
    is absent, ``y = w``, and the reported gain is 0.  The fading and
    signal sub-streams are left untouched in that case, so noise draws
    line up exactly with the signal-present frame of the same stream.
    """
    if snr_db is None:
        return noise_frame(channel, x.n, rng), FadingDraw(0.0)
    gamma = snr_to_linear(snr_db)
    h = draw_fading(channel, rng)
    amp = h.gain * math.sqrt(gamma * channel.noise_variance)
    w = rng.child(NOISE_ROLE).normals(x.n) * channel.noise_std
    y = amp * x.samples + w
    return SampleFrame(y), h
