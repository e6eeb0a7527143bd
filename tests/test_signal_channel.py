"""Signal, channel, and fading models: exact pins and moment checks.

The per-trial frames come from the test-side scalar reference,
``oracle_scalar``, which the model blocks must match bit for bit.  The
moment checks on 1e6-sample frames draw them as one-row engine blocks,
whose bits those pins tie to the reference, at a fraction of its cost.
"""

import math

import numpy as np
import pytest
from oracle_scalar import fading_gain, frame, mix64_inverse, normals, received_frame

from sensesim.rng import fold, fold_range, mix64
from sensesim.signal_channel import (
    AWGN,
    NOISE_ROLE,
    RAYLEIGH,
    SIGNAL_ROLE,
    SIGNAL_MODELS,
    Bpsk,
    ChannelModel,
    GaussianIid,
    SignalModel,
    Sinusoid,
    snr_to_linear,
)


def _trial(seed: int, t: int) -> int:
    return fold(mix64(seed), 1, t)


def _mean_power(y):
    return float(np.mean(y**2))


def _key(trial: int) -> np.ndarray:
    """``trial`` as the one-row key array of a model or channel block."""
    return np.array([trial], dtype=np.uint64)


def test_snr_to_linear():
    assert snr_to_linear(0.0) == 1.0
    assert snr_to_linear(10.0) == 10.0
    assert math.isclose(snr_to_linear(-10.0), 0.1, rel_tol=1e-15)
    assert math.isclose(snr_to_linear(3.0), 10.0**0.3, rel_tol=1e-15)
    with pytest.raises(ValueError):
        snr_to_linear(float("inf"))
    with pytest.raises(ValueError):
        snr_to_linear(float("nan"))


def test_snr_to_linear_refuses_a_power_outside_the_positive_doubles():
    assert snr_to_linear(3082.0) == 10.0**308.2
    assert 0.0 < snr_to_linear(-3236.0) < 1e-323  # subnormal, still positive
    with pytest.raises(ValueError, match="gives linear power inf"):
        snr_to_linear(3083.0)  # 10^308.3 overflows
    with pytest.raises(ValueError, match="gives linear power 0.0"):
        snr_to_linear(-4000.0)  # 10^-400 rounds to 0


def test_bpsk_samples_are_antipodal():
    x = frame(Bpsk(), 64, _trial(0, 0))
    assert set(np.abs(x)) == {1.0}
    assert (x > 0).any() and (x < 0).any()
    assert _mean_power(x) == 1.0


def test_bpsk_sign_at_a_uniform_of_one_half():
    # A first signal word with top 53 bits 2^52 gives u = (2^52 + 0.5) 2^-53,
    # which rounds to exactly 0.5: u - 0.5 is +0.0, so the sample is +1.
    # One less gives u just below 0.5, so -1.
    # The signal word is mix64(fold(trial, SIGNAL_ROLE)), and fold(k, c) is
    # mix64(k ^ mix64(c)), so each trial key is found by undoing both.
    model, tops = Bpsk(), (2**52 - 1, 2**52)
    trials = [mix64_inverse(mix64_inverse(top << 11)) ^ mix64(SIGNAL_ROLE) for top in tops]
    assert [mix64(fold(trial, SIGNAL_ROLE)) >> 11 for trial in trials] == list(tops)
    want = [-1.0, 1.0]
    assert model.block(np.array(trials, dtype=np.uint64), 3)[:, 0].tolist() == want
    assert [frame(model, 3, trial)[0] for trial in trials] == want


def test_bpsk_deterministic_per_stream():
    a = frame(Bpsk(), 32, _trial(5, 3))
    b = frame(Bpsk(), 32, _trial(5, 3))
    c = frame(Bpsk(), 32, _trial(5, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sinusoid_exact_formula_and_power():
    n, cycles = 8, 1.0
    x = frame(Sinusoid(cycles_per_frame=cycles), n, _trial(0, 0))
    k = np.arange(n, dtype=np.float64)
    want = math.sqrt(2.0) * np.cos(2.0 * np.pi * cycles * k / n)
    assert np.array_equal(x, want)
    # over whole cycles the mean square is 1
    y = frame(Sinusoid(cycles_per_frame=4.0), 64, _trial(0, 0))
    assert _mean_power(y) == pytest.approx(1.0, rel=1e-9)
    # n divides 2c: every sample sits on +-amplitude, a mean square of 2
    z = frame(Sinusoid(cycles_per_frame=5.0), 10, _trial(0, 0))
    assert _mean_power(z) == pytest.approx(2.0, rel=1e-9)
    # 2c not an integer: the documented closed form, 0.936 at n=10
    c, n = 0.3, 10
    f = frame(Sinusoid(cycles_per_frame=c), n, _trial(0, 0))
    ratio = 1.0 + math.sin(2 * math.pi * c) * math.cos(2 * math.pi * c * (n - 1) / n) / (
        n * math.sin(2 * math.pi * c / n)
    )
    assert _mean_power(f) == pytest.approx(ratio, rel=1e-9)
    assert ratio == pytest.approx(0.936, abs=5e-4)


def test_gaussian_signal_is_unit_power():
    big = GaussianIid().block(_key(_trial(2, 0)), 1_000_000)[0]
    # mean square of 1e6 unit normals: sd sqrt(2/n) ~ 0.0014, 4-sigma band
    assert 0.9943 <= _mean_power(big) <= 1.0057


# each configurable model at its defaults, plus the sinusoids whose mean
# square the p=2 oracles must scale for; a model added to SIGNAL_MODELS is covered
_MODELS = [cls() for cls in SIGNAL_MODELS.values()] + [
    Sinusoid(cycles_per_frame=0.3),
    Sinusoid(cycles_per_frame=5.0),
]


def test_signal_models_table_covers_every_model():
    assert set(SIGNAL_MODELS.values()) == set(SignalModel.__subclasses__())


@pytest.mark.parametrize("model", _MODELS, ids=repr)
def test_model_block_matches_scalar_reference(model):
    n = 10
    keys = fold_range(fold(mix64(3), 1), np.arange(6, dtype=np.uint64))
    block = model.block(keys, n)
    assert block.shape == (keys.size, n)
    mean_square = model.mean_square(n)
    for r in range(keys.size):
        row = frame(model, n, int(keys[r]))
        assert np.array_equal(block[r], row)
        if mean_square is not None:
            assert mean_square == pytest.approx(np.mean(row**2), rel=1e-15, abs=0.0)
    assert (mean_square is None) == isinstance(model, GaussianIid)


@pytest.mark.parametrize("model", _MODELS, ids=repr)
@pytest.mark.parametrize("n", [7, 10])
def test_model_block_into_buffers_equals_fresh_block(model, n):
    keys = fold_range(fold(mix64(3), 1), np.arange(9, dtype=np.uint64))
    rows = n + n % 2
    out = np.full((rows + 2, keys.size + 4), np.nan)[:rows, : keys.size].T
    work = np.zeros((rows + 2, keys.size + 4), dtype=np.uint64)[:rows, : keys.size].T
    got = model.block(keys, n, out=out, work=work)
    assert np.array_equal(got, model.block(keys, n))
    assert np.shares_memory(got, out) != isinstance(model, Sinusoid)  # which draws nothing


@pytest.mark.parametrize("kind", [AWGN, RAYLEIGH])
@pytest.mark.parametrize("n", [7, 10])
def test_channel_draws_match_scalar_reference_and_buffers(kind, n):
    channel = ChannelModel(kind)
    keys = fold_range(fold(mix64(3), 1), np.arange(9, dtype=np.uint64))
    noise, gains = channel.noise(keys, n), channel.gains(keys)
    assert noise.shape == (keys.size, n)
    # noise is alike on every kind, which is why H0 calibration takes no channel
    assert np.array_equal(noise, ChannelModel(AWGN).noise(keys, n))
    for r in range(keys.size):
        trial = int(keys[r])
        assert np.array_equal(noise[r], _noise(channel, n, trial))
        if gains is not None:
            assert gains[r] == fading_gain(channel, trial)
    assert (gains is None) == (kind == AWGN)
    # the engine's buffers: sample-major noise and scratch, two gain columns
    rows = n + n % 2
    out = np.full((rows + 2, keys.size + 4), np.nan)[:rows, : keys.size].T
    work = np.zeros((rows + 2, keys.size + 4), dtype=np.uint64)[:rows, : keys.size].T
    got = channel.noise(keys, n, out=out, work=work)
    assert np.shares_memory(got, out) and np.array_equal(got, noise)
    gain_buf = np.full((2, keys.size), np.nan).T
    got = channel.gains(keys, out=gain_buf, work=work)
    if gains is None:
        assert got is None and np.isnan(gain_buf).all()
    else:
        assert np.shares_memory(got, gain_buf[:, 0]) and np.array_equal(got, gains)


def _noise(channel, n, trial):
    return received_frame(None, channel, None, n, trial)[0]


def test_awgn_fading_is_unity():
    assert fading_gain(ChannelModel(AWGN), _trial(0, 0)) == 1.0


def test_rayleigh_fading_moments():
    ch = ChannelModel(RAYLEIGH)
    gains = np.array(
        [fading_gain(ch, _trial(7, t)) for t in range(50_000)]
    )
    h2 = gains**2
    # h^2 is Exp(1): unit mean, unit variance
    assert abs(h2.mean() - 1.0) < 4.0 / math.sqrt(h2.size)
    med = float(np.median(gains))
    assert abs(med - math.sqrt(math.log(2.0))) < 0.008
    assert gains.min() > 0.0


def test_noise_frame_variance_and_role():
    ch = ChannelModel(AWGN)
    w = ch.noise(_key(_trial(3, 0)), 1_000_000)[0]
    assert abs(_mean_power(w) - 1.0) < 0.01
    # the noise role is distinct from the signal role on the same stream
    x = frame(GaussianIid(), 100, _trial(3, 1))
    w2 = _noise(ch, 100, _trial(3, 1))
    assert not np.array_equal(x, w2)


def test_transmit_noise_only_sentinel_matches_noise_frame():
    ch = ChannelModel(AWGN)
    y, h = received_frame(Bpsk(), ch, None, 20, _trial(9, 0))
    w = normals(fold(_trial(9, 0), NOISE_ROLE), 20)
    assert h == 0.0
    assert np.array_equal(y, w)


def test_transmit_vanishing_noise_recovers_scaled_signal():
    # at 120 dB the unit noise is a millionth of the signal's amplitude
    ch = ChannelModel(AWGN)
    x = frame(Bpsk(), 16, _trial(1, 0))
    y, h = received_frame(Bpsk(), ch, 120.0, 16, _trial(1, 0))
    amp = h * math.sqrt(snr_to_linear(120.0))
    assert h == 1.0
    assert np.allclose(y / amp, x, atol=1e-5)


def test_transmit_awgn_mean_power():
    # E|y|^2 = gamma + 1 = 2 at 0 dB with unit noise; the engine's sum, at unit gain
    ch, keys, n = ChannelModel(AWGN), _key(_trial(4, 0)), 1_000_000
    assert ch.gains(keys) is None
    y = (math.sqrt(snr_to_linear(0.0)) * Bpsk().block(keys, n) + ch.noise(keys, n))[0]
    assert 1.994 <= _mean_power(y) <= 2.006


def test_transmit_rayleigh_block_fading():
    ch = ChannelModel(RAYLEIGH)
    powers = []
    gains = []
    for t in range(2000):
        y, h = received_frame(Bpsk(), ch, 0.0, 100, _trial(8, t))
        powers.append(_mean_power(y))
        gains.append(h)
    gains = np.array(gains)
    assert np.unique(gains).size > 1900  # fresh draw per frame
    # averaged over frames: E|y|^2 = gamma*E[h^2] + 1 = 2
    assert abs(np.mean(powers) - 2.0) < 0.08
    # conditionally on h the signal part is exact: remove it and noise remains
    resid = np.mean(powers) - np.mean(gains**2)
    assert abs(resid - 1.0) < 0.08


def test_transmit_same_noise_with_and_without_signal():
    # the fading and signal roles never touch the noise key
    ch = ChannelModel(RAYLEIGH)
    trial = _trial(12, 0)
    x = frame(Bpsk(), 50, trial)
    y1, h = received_frame(Bpsk(), ch, 0.0, 50, trial)
    y0, _ = received_frame(Bpsk(), ch, None, 50, trial)
    amp = h * math.sqrt(snr_to_linear(0.0))
    assert np.array_equal(y1, amp * x + y0)


def test_model_validation():
    with pytest.raises(ValueError):
        Sinusoid(cycles_per_frame=0.0)
    with pytest.raises(ValueError):
        ChannelModel("laplace")
