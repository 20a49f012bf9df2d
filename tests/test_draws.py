"""The address contract of mamab.draws: every random number of a trial
is a hash of (trial seed, purpose, index), so no value depends on the
block that computed it or on anything else the run does.

CI runs this file with `python -W error::RuntimeWarning`, so a numpy
scalar overflow in the hash fails it."""

import math

import numpy as np
import pytest

from mamab import draws
from mamab.draws import TrialDraws
from mamab.environments import chain_env, lower_bound_env
from mamab.harness import ExperimentSpec, run_experiment, run_trial
from mamab.policies import PolicyConfig

MASK = (1 << 64) - 1


def reference_splitmix64(x):
    """Vigna's splitmix64 step, written out on Python ints."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def reference_uniform(seed, purpose, index):
    key = reference_splitmix64(reference_splitmix64(seed) + purpose)
    bits = reference_splitmix64((key + index * 0x9E3779B97F4A7C15) & MASK)
    return (bits >> 11) * 2.0 ** -53


def trace_data(trace):
    return ([(t, r.hex()) for t, r in trace.checkpoints], trace.gaussian_draws,
            trace.argmax_ops)


@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1])
@pytest.mark.parametrize("index", [0, 2 ** 32])
def test_hash_matches_pure_python_splitmix64(seed, index):
    with np.errstate(all="raise"):
        for purpose in range(5):
            key = draws.stream_key(seed, purpose)
            got = draws.uniforms(key, index, 3).tolist()
            assert got == [reference_uniform(seed, purpose, index + i) for i in range(3)]


def reference_log(x):
    """draws.log's steps on one Python float."""
    m, e = math.frexp(x)
    if m < draws.SQRT_HALF:
        m, e = m * 2.0, e - 1
    t = (m - 1.0) / (m + 1.0)
    return e * draws.LN2 + 2.0 * t * reference_horner(draws.ATANH, t * t)


def reference_cos_sin_2pi(v):
    """draws.cos_sin_2pi's steps on one Python float."""
    w = v * 4.0
    q = round(w)
    x = (w - q) * (math.pi / 2)
    s = x * reference_horner(draws.SIN, x * x)
    c = reference_horner(draws.COS, x * x)
    return [(c, s), (-s, c), (-c, -s), (s, -c)][q & 3]


def reference_horner(coefs, x):
    p = coefs[0] * x
    for a in coefs[1:-1]:
        p = (p + a) * x
    return p + coefs[-1]


EDGES = [0.0, 2.0 ** -53, 0.125, 0.125 - 2.0 ** -53, 0.25, 0.5, 0.625, 0.875,
         1.0 - 2.0 ** -53]


def test_log_and_trig_are_the_same_ieee_steps_on_every_machine():
    # vector and scalar IEEE-754 arithmetic round alike, so the numpy
    # kernels equal their steps replayed on Python floats bit for bit;
    # a numpy or C-library transcendental in their place would not. Bits
    # are compared by .hex(), so a zero of the wrong sign counts
    u = draws.uniforms(draws.stream_key(5, 1), 0, 4000).tolist() + EDGES
    x = [1.0 - a for a in u]
    assert [y.hex() for y in draws.log(np.array(x)).tolist()] == [
        reference_log(a).hex() for a in x]
    cos, sin = draws.cos_sin_2pi(np.array(u))
    assert [(c.hex(), s.hex()) for c, s in zip(cos.tolist(), sin.tolist())] == [
        (c.hex(), s.hex()) for c, s in map(reference_cos_sin_2pi, u)]
    # the edges include sines of both signed zeros
    assert {s.hex() for s in sin.tolist()} >= {"0x0.0p+0", "-0x0.0p+0"}


def test_quarter_turn_select_is_the_choose_formula():
    # the quadrant is chosen by np.where and exact signs; np.choose over
    # (c, -s, -c, s) and (s, c, -s, -c) gave these bits, compared by their
    # uint64 view over every quarter turn and a sweep of uniforms
    v = np.concatenate([draws.uniforms(draws.stream_key(9, 1), 0, 1 << 16), EDGES,
                        np.arange(4097) / 4096.0])
    w = v * 4.0
    q = np.rint(w)
    x = (w - q) * (math.pi / 2)
    s = x * draws._horner(draws.SIN, x * x)
    c = draws._horner(draws.COS, x * x)
    turns = q.astype(np.int64) & 3
    cos, sin = draws.cos_sin_2pi(v)
    assert np.array_equal(cos.view(np.uint64), np.choose(turns, (c, -s, -c, s)).view(np.uint64))
    assert np.array_equal(sin.view(np.uint64), np.choose(turns, (s, c, -s, -c)).view(np.uint64))
    assert set(turns.tolist()) == {0, 1, 2, 3}


def test_log_and_trig_stay_within_two_ulps():
    # the C library's log is within an ulp of exact; math.cos(2 pi v)
    # rounds 2 pi v first, so the reference angle is reduced as the
    # kernel reduces it and the polynomial part is compared
    u = draws.uniforms(draws.stream_key(6, 1), 0, 20000).tolist() + EDGES
    x = [1.0 - a for a in u]
    for got, a in zip(draws.log(np.array(x)).tolist(), x):
        assert abs(got - math.log(a)) <= 3 * math.ulp(math.log(a))
    cos, sin = draws.cos_sin_2pi(np.array(u))
    for c, s, v in zip(cos.tolist(), sin.tolist(), u):
        q = round(v * 4.0)
        angle = (v * 4.0 - q) * (math.pi / 2) + q * (math.pi / 2)
        assert abs(c - math.cos(angle)) <= 2.0 ** -50
        assert abs(s - math.sin(angle)) <= 2.0 ** -50
        assert abs(c) <= 1.0 and abs(s) <= 1.0
    assert draws.log(np.array([1.0, 0.5, 0.25])).tolist() == [0.0, -draws.LN2, -2 * draws.LN2]


def test_draws_call_no_numpy_transcendental(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy transcendental was called")
    for name in ("log", "log1p", "exp", "cos", "sin", "tan", "arctan2"):
        monkeypatch.setattr(np, name, refuse)
    rng = TrialDraws(8)
    rng.scores.take(500)
    rng.reward_normals.take(500)
    for _ in range(100):
        rng.passes(0.3, 17)


@pytest.mark.parametrize("index", [0, 1, 2 ** 32, 2 ** 32 + 1])
def test_normals_are_box_muller_of_their_uniform_pair(index):
    key = draws.stream_key(7, draws.SCORES)
    pair = index - index % 2
    u, v = draws.uniforms(key, pair, 2).tolist()
    r = math.sqrt(-2.0 * reference_log(1.0 - u))
    expected = r * reference_cos_sin_2pi(v)[index % 2]
    assert draws.normal_array(key, index, 1).tolist() == [expected]
    # the same value wherever a block starts or ends
    assert draws.normal_array(key, pair, 4).tolist()[index - pair] == expected
    # and within rounding of the exact transform
    exact = math.sqrt(-2.0 * math.log(1.0 - u)) * (math.cos, math.sin)[index % 2](2.0 * math.pi * v)
    assert abs(expected - exact) <= 1e-14 * max(1.0, abs(exact))


def test_streams_differ_by_seed_and_purpose():
    keys = {draws.stream_key(seed, purpose) for seed in range(50) for purpose in range(5)}
    assert len(keys) == 250


@pytest.mark.parametrize("env, cfg", [
    (chain_env(6, 2, "bernoulli"), PolicyConfig("eps_mats", epsilon=0.3, c=2.0)),
    (chain_env(5, 3, "poisson"), PolicyConfig("ucb_baseline", ucb_range=1.0)),
    (lower_bound_env(2, 3, 3.5, 0.5), PolicyConfig("eps_mats", epsilon=1.0, c=1.0)),
    (lower_bound_env(2, 3, 3.5, 0.5), PolicyConfig("random")),
    (chain_env(4, 2, "bernoulli"), PolicyConfig("random")),
], ids=["gates", "poisson", "eps1_gaussian", "candidates", "random"])
def test_trace_independent_of_block_schedule(monkeypatch, env, cfg):
    wide = run_trial(env, cfg, 300, 5, 50)
    monkeypatch.setattr(draws, "BLOCK_CAP", 1)
    narrow = run_trial(env, cfg, 300, 5, 50)
    assert trace_data(narrow) == trace_data(wide)


def test_trial_independent_of_trial_count():
    env = chain_env(6, 2, "bernoulli")
    cfg = PolicyConfig("eps_mats", epsilon=0.2, c=2.0)
    batch = run_experiment(ExperimentSpec(env, cfg, 300, 6, 40, 100))
    for i in (0, 3, 5):
        assert trace_data(run_trial(env, cfg, 300, 40 + i, 100)) == trace_data(batch.traces[i])


def test_epsilon_zero_never_passes_and_epsilon_one_always_does():
    # epsilon 0 is refused, so no trial draws a gate at it
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\], got 0.0"):
        TrialDraws(3).passes(0.0, 37)
    every = TrialDraws(3)
    for _ in range(100):
        assert every.passes(1.0, 37) == list(range(37))


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("eps", [0.0, -0.5, 1.5, math.nan, -math.inf])
def test_passes_refuse_epsilon_outside_zero_to_one(wide, eps):
    # unrefused, NaN gives gaps of -2**63 + 1 and a row loop that never
    # ends, and a negative epsilon silently never passes
    rng = TrialDraws(1, wide)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
        rng.passes(eps, 10)
    assert rng.gate is None
    # the refusal binds no gate, so the trial can still draw at a valid epsilon
    assert len(rng.passes(1.0, 10)) == 10


def test_gaps_follow_the_kernel_log():
    # quotients that are integers (u = 0.5 and 0.75 at eps = 0.5) give
    # exact gaps, since log(1/2) and log(1/4) are -log 2 and -2 log 2
    u = np.concatenate([[0.5, 0.75, 0.0], draws.uniforms(draws.stream_key(4, 0), 0, 500)])
    for eps in (0.5, 0.3, 1e-3):
        scale = math.log1p(-eps)
        expected = [math.floor(reference_log(1.0 - x) / scale) + 1 for x in u.tolist()]
        assert draws.gaps(u, scale).tolist() == expected
    assert draws.gaps(u[:3], math.log1p(-0.5)).tolist() == [2, 3, 1]


def test_tiny_epsilon_passes_nowhere_within_the_horizon():
    # log1p(-u) / log1p(-5e-324) overflows a float, and its floor an int64,
    # unless the gap is clipped first
    rng = TrialDraws(11)
    with np.errstate(all="raise"):
        assert not any(rng.passes(5e-324, 500) for _ in range(2000))
    # the clipped first gap puts the first pass at slot MAX_GAP
    assert rng.next_pass == draws.MAX_GAP - 2000 * 500


def test_passes_are_independent_bernoulli_per_slot():
    # every slot passes with probability eps, independently of its
    # neighbour: per-offset counts and adjacent-pair counts stay in band
    eps, width, rounds = 0.3, 7, 20_000
    rng = TrialDraws(2)
    hits = np.zeros(width)
    pairs = 0
    for _ in range(rounds):
        offsets = rng.passes(eps, width)
        hits[offsets] += 1
        pairs += sum(1 for a, b in zip(offsets, offsets[1:]) if b == a + 1)
    sigma = math.sqrt(rounds * eps * (1 - eps))
    assert np.all(np.abs(hits - rounds * eps) <= 5 * sigma)
    n_pairs = rounds * (width - 1)
    expect = n_pairs * eps * eps
    assert abs(pairs - expect) <= 5 * math.sqrt(expect * (1 - eps * eps))


def test_one_trial_keeps_one_epsilon_and_width():
    rng = TrialDraws(1)
    rng.passes(0.1, 4)
    with pytest.raises(ValueError, match="epsilon 0.1 over 4 slots"):
        rng.passes(0.2, 4)
    with pytest.raises(ValueError, match="not 0.1 over 5"):
        rng.passes(0.1, 5)
    with pytest.raises(ValueError, match="not 0.0 over 4"):
        rng.passes(0.0, 4)
