import functools
import hashlib
import math
import os
import re
import sysconfig
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, stdtr

from quanto_bayes import _native_check, inference
from quanto_bayes.inference import (
    PARAMETERS,
    Chain,
    NiwHyperparams,
    ProposalSpec,
    conjugate_sample,
    default_proposals,
    exact_posterior_draws,
    mle_estimate,
    mwg_sample,
    niw_posterior,
    _proposal_log_kernel,
)
from quanto_bayes.model import ReturnPanel, Theta

from conftest import TRUTH, fixture_panel, synth_panel
from oracles import (PosteriorKernel, reference_logpdf, reference_mwg_sample,
                     reference_proposal_stream, spectral_nse)


# ---------------------------------------------------------------------------
# Posterior kernels
# ---------------------------------------------------------------------------

def test_joint_posterior_hand_value_on_antithetic_panel():
    # x and h mean-free, theta = (1, 1, 0): kernel reduces to the two quadratics
    x = np.array([0.011, -0.011, 0.004, -0.004])
    h = np.array([0.006, -0.006, -0.002, 0.002])
    panel = ReturnPanel(x, h)
    expected = -np.sum(x ** 2) / 2.0 - np.sum(h ** 2) / 2.0
    got = PosteriorKernel(panel).log_joint(1.0, 1.0, 1e-300)
    assert got == pytest.approx(expected, rel=1e-12)


def test_conditionals_match_joint_differences(panel_small):
    kern = PosteriorKernel(panel_small)
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        sx1, sx2, sh1, sh2, sx0, sh0 = rng.uniform(5e-4, 0.05, 6)
        r1, r2, r0 = rng.uniform(-0.9, 0.9, 3)
        d_cond = kern.log_cond_sigma_x(sx1, sh0, r0) - kern.log_cond_sigma_x(sx2, sh0, r0)
        d_joint = kern.log_joint(sx1, sh0, r0) - kern.log_joint(sx2, sh0, r0)
        worst = max(worst, abs(d_cond - d_joint))
        d_cond = kern.log_cond_sigma_h(sh1, sx0, r0) - kern.log_cond_sigma_h(sh2, sx0, r0)
        d_joint = kern.log_joint(sx0, sh1, r0) - kern.log_joint(sx0, sh2, r0)
        worst = max(worst, abs(d_cond - d_joint))
        d_cond = kern.log_cond_rho(r1, sx0, sh0) - kern.log_cond_rho(r2, sx0, sh0)
        d_joint = kern.log_joint(sx0, sh0, r1) - kern.log_joint(sx0, sh0, r2)
        worst = max(worst, abs(d_cond - d_joint))
    assert worst < 1e-10


def test_kernels_return_neg_inf_outside_support(panel_small):
    kern = PosteriorKernel(panel_small)
    assert kern.log_cond_sigma_x(0.0, 0.004, 0.0) == -math.inf
    assert kern.log_cond_sigma_x(-0.1, 0.004, 0.0) == -math.inf
    assert kern.log_cond_sigma_h(0.0, 0.006, 0.0) == -math.inf
    assert kern.log_cond_rho(1.0, 0.006, 0.004) == -math.inf
    assert kern.log_cond_rho(-1.0, 0.006, 0.004) == -math.inf
    assert kern.log_joint(0.006, 0.004, 1.2) == -math.inf


def test_kernels_never_abort_on_underflowing_volatility(panel_small):
    # 5e-324 is positive but its square underflows to zero
    kern = PosteriorKernel(panel_small)
    tiny = 5e-324
    assert kern.log_cond_sigma_x(tiny, 0.004, 0.1) == -math.inf
    assert kern.log_cond_sigma_h(tiny, 0.006, 0.1) == -math.inf
    assert kern.log_cond_rho(0.1, tiny, tiny) == -math.inf
    assert kern.log_joint(tiny, tiny, 0.1) == -math.inf


def test_sigma_kernels_diverge_to_neg_inf_at_origin(panel_small):
    kern = PosteriorKernel(panel_small)
    # 1/sigma^2 beats the log term, so the limit is -inf
    values = [kern.log_cond_sigma_x(s, 0.004, 0.1) for s in (1e-3, 1e-5, 1e-8)]
    assert values[0] > values[1] > values[2]
    assert values[2] < -1e6
    values = [kern.log_cond_sigma_h(s, 0.006, 0.1) for s in (1e-3, 1e-5, 1e-8)]
    assert values[2] < -1e6


def test_rho_kernel_even_when_cross_moment_vanishes():
    x = np.array([0.01, 0.01, -0.01, -0.01])
    h = np.array([0.004, -0.004, 0.004, -0.004])
    panel = ReturnPanel(x, h)
    assert panel.sxh == pytest.approx(0.0, abs=1e-18)
    kern = PosteriorKernel(panel)
    for r in (0.2, 0.5, 0.83):
        assert kern.log_cond_rho(r, 0.006, 0.004) == pytest.approx(
            kern.log_cond_rho(-r, 0.006, 0.004), rel=1e-14
        )


def test_rho_kernel_diverges_at_unit_correlation(panel_small):
    kern = PosteriorKernel(panel_small)
    values = [kern.log_cond_rho(r, 0.006, 0.004) for r in (0.9, 0.999, 0.999999)]
    assert values[0] > values[1] > values[2]


def test_zero_rho_sigma_x_kernel_depends_only_on_sxx(panel_small):
    kern = PosteriorKernel(panel_small)
    t = panel_small.n_obs
    for s in (0.004, 0.006, 0.01):
        expected = -t * math.log(s) - panel_small.sxx / (2 * s * s)
        assert kern.log_cond_sigma_x(s, 0.004, 0.0) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# Proposals
# ---------------------------------------------------------------------------

def test_proposal_spec_validation():
    with pytest.raises(ValueError):
        ProposalSpec(family="truncated_normal", loc=0.005, scale=0.0)
    with pytest.raises(ValueError):
        ProposalSpec(family="truncated_t", loc=0.005, scale=0.001, df=2.0)
    with pytest.raises(ValueError):
        ProposalSpec(family="inverse_gamma", shape=1.5, scale=1.0)
    with pytest.raises(ValueError):
        ProposalSpec(family="cauchy", scale=1.0)
    # rho's random walk is a step size, not a density
    with pytest.raises(ValueError, match="unknown proposal family"):
        ProposalSpec(family="normal", scale=0.1)


@pytest.mark.parametrize("family, df", [("truncated_normal", None), ("truncated_t", 5.0)])
def test_truncated_proposals_more_than_a_scale_below_zero_are_refused(family, df):
    # -loc/scale > 1 would keep fewer than 0.16 of the plain candidates
    for loc, scale in ((-1.0, 0.05), (-0.0200001, 0.02), (-1.0, 1e-300)):
        message = f"{family} needs -loc/scale <= 1, got loc={loc}, scale={scale}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ProposalSpec(family=family, loc=loc, scale=scale, df=df)
    # a truncation point exactly one scale above loc is still drawn
    assert ProposalSpec(family=family, loc=-0.01, scale=0.01, df=df).loc == -0.01


def test_truncated_normal_proposals_stay_positive():
    from quanto_bayes.inference import _proposal_stream

    spec = ProposalSpec(family="truncated_normal", loc=0.005, scale=0.002)
    rng = np.random.default_rng(1)
    draws = _proposal_stream(spec, rng, 1_000_000)
    assert draws.shape == (1_000_000,)
    assert np.all(draws > 0.0)
    # the smallest requests: one draw, and none
    assert _proposal_stream(spec, rng, 1)[0] > 0.0
    assert _proposal_stream(spec, rng, 0).shape == (0,)


def _truncated_cdf(spec):
    """CDF of a truncated family on (0, inf) from scipy's normal and t tails."""
    a0 = -spec.loc / spec.scale

    def cdf(v):
        z = (v - spec.loc) / spec.scale
        if spec.family == "truncated_normal":
            return -np.expm1(log_ndtr(-z) - log_ndtr(-a0))
        return 1.0 - stdtr(spec.df, -z) / stdtr(spec.df, -a0)

    return cdf


# a0 = -loc/scale, the truncation point in scales above loc: 1 is the largest
# a ProposalSpec accepts, where the fewest candidates are kept
@pytest.mark.parametrize("a0", [-20.0, 0.25, 1.0])
@pytest.mark.parametrize("family, df", [("truncated_normal", None), ("truncated_t", 2.5),
                                        ("truncated_t", 5.0), ("truncated_t", 30.0)])
def test_truncated_draws_follow_the_truncated_law(family, df, a0):
    from scipy.stats import kstest

    from quanto_bayes.inference import _proposal_stream

    spec = ProposalSpec(family=family, loc=-a0 * 0.01, scale=0.01, df=df)
    draws = _proposal_stream(spec, np.random.default_rng(11), 20_000)
    assert draws.shape == (20_000,)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
    assert kstest(draws, _truncated_cdf(spec)).pvalue > 1e-3


def test_truncated_draws_raise_when_no_draw_is_a_positive_float():
    # a0 = 1, but every candidate above loc + scale overflows to inf
    from quanto_bayes.inference import _proposal_stream

    big = np.finfo(float).max
    for family, df in (("truncated_normal", None), ("truncated_t", 5.0)):
        spec = ProposalSpec(family=family, loc=-big, scale=big, df=df)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=f"no {family} draw .* positive float"):
                _proposal_stream(spec, np.random.default_rng(0), 3)


# loc/scale = 21 keeps every candidate of the first batch, as the window-1840
# defaults do; -loc/scale = 1 rejects most, over several batches
_STREAM_SPECS = {
    "t-no-rejection": ProposalSpec(family="truncated_t", loc=0.0063, scale=0.0003, df=5.0),
    "t-rejections": ProposalSpec(family="truncated_t", loc=-0.0063, scale=0.0063, df=5.0),
    "normal-no-rejection": ProposalSpec(family="truncated_normal", loc=0.0063, scale=0.0003),
    "normal-rejections": ProposalSpec(family="truncated_normal", loc=-0.0063, scale=0.0063),
    # no candidate is negative, but about one in nine overflows to inf and is rejected
    "normal-overflows": ProposalSpec(family="truncated_normal", loc=1.7e308,
                                     scale=1.7e308 / 21.0),
    "inverse-gamma": ProposalSpec(family="inverse_gamma", shape=400.0, scale=401.0 * 0.0063 ** 2),
    "rho-step": 0.1,
}


@pytest.mark.parametrize("n_draws", [0, 1, 40_000])
@pytest.mark.parametrize("case", sorted(_STREAM_SPECS))
def test_proposal_stream_matches_the_fresh_array_oracle_bitwise(case, n_draws):
    spec = _STREAM_SPECS[case]
    for seed in (0, 1, 2):
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = inference._proposal_stream(spec, rng, n_draws)
        expected = reference_proposal_stream(spec, expected_rng, n_draws)
        assert got.shape == (n_draws,) and got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        # the same random numbers were used: the next stream starts where the oracle's does
        assert rng.bit_generator.state == expected_rng.bit_generator.state
    if case.endswith("rejections") and n_draws == 40_000:
        first = np.random.default_rng(2)
        if case.startswith("t-"):
            first.standard_t(5.0, n_draws)
        else:
            first.standard_normal(n_draws)
        assert rng.bit_generator.state != first.bit_generator.state  # drew past one batch


def test_normal_cdf_matches_scipy():
    from quanto_bayes.model import ndtr as float_ndtr

    grid = np.concatenate([np.linspace(-1000.0, 10.0, 2021), np.linspace(-40.0, 10.0, 2001)])
    got = np.array([float_ndtr(float(x)) for x in grid])
    expected = ndtr(grid)
    normal = expected >= np.finfo(float).tiny
    # Rounding x / sqrt(2) costs any float ndtr about x^2 ulp of relative
    # accuracy in the lower tail (scipy's own error reaches 2e-13 at x = -37),
    # so the 1e-15 bound scales with x^2 there.
    bound = 1e-15 * np.maximum(1.0, grid * grid) * expected
    assert np.all(np.abs(got - expected)[normal] <= bound[normal])
    assert np.all(got[~normal] < np.finfo(float).tiny)


def test_inverse_gamma_proposal_mean():
    from quanto_bayes.inference import _proposal_stream

    a, b = 5.0, 6.0 * 0.006 ** 2
    spec = ProposalSpec(family="inverse_gamma", shape=a, scale=b)
    rng = np.random.default_rng(2)
    sq = _proposal_stream(spec, rng, 200_000) ** 2
    target = b / (a - 1.0)
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert sq.mean() == pytest.approx(target, abs=4 * se)


def test_proposal_logpdf_on_arrays_matches_scalar_reference():
    # the kernel is the normalised reference density less the spec's constant
    values = np.concatenate([[-1.0, 0.0, 5e-324, np.finfo(float).tiny, 1e-160],
                             np.linspace(1e-4, 0.05, 200), [1.0, 50.0]])
    for spec in (
        ProposalSpec(family="truncated_normal", loc=0.005, scale=0.002),
        ProposalSpec(family="truncated_t", loc=0.005, scale=0.002, df=5.0),
        ProposalSpec(family="inverse_gamma", shape=5.0, scale=6.0 * 0.006 ** 2),
    ):
        got = _proposal_log_kernel(spec, values)
        reference = reference_logpdf(spec)
        expected = np.array([reference(float(v)) for v in values])
        assert got.shape == values.shape
        assert np.array_equal(np.isneginf(got), np.isneginf(expected)), spec.family
        finite = np.isfinite(expected)
        # relative to the summands, since kernel + constant crosses zero
        miss = np.abs(got[finite] + reference.const - expected[finite])
        scale = np.abs(got[finite]) + abs(reference.const)
        assert np.all(miss <= 1e-13 * scale), spec.family


# ---------------------------------------------------------------------------
# Reference sampler (oracles.reference_mwg_sample) on targets with known moments
# ---------------------------------------------------------------------------

class _FlatKernel:
    def log_cond_sigma_x(self, v, sh, r):
        return 0.0

    log_cond_sigma_h = log_cond_rho = log_cond_sigma_x


class _PointKernel:
    """Zero at the initial point, -inf everywhere else."""

    def __init__(self, point):
        self.point = point

    def log_cond_sigma_x(self, v, sh, r):
        return 0.0 if v == self.point.sigma_x else -math.inf

    def log_cond_sigma_h(self, v, sx, r):
        return 0.0 if v == self.point.sigma_h else -math.inf

    def log_cond_rho(self, v, sx, sh):
        return 0.0 if v == self.point.rho else -math.inf


def test_mh_acceptance_is_one_for_flat_target_symmetric_proposal():
    # detailed balance degenerate case: alpha identically 1, so every move is taken
    steps = (1e-3,) * 3
    chain = reference_mwg_sample(None, steps, 500, 100, init=Theta(0.5, 0.5, 0.0),
                                  seed=4, kernel=_FlatKernel())
    assert chain.acceptance_counts.tolist() == [500, 500, 500]
    assert chain.warnings == ()
    assert np.all(np.diff(chain.draws, axis=0) != 0.0)


def test_mh_acceptance_rejects_out_of_support_candidates():
    init = Theta(0.5, 0.5, 0.0)
    specs = (ProposalSpec(family="truncated_normal", loc=0.5, scale=0.1),
             ProposalSpec(family="inverse_gamma", shape=5.0, scale=1.0),
             0.1)
    chain = reference_mwg_sample(None, specs, 300, 50, init=init, seed=5,
                                  kernel=_PointKernel(init))
    assert chain.acceptance_counts.tolist() == [0, 0, 0]
    assert np.all(chain.draws == init.as_tuple())
    assert len(chain.warnings) == 3
    for name in ("sigma_x", "sigma_h", "rho"):
        assert any(name in w for w in chain.warnings)


class _ToyKernel:
    """Independent truncated standard normals for the volatilities, and a
    standard normal truncated to (-1, 1) for rho."""

    def log_cond_sigma_x(self, v, sh, r):
        return -0.5 * v * v if v > 0.0 else -math.inf

    def log_cond_sigma_h(self, v, sx, r):
        return -0.5 * v * v if v > 0.0 else -math.inf

    def log_cond_rho(self, v, sx, sh):
        return -0.5 * v * v if -1.0 < v < 1.0 else -math.inf


def test_mwg_known_target_moments():
    specs = (
        ProposalSpec(family="truncated_normal", loc=0.5, scale=1.0),
        ProposalSpec(family="truncated_normal", loc=0.5, scale=1.0),
        0.5,
    )
    chain = reference_mwg_sample(None, specs, 60_000, 5_000, init=Theta(0.5, 0.5, 0.0),
                                  seed=9, kernel=_ToyKernel())
    seg = chain.post_burn_in()
    half_normal_mean = math.sqrt(2.0 / math.pi)
    from scipy.stats import truncnorm
    rho_target = truncnorm.mean(-1.0, 1.0)
    for col, target in ((0, half_normal_mean), (1, half_normal_mean), (2, rho_target)):
        err = abs(seg[:, col].mean() - target)
        assert err < 4.0 * spectral_nse(seg[:, col])


# ---------------------------------------------------------------------------
# Metropolis-within-Gibbs
# ---------------------------------------------------------------------------

# mwg_sample's sweep loop runs in C when it can be built, else in Python; the
# MwG tests below run on each. The C loop is built into a fresh directory by
# the loader mwg_sample uses, so a C loop that cannot be built or that fails
# the loader's self-check fails its tests. A case keeps its old id on the
# Python loop and adds "-native" on the C loop.

@pytest.fixture(scope="module")
def native_library(tmp_path_factory):
    with open(inference._NATIVE_SOURCE, "rb") as f:
        return inference._load_native(str(tmp_path_factory.mktemp("native")), f.read())


@pytest.fixture(scope="module")
def native_sweep(native_library):
    return native_library.sweep


@pytest.fixture
def loop(request, monkeypatch):
    """mwg_sample runs the C loop ("native") or the Python loop ("python")."""
    native = (request.getfixturevalue("native_library") if request.param == "native"
              else inference._PYTHON)
    monkeypatch.setattr(inference, "_native", lambda: native)


def _on_both_loops(cases):
    """pytest params for each (values, id) case, with a ``loop`` value last."""
    return [pytest.param(*values, loop, id=case_id + ("-native" if loop == "native" else ""))
            for values, case_id in cases for loop in ("python", "native")]


def _assert_same_chain(got, expected):
    assert np.array_equal(got.draws, expected.draws)
    assert np.array_equal(got.acceptance_counts, expected.acceptance_counts)
    assert got.warnings == expected.warnings


_EQUIVALENCE_PANELS = {
    "panel_small": lambda: synth_panel(500, seed=501),
    "synth_60_90": lambda: synth_panel(60, seed=90),
    "fixture_w140": lambda: fixture_panel(140),
    "fixture_w1840": lambda: fixture_panel(1840),
    "synth_5": lambda: synth_panel(5, seed=17),
    # sample rho 0.889: 1 - rho^2 is small, so rho's kernel term is large
    "synth_200_rho90": lambda: synth_panel(200, seed=90, theta=Theta(0.006, 0.004, 0.9)),
    # sample rho 0.9945: most wide rho steps leave (-1, 1)
    "synth_200_rho995": lambda: synth_panel(200, seed=90, theta=Theta(0.006, 0.004, 0.995)),
}

# rho's random-walk step: the default; 1.0, at which tnn and ign accept no rho
# move on synth_200_rho995 at seed 11, so non-empty warnings are compared; and
# 1e-9, at which every rho move is accepted, so rho's accept block runs on
# every sweep. The default step keeps the case id it had alone.
_EQUIVALENCE_CASES = _on_both_loops(
    ((panel_name, code, step), f"{panel_name}-{code}" + ("" if step == 0.1 else f"-step{step:g}"))
    for panel_name in sorted(_EQUIVALENCE_PANELS)
    for code in ("ign", "tnn", "ttn")
    for step in (0.1, 1.0, 1e-9)
)


@pytest.mark.parametrize("panel_name, code, rho_step, loop", _EQUIVALENCE_CASES,
                         indirect=["loop"])
def test_mwg_matches_reference_sampler_bitwise(panel_name, code, rho_step, loop):
    panel = _EQUIVALENCE_PANELS[panel_name]()
    specs = default_proposals(code, panel, rho_step=rho_step)
    init = mle_estimate(panel)
    for seed in (11, 12, 13):
        _assert_same_chain(mwg_sample(panel, specs, 2000, 400, init=init, seed=seed),
                           reference_mwg_sample(panel, specs, 2000, 400, init=init,
                                                 seed=seed))


def _patch_streams(monkeypatch, edit):
    """Let ``edit(index, stream)`` change parameter ``index``'s proposal stream
    in place, after the real stream has consumed its random numbers."""
    real = inference._proposal_stream
    calls = []

    def stream(spec, rng, n_draws):
        out = real(spec, rng, n_draws)
        edit(len(calls) % 3, out)
        calls.append(spec)
        return out

    monkeypatch.setattr(inference, "_proposal_stream", stream)


@pytest.mark.parametrize("code, loop", _on_both_loops(((c,), c) for c in ("ttn", "tnn", "ign")),
                         indirect=["loop"])
def test_mwg_rejects_volatility_candidates_whose_inverse_square_overflows(
        panel_small, monkeypatch, code, loop):
    tiny = np.finfo(float).tiny
    # 1/c^2 is inf for each: c^2 underflows to zero, or to a subnormal below 1/max
    near_tiny = np.array([tiny, 2.0 * tiny, 1e-300, 1e-160])

    def edit(index, out):
        if index < 2:
            out[::3] = np.resize(near_tiny, out[::3].size)

    _patch_streams(monkeypatch, edit)
    specs = default_proposals(code, panel_small)
    init = mle_estimate(panel_small)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = mwg_sample(panel_small, specs, 1500, 300, init=init, seed=21)
    assert np.all(chain.draws[:, :2] > 1e-100)
    assert np.all(chain.acceptance_counts > 0)
    # the reference's inverse-gamma density is a numpy scalar, so there
    # -inf - -inf warns as well as rejecting
    with np.errstate(invalid="ignore"):
        expected = reference_mwg_sample(panel_small, specs, 1500, 300, init=init, seed=21)
    _assert_same_chain(chain, expected)


@pytest.mark.parametrize("loop", ["python", "native"], indirect=True)
def test_mwg_rejects_rho_steps_that_leave_the_open_interval(panel_small, monkeypatch, loop):
    # from rho = 0.5 these land on 1, -1, 1.1, -2, +-inf and NaN
    steps = np.array([0.5, -1.5, 0.6, -2.5, np.inf, -np.inf, np.nan])

    def edit(index, out):
        if index == 2:
            out[:] = np.resize(steps, out.size)

    _patch_streams(monkeypatch, edit)
    specs = default_proposals("tnn", panel_small)
    est = mle_estimate(panel_small)
    init = Theta(est.sigma_x, est.sigma_h, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = mwg_sample(panel_small, specs, 700, 100, init=init, seed=22)
    assert chain.acceptance_counts[2] == 0
    assert np.all(chain.draws[:, 2] == 0.5)
    assert chain.warnings == ("no accepted moves for rho after burn-in",)
    _assert_same_chain(chain, reference_mwg_sample(panel_small, specs, 700, 100,
                                                    init=init, seed=22))


def test_mwg_rejects_unsupported_proposal_families(panel_small):
    independence, _, step = default_proposals("tnn", panel_small)
    init = mle_estimate(panel_small)
    for name, specs in (("sigma_x", (step, independence, step)),
                        ("sigma_x", (None, independence, step)),
                        ("sigma_h", (independence, step, step)),
                        ("sigma_h", (independence, "truncated_normal", step)),
                        ("rho", (independence, independence, independence)),
                        ("rho", (independence, independence, "0.1")),
                        ("rho", (independence, independence, None)),
                        ("rho", (independence, independence, 0.0)),
                        ("rho", (independence, independence, math.nan)),
                        ("rho", (independence, independence, math.inf))):
        with pytest.raises(ValueError, match=name):
            mwg_sample(panel_small, specs, 100, 10, init=init, seed=0)


def test_mwg_reproducible_bit_for_bit(panel_small):
    specs = default_proposals("tnn", panel_small)
    init = mle_estimate(panel_small)
    a = mwg_sample(panel_small, specs, 3000, 500, init=init, seed=77)
    b = mwg_sample(panel_small, specs, 3000, 500, init=init, seed=77)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.acceptance_counts, b.acceptance_counts)
    assert a.warnings == b.warnings
    c = mwg_sample(panel_small, specs, 3000, 500, init=init, seed=78)
    assert not np.array_equal(a.draws, c.draws)


# sha256 of draws.tobytes() and the acceptance counts of a 2000-sweep chain
# (burn-in 500, seed 77) on panel_small: the sampler's random-stream layout
# and arithmetic, pinned bit for bit. ttn and tnn pin the rejection sampler's
# streams of plain t and normal variates.
_PINNED_CHAINS = {
    "ttn": ("b9c3adaee3b5a42a9be51db3e77c9fcddf70800c8275ec216c3967bedbd3e958",
            [824, 851, 926]),
    "tnn": ("55f17f1db0f6e42380187f1d64e335268ef1ff9a5c9dff9119fbd156f790d0d2",
            [878, 898, 931]),
    "ign": ("07af978ba7bfed6c941fa11bc0d4bd564c59bc7d478a060e3f1ffe11a97885db",
            [901, 910, 901]),
}


@pytest.mark.parametrize("code, loop", _on_both_loops(((c,), c) for c in sorted(_PINNED_CHAINS)),
                         indirect=["loop"])
def test_mwg_pinned_draws(panel_small, code, loop):
    chain = mwg_sample(panel_small, default_proposals(code, panel_small), 2000, 500,
                       init=mle_estimate(panel_small), seed=77)
    digest, counts = _PINNED_CHAINS[code]
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == digest
    assert chain.acceptance_counts.tolist() == counts


def test_mwg_draws_stay_in_support(panel_small):
    for code in ("ttn", "tnn", "ign"):
        chain = mwg_sample(panel_small, default_proposals(code, panel_small),
                           4000, 1000, init=mle_estimate(panel_small),
                           seed=5)
        draws = chain.post_burn_in()
        assert np.all(draws[:, 0] > 0)
        assert np.all(draws[:, 1] > 0)
        assert np.all(np.abs(draws[:, 2]) < 1)
        assert chain.warnings == ()
        for name in ("sigma_x", "sigma_h", "rho"):
            assert 0.0 <= chain.acceptance_rate(name) <= 1.0


@pytest.mark.parametrize("loop", ["python", "native"], indirect=True)
def test_mwg_zero_acceptance_warning(panel_small, loop):
    # proposals far outside the posterior mass: every candidate is rejected
    specs = (
        ProposalSpec(family="truncated_normal", loc=50.0, scale=1e-6),
        ProposalSpec(family="truncated_normal", loc=50.0, scale=1e-6),
        1e-12,
    )
    init = mle_estimate(panel_small)
    chain = mwg_sample(panel_small, specs, 500, 100, init=init, seed=3)
    assert any("sigma_x" in w for w in chain.warnings)
    # rho's tiny random walk still accepts, so it raises no warning
    assert not any("rho" in w for w in chain.warnings)


def test_a_compiler_that_cannot_run_leaves_the_python_loop_and_no_file(
        panel_small, monkeypatch, tmp_path):
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    specs = default_proposals("tnn", panel_small)
    init = mle_estimate(panel_small)
    inference._native.cache_clear()
    try:
        chain = mwg_sample(panel_small, specs, 2000, 500, init=init, seed=77)
        assert inference._native() is inference._PYTHON
    finally:
        inference._native.cache_clear()
    _assert_same_chain(chain, reference_mwg_sample(panel_small, specs, 2000, 500,
                                                    init=init, seed=77))
    assert os.listdir(tmp_path / "quanto-bayes") == []


def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    """The XDG Base Directory spec makes a relative $XDG_CACHE_HOME invalid,
    so the library is built under ~/.cache and nothing appears in the
    working directory."""
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.chdir(cwd)
    inference._native.cache_clear()
    try:
        assert inference._native() is not inference._PYTHON
    finally:
        inference._native.cache_clear()
    assert os.listdir(cwd) == []
    built = os.listdir(home / ".cache" / "quanto-bayes")
    assert len(built) == 1 and re.fullmatch(r"native-[0-9a-f]{64}\.so", built[0])


@pytest.mark.parametrize("home", ["relhome", None])
def test_a_relative_home_gives_the_python_twin(home, tmp_path, monkeypatch):
    """With no absolute cache directory, neither $XDG_CACHE_HOME nor a home
    ($HOME relative, or unset with no passwd entry, where ~ stays as it is),
    the library is not built, least of all into the working directory."""
    import pwd

    def no_entry(uid):
        raise KeyError(uid)

    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    if home is None:
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(pwd, "getpwuid", no_entry)
    else:
        monkeypatch.setenv("HOME", home)
    monkeypatch.chdir(tmp_path)
    inference._native.cache_clear()
    try:
        assert inference._native() is inference._PYTHON
    finally:
        inference._native.cache_clear()
    assert os.listdir(tmp_path) == []


def test_a_compiled_sweep_that_differs_from_the_python_loop_is_not_kept(tmp_path, monkeypatch):
    with open(inference._NATIVE_SOURCE, "rb") as f:
        source = f.read()
    mutant = source.replace(b"(i2x[k] - i2_x)", b"(i2_x - i2x[k])")
    assert mutant != source
    moved = []
    real_replace = os.replace

    def replace(src, dst):
        moved.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(RuntimeError, match="differs from the Python loop"):
        inference._load_native(str(tmp_path), mutant)
    assert moved == [] and os.listdir(tmp_path) == []
    # the shipped source passes the same self-check and is moved into place
    inference._load_native(str(tmp_path), source)
    assert len(moved) == 1 and os.listdir(tmp_path) == moved


def test_the_c_sweep_refuses_arrays_it_would_index_out_of_bounds(native_sweep):
    def arrays(**bad):
        good = {"streams": [np.zeros(4)] * 12, "draws": np.full((4, 3), np.nan),
                "state": np.zeros(14), "tally": np.full(6, 7, dtype=np.int64)}
        return {**good, **bad}

    # zero streams reject every move, so every row holds the zero state
    args = arrays()
    native_sweep(4, *args.values(), 1.0, 1.0, 1.0, 1.0)
    assert np.array_equal(args["draws"], np.zeros((4, 3)))
    assert args["tally"].tolist() == [0, 0, 0, -1, -1, -1]

    read_only = np.full(6, 7, dtype=np.int64)
    read_only.setflags(write=False)
    for bad in ({"streams": [np.zeros(4)] * 11}, {"streams": [np.zeros(3)] * 12},
                {"streams": [np.zeros(4, dtype=np.float32)] * 12},
                {"streams": [np.zeros(8)[::2]] * 12}, {"draws": np.full((3, 4), np.nan).T},
                {"draws": np.full((4, 3), np.nan, dtype=np.float32)}, {"state": np.zeros(12)},
                {"state": np.zeros(15)}, {"tally": np.full(5, 7, dtype=np.int64)},
                {"tally": np.full(6, 7.0)}, {"tally": np.full(12, 7, dtype=np.int64)[::2]},
                {"tally": read_only}):
        args = arrays(**bad)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            native_sweep(4, *args.values(), 1.0, 1.0, 1.0, 1.0)
        # no C code ran: it writes every row and the whole tally
        assert np.isnan(args["draws"]).all() and np.all(args["tally"] == 7)


def test_a_compiled_formatter_that_rounds_ties_up_is_not_kept(tmp_path, monkeypatch):
    with open(inference._NATIVE_SOURCE, "rb") as f:
        source = f.read()
    mutant = source.replace(b"q + (r > half ||", b"q + (r >= half ||")
    assert mutant != source
    moved = []
    monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(dst))
    with pytest.raises(RuntimeError, match=re.escape("differs from Python's %.17g")):
        inference._load_native(str(tmp_path), mutant)
    assert moved == [] and os.listdir(tmp_path) == []


@pytest.mark.parametrize("old, new", [
    # 1e5, which draws_text never writes, is read
    (b"if (p == end || (*p != '+' && *p != '-'))\n                    return -1;\n"
     b"                p++;",
     b"if (p < end && (*p == '+' || *p == '-'))\n                    p++;"),
], ids=["unsigned-exponent"])
def test_a_compiled_reader_that_differs_from_float_is_not_kept(tmp_path, monkeypatch, old, new):
    with open(inference._NATIVE_SOURCE, "rb") as f:
        source = f.read()
    mutant = source.replace(old, new)
    assert mutant != source
    moved = []
    monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(dst))
    with pytest.raises(RuntimeError, match="differs from Python's float"):
        inference._load_native(str(tmp_path), mutant)
    assert moved == [] and os.listdir(tmp_path) == []


def test_the_reader_self_check_needs_the_round_trip_and_every_refusal(native_library):
    reader = native_library.draws_values
    assert _native_check.reads_as_python(reader)
    assert not _native_check.reads_as_python(inference._PYTHON.draws_values)

    def off_by_one_bit(text):
        values = reader(text)
        values.view(np.int64)[-1, -1] ^= 1
        return values

    assert not _native_check.reads_as_python(off_by_one_bit)
    for body in _native_check.NOT_DRAWS_TEXT:
        assert reader(body) is None, body

        def lenient(text, body=body):
            return np.full((1, 3), 0.5) if text == body else reader(text)

        assert not _native_check.reads_as_python(lenient), body


def test_the_c_draws_values_takes_only_bytes(native_library):
    assert native_library.draws_values(b"0.5,0.25,-1e-05\n").tolist() == [[0.5, 0.25, -1e-05]]
    for bad in (bytearray(b"0.5,0.25,-1e-05\n"), "0.5,0.25,-1e-05\n", None):
        with pytest.raises(ValueError, match="needs bytes"):
            native_library.draws_values(bad)


def test_the_c_draws_text_refuses_blocks_it_would_overrun(native_library):
    rows = np.full((4, 3), 0.5)
    out = bytearray(25 * rows.size)
    assert native_library.draws_text(rows, out) == (48, 0)
    assert out[:48] == b"0.5,0.5,0.5\n" * 4
    for bad_rows, size in ((np.full((4, 6), 0.5)[:, ::2], 300), (rows.astype(np.float32), 300),
                           (rows.ravel(), 300), (rows, 299), (np.full((4, 2), 0.5), 300),
                           (np.full((4, 4), 0.5), 400)):
        out = bytearray(size)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            native_library.draws_text(bad_rows, out)
        assert out == bytearray(size)  # no C code ran


def test_mwg_recovers_synthetic_truth():
    panel = synth_panel(2000, seed=31)
    for code in ("ttn", "tnn", "ign"):
        chain = mwg_sample(panel, default_proposals(code, panel), 20_000, 4_000,
                           init=mle_estimate(panel), seed=32)
        seg = chain.post_burn_in()
        for col, true_value in enumerate(TRUTH.as_tuple()):
            mean = seg[:, col].mean()
            sd = seg[:, col].std(ddof=1)
            assert abs(mean - true_value) < 3.0 * sd, (code, col)


class _CountingRng:
    """A numpy generator that counts the normals drawn through it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.normals = 0

    def standard_normal(self, size):
        self.normals += size
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# name: (panel, rho grid ends); each grid holds all but 1e-6 of the mass
_QUADRATURE_PANELS = {
    "synthetic": (lambda: synth_panel(60, seed=90), (-0.95, 0.95)),
    "high-rho": (lambda: synth_panel(60, seed=93, theta=Theta(0.006, 0.004, 0.9)),
                 (0.6, 0.995)),
}


@functools.lru_cache(maxsize=None)
def _posterior_quadrature(name):
    """(panel, {parameter: (mean, sd)}) by direct numerical integration of
    the joint kernel over a grid."""
    make_panel, (rho_lo, rho_hi) = _QUADRATURE_PANELS[name]
    panel = make_panel()
    kern = PosteriorKernel(panel)
    est = mle_estimate(panel)

    gx = np.linspace(0.5 * est.sigma_x, 2.2 * est.sigma_x, 72)
    gh = np.linspace(0.5 * est.sigma_h, 2.2 * est.sigma_h, 72)
    gr = np.linspace(rho_lo, rho_hi, 73)
    logpost = np.empty((gx.size, gh.size, gr.size))
    for i, sx in enumerate(gx):
        for j, sh in enumerate(gh):
            for k, r in enumerate(gr):
                logpost[i, j, k] = kern.log_joint(sx, sh, r)
    weight = np.exp(logpost - logpost.max())
    total = weight.sum()
    for axis in range(3):
        edges = np.moveaxis(weight, axis, 0)
        assert edges[0].sum() / total < 1e-6 and edges[-1].sum() / total < 1e-6, (name, axis)

    moments = {}
    for axis, (values, parameter) in enumerate(zip((gx, gh, gr), PARAMETERS)):
        marginal = weight.sum(axis=tuple(a for a in range(3) if a != axis))
        mean = float((values * marginal).sum() / marginal.sum())
        var = float((((values - mean) ** 2) * marginal).sum() / marginal.sum())
        moments[parameter] = (mean, math.sqrt(var))
    return panel, moments


@pytest.mark.parametrize("panel_name", list(_QUADRATURE_PANELS))
@pytest.mark.parametrize("sampler", ["mwg", "exact"])
def test_mwg_marginals_match_posterior_quadrature(sampler, panel_name):
    """Sampler moments vs direct numerical integration of the joint kernel.

    Small panels keep the posterior wide enough for a modest grid; the
    quadrature oracle shares only the kernel, so this checks the whole
    proposal / acceptance / sweep machinery of MwG and the inverse-Wishart
    partition and accept step of the exact draw. On the high-rho panel the
    exact draw accepts about sqrt(1 - rho^2) of its candidates.
    """
    panel, moments = _posterior_quadrature(panel_name)
    if sampler == "mwg":
        chain = mwg_sample(panel, default_proposals("ttn", panel), 40_000, 5_000,
                           init=mle_estimate(panel), seed=91)
        draws = chain.post_burn_in()
        nse = [spectral_nse(column) for column in draws.T]
    else:
        n = 40_000
        rng = _CountingRng(92)
        draws = exact_posterior_draws(np.full(n, panel.n_obs), panel.sxx, panel.shh,
                                      panel.sxh, rng)
        nse = draws.std(axis=0, ddof=1) / math.sqrt(n)  # the draws are independent
        if panel_name == "high-rho":
            assert rng.normals > n  # some candidates were rejected and drawn again
    for column, name in enumerate(PARAMETERS):
        q_mean, q_sd = moments[name]
        values = draws[:, column]
        assert abs(values.mean() - q_mean) < 4.0 * nse[column] + 0.01 * q_sd, name
        assert values.std(ddof=1) == pytest.approx(q_sd, rel=0.05), name


def test_exact_posterior_draws_broadcast_reproduce_and_validate(panel_small):
    stats = (panel_small.n_obs, panel_small.sxx, panel_small.shh, panel_small.sxh)
    one = exact_posterior_draws(*stats, np.random.default_rng(5))
    assert one.shape == (1, 3)
    # one row per entry of the broadcast inputs; a fixed state repeats them
    many = exact_posterior_draws(np.array([3, 10, 500]), *stats[1:], np.random.default_rng(5))
    again = exact_posterior_draws(np.array([3, 10, 500]), *stats[1:], np.random.default_rng(5))
    assert many.shape == (3, 3) and np.array_equal(many, again)
    assert np.all(many[:, :2] > 0.0) and np.all(np.abs(many[:, 2]) < 1.0)
    with pytest.raises(ValueError, match="at least 3 observations"):
        exact_posterior_draws([3, 2], *stats[1:], np.random.default_rng(5))
    sxx = panel_small.sxx
    for bad in ((sxx, 1.0, 1.0), (sxx, sxx, sxx), (0.0, 1.0, 0.0), (math.inf, 1.0, 0.0)):
        with pytest.raises(ValueError, match="finite and positive definite"):
            exact_posterior_draws(10, *bad, np.random.default_rng(5))


def test_both_exact_samplers_refuse_a_bad_scale_alike_before_any_draw(panel_small):
    # not positive definite, a zero S11, non-finite entries, and positive
    # definite scales whose determinant, slope S12/S11 or ratio S22.1/S11
    # overflows; on the last two the exact sampler would reject every round
    sxx = panel_small.sxx
    for s11, s22, s12 in ((sxx, 1.0, 1.0), (sxx, sxx, sxx), (0.0, 1.0, 0.0),
                          (math.inf, 1.0, 0.0), (1.0, math.nan, 0.0), (1e200, 1e200, 0.0),
                          (1e-320, 1e301, 1e-10), (1e-300, 1e10, 1e-300)):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as exact:
            exact_posterior_draws(10, s11, s22, s12, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError) as partition:
            inference._partition_draws(s11, s12, s22, 3.0, 4.0, rng, 2)
        assert rng.bit_generator.state == state
        assert str(exact.value) == str(partition.value)
        assert "finite and positive definite" in str(exact.value)
    # a prior scale of 1e300 gives a posterior scale whose determinant overflows
    with pytest.raises(ValueError) as conjugate:
        conjugate_sample(fixture_panel(140), NiwHyperparams(scale=1e300), 10, seed=1)
    assert str(conjugate.value) == str(exact.value)


def test_exact_draws_refuse_a_sample_correlation_near_one_before_any_draw():
    # an exact draw is accepted with probability about sqrt(1 - rho^2), so
    # below 1 - rho_hat^2 = 1e-6 the sampler would spin; the first such
    # entry is named, and a scale the partition refuses, as at |rho_hat| = 1,
    # keeps its message
    for sign in (1.0, -1.0):
        rho = sign * math.sqrt(1.0 - 5e-7)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as refused:
            exact_posterior_draws(40, [1.0, 1.0, 1.0], 1.0, [0.5, rho, 0.0], rng)
        assert rng.bit_generator.state == state
        assert str(refused.value) == (f"sample correlation {rho!r} lies too close to +-1 for "
                                      f"exact draws: 1 - rho^2 = 5e-07 < 1e-06")
    for rho in (1.0, -1.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="finite and positive definite"):
            exact_posterior_draws(40, 1.0, 1.0, rho, np.random.default_rng(5))
    # just above the bound the entry is drawn, near rho_hat
    rho = math.sqrt(1.0 - 2e-6)
    draws = exact_posterior_draws(40, 1.0, 1.0, rho, np.random.default_rng(5))
    assert abs(draws[0, 2] - rho) < 1e-4


def test_mwg_validation_errors(panel_small):
    specs = default_proposals("tnn", panel_small)
    init = mle_estimate(panel_small)
    with pytest.raises(ValueError):
        mwg_sample(panel_small, specs, 100, 100, init=init, seed=0)
    with pytest.raises(ValueError):
        mwg_sample(panel_small, specs[:2], 100, 10, init=init, seed=0)
    with pytest.raises(ValueError):
        mwg_sample(None, specs, 100, 10, init=init, seed=0)


def test_chain_validation():
    good = np.full((10, 3), [0.006, 0.004, -0.03])
    Chain(draws=good, burn_in=2, acceptance_counts=np.array([5, 5, 5]))
    with pytest.raises(ValueError):
        Chain(draws=good, burn_in=10, acceptance_counts=np.array([5, 5, 5]))
    bad = good.copy()
    bad[3, 2] = 1.5
    with pytest.raises(ValueError):
        Chain(draws=bad, burn_in=2, acceptance_counts=np.array([5, 5, 5]))


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------

def test_mle_two_point_panel_closed_form():
    a, b = 0.011, 0.007
    with pytest.raises(ValueError, match="degenerate"):
        mle_estimate(ReturnPanel([-a, a], [-b, b]))  # rho_hat = 1 exactly


def test_mle_perfectly_correlated_panel_rejected():
    x = np.array([0.01, -0.02, 0.005, 0.003])
    with pytest.raises(ValueError, match="degenerate"):
        mle_estimate(ReturnPanel(x, x))


def test_mle_zero_variance_rejected():
    with pytest.raises(ValueError, match="zero sample variance"):
        mle_estimate(ReturnPanel([0.01, 0.01, 0.01], [0.01, -0.01, 0.02]))


def test_mle_refuses_a_panel_whose_variance_product_underflows():
    # both variances are positive, but sxx*shh underflows to zero
    panel = ReturnPanel([0.0, 0.0, 1.8e-146], [0.0, 1.8e-146, 0.0])
    assert panel.sxx > 0.0 and panel.shh > 0.0 and panel.sxx * panel.shh == 0.0
    with pytest.raises(ValueError, match="degenerate data: the product of the sample variances"):
        mle_estimate(panel)


def test_mle_closed_form_matches_formulas():
    panel = synth_panel(300, seed=41)
    est = mle_estimate(panel)
    t = panel.n_obs
    assert est.sigma_x == pytest.approx(math.sqrt(panel.sxx / t), rel=1e-14)
    assert est.sigma_h == pytest.approx(math.sqrt(panel.shh / t), rel=1e-14)
    expected_rho = float(np.corrcoef(panel.x, panel.h)[0, 1]) * t / t
    assert est.rho == pytest.approx(expected_rho, rel=1e-10)


def test_mle_consistency_large_sample():
    panel = synth_panel(100_000, seed=43)
    est = mle_estimate(panel)
    t = panel.n_obs
    assert abs(est.sigma_x - TRUTH.sigma_x) < 4 * TRUTH.sigma_x / math.sqrt(2 * t)
    assert abs(est.sigma_h - TRUTH.sigma_h) < 4 * TRUTH.sigma_h / math.sqrt(2 * t)
    assert abs(est.rho - TRUTH.rho) < 4 * (1 - TRUTH.rho ** 2) / math.sqrt(t)


def test_mle_is_stationary_point_of_log_likelihood():
    # volatility scale chosen so the eps^2 truncation error of the central
    # difference (~ T / sigma^3 * eps^2) stays far below the 1e-5 gate
    panel = synth_panel(5000, seed=47, theta=Theta(0.02, 0.015, 0.2), drift=(0.0005, 0.0002))
    theta0 = mle_estimate(panel)
    # the drift MLE undoes the -sigma^2/2 convexity shift of the return means
    mu_x0 = panel.mean_x + 0.5 * theta0.sigma_x * theta0.sigma_x
    mu_h0 = panel.mean_h + 0.5 * theta0.sigma_h * theta0.sigma_h
    eps = 1e-6

    def loglik(mu_x, mu_h, sx, sh, r):
        """Physical-measure log likelihood: each return pair is bivariate
        normal with means mu - sigma^2/2 and correlation r."""
        one_minus = 1.0 - r * r
        zx = (panel.x - (mu_x - 0.5 * sx ** 2)) / sx
        zh = (panel.h - (mu_h - 0.5 * sh ** 2)) / sh
        quad = (zx * zx - 2.0 * r * zx * zh + zh * zh) / (2.0 * one_minus)
        return float(np.sum(-math.log(2.0 * math.pi) - math.log(sx) - math.log(sh)
                            - 0.5 * math.log(one_minus) - quad))

    point = (mu_x0, mu_h0, theta0.sigma_x, theta0.sigma_h, theta0.rho)
    grad = []
    for i in range(5):
        hi = list(point)
        lo = list(point)
        hi[i] += eps
        lo[i] -= eps
        grad.append((loglik(*hi) - loglik(*lo)) / (2 * eps))
    # gradient of the average log likelihood, the scale-free stationarity measure
    grad = np.array(grad) / panel.n_obs
    assert np.linalg.norm(grad) < 1e-5


# ---------------------------------------------------------------------------
# Conjugate (MNC) baseline
# ---------------------------------------------------------------------------

def test_niw_validation():
    NiwHyperparams()
    for scale in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be"):
            NiwHyperparams(scale=scale)
    with pytest.raises(ValueError):
        NiwHyperparams(kappa=0.0)


# sha256 of draws.tobytes() of 3000 conjugate draws: the default prior on
# panel_small, a non-default prior on the fixture window 1840, and the prior
# alone. They pin the inverse-Wishart partition's random-stream layout and
# the posterior update's arithmetic bit for bit.
_PINNED_CONJUGATE = {
    "default-prior": (NiwHyperparams(), 23,
                      "425e8d1030f3d9898deb045479abd154148fd7d342f4c8a082133decb37a72e3"),
    "fixture-1840": (NiwHyperparams(kappa=2.5, df=7.0, scale=3e-3), 29,
                     "732bc15895e1cffcc8487a7fbca95b8ba6b609f659e6ef4f420fa939b19fb2ea"),
    "prior-only": (NiwHyperparams(kappa=0.5, df=6.0, scale=2e-4), 31,
                   "056aeb586dfc0ec753b894bbe5b8e070410a346ff7a431d36ed071900a76cf45"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_CONJUGATE))
def test_conjugate_pinned_draws(panel_small, case):
    hyper, seed, digest = _PINNED_CONJUGATE[case]
    if case == "fixture-1840":
        panel = fixture_panel(1840)
    else:
        panel = panel_small if case == "default-prior" else None
    chain = conjugate_sample(panel, hyper, 3000, seed=seed)
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == digest


def test_conjugate_posterior_moments(panel_small):
    hyper = NiwHyperparams()
    chain = conjugate_sample(panel_small, hyper, 39_000, seed=3)
    seg = chain.post_burn_in()
    df_n, scale_11, scale_12, scale_22 = niw_posterior(panel_small, hyper)
    s11 = seg[:, 0] ** 2
    s22 = seg[:, 1] ** 2
    s12 = seg[:, 2] * seg[:, 0] * seg[:, 1]
    for sample, target in (
        (s11, scale_11 / (df_n - 3.0)),
        (s22, scale_22 / (df_n - 3.0)),
        (s12, scale_12 / (df_n - 3.0)),
    ):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert sample.mean() == pytest.approx(target, abs=4 * se)


def test_conjugate_prior_only_hook_matches_prior_moments():
    hyper = NiwHyperparams(df=10.0, scale=1e-4)
    chain = conjugate_sample(None, hyper, 39_000, seed=4)
    seg = chain.post_burn_in()
    target = 1e-4 / (10.0 - 3.0)
    for col in (0, 1):
        sample = seg[:, col] ** 2
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert sample.mean() == pytest.approx(target, abs=4 * se)


def test_conjugate_large_panel_tracks_sample_covariance():
    panel = synth_panel(20_000, seed=51)
    chain = conjugate_sample(panel, NiwHyperparams(), 19_500, seed=6)
    seg = chain.post_burn_in()
    s11 = seg[:, 0] ** 2
    sample_cov = panel.sxx / panel.n_obs
    se = s11.std(ddof=1) / math.sqrt(s11.size)
    # posterior mean of the covariance concentrates on the sample covariance
    assert s11.mean() == pytest.approx(sample_cov, abs=4 * se + 2e-4 * sample_cov)


def test_conjugate_draws_satisfy_support(panel_small):
    chain = conjugate_sample(panel_small, NiwHyperparams(), 4900, seed=8)
    seg = chain.post_burn_in()
    assert np.all(np.abs(seg[:, 2]) < 1.0)
    assert np.all(seg[:, :2] > 0.0)


def test_conjugate_simulation_based_calibration():
    # Simulation-based calibration (Talts et al. 2018, arXiv:1804.06788):
    # with (mu, Sigma) drawn from the NIW prior and a panel from the model,
    # the rank of the true value among L exact posterior draws is uniform on
    # 0..L. The prior is drawn here with numpy alone: Sigma^-1 ~ Wishart(df,
    # (scale I)^-1) as a sum of df Gaussian outer products, mu ~ N(0,
    # Sigma / kappa). Short panels keep the prior in the posterior, so an
    # error in its degrees of freedom moves the ranks.
    hyper = NiwHyperparams(kappa=1.0, df=6.0, scale=1e-4)
    n_reps, n_post, n_obs, n_bins = 2000, 99, 5, 10
    rng = np.random.default_rng(2018)
    z = rng.standard_normal((n_reps, int(hyper.df), 2)) / math.sqrt(hyper.scale)
    sigma = np.linalg.inv(np.einsum("rki,rkj->rij", z, z))
    chol = np.linalg.cholesky(sigma)
    mu = np.einsum("rij,rj->ri", chol, rng.standard_normal((n_reps, 2))) / math.sqrt(hyper.kappa)
    returns = mu[:, None, :] + np.einsum("rij,rtj->rti", chol,
                                         rng.standard_normal((n_reps, n_obs, 2)))
    truth = np.column_stack([np.sqrt(sigma[:, 0, 0]), np.sqrt(sigma[:, 1, 1]),
                             sigma[:, 0, 1] / np.sqrt(sigma[:, 0, 0] * sigma[:, 1, 1])])
    ranks = np.empty((n_reps, 3), dtype=int)
    for r in range(n_reps):
        panel = ReturnPanel(returns[r, :, 0], returns[r, :, 1])
        draws = conjugate_sample(panel, hyper, n_post, seed=r).draws
        ranks[r] = np.count_nonzero(draws < truth[r], axis=0)
    expected = n_reps / n_bins
    for name, column in zip(PARAMETERS, ranks.T):
        counts = np.bincount(column * n_bins // (n_post + 1), minlength=n_bins)
        chi2 = float(((counts - expected) ** 2).sum() / expected)
        # 27.88 is the 0.1 % point of chi2 with 9 degrees of freedom
        assert chi2 < 27.9, (name, chi2, counts)


def test_conjugate_reproducible(panel_small):
    a = conjugate_sample(panel_small, NiwHyperparams(), 1900, seed=12)
    b = conjugate_sample(panel_small, NiwHyperparams(), 1900, seed=12)
    assert np.array_equal(a.draws, b.draws)


# ---------------------------------------------------------------------------
# Default proposal factory
# ---------------------------------------------------------------------------

def test_default_proposal_families(panel_small):
    est = mle_estimate(panel_small)
    ttn = default_proposals("ttn", panel_small)
    assert ttn[0].family == "truncated_t" and ttn[1].family == "truncated_t"
    assert ttn[2] == 0.1
    assert ttn[0].loc == pytest.approx(est.sigma_x)
    tnn = default_proposals("tnn", panel_small)
    assert tnn[0].family == "truncated_normal"
    ign = default_proposals("ign", panel_small)
    assert ign[0].family == "inverse_gamma"
    # mode of IG(shape, scale) sits at the squared MLE
    assert ign[0].scale / (ign[0].shape + 1.0) == pytest.approx(est.sigma_x ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        default_proposals("xyz", panel_small)


def test_default_proposals_refuse_a_multiplier_before_squaring_it(panel_small):
    # the square is taken for the inverse gamma's shape alone
    for code in ("ttn", "tnn"):
        specs = default_proposals(code, panel_small, scale_multiplier=1.4e154)
        assert specs[0].scale == 1.4e154 * mle_estimate(panel_small).sigma_x / math.sqrt(
            panel_small.n_obs)
    for multiplier in (1.4e154, 5e-324):
        with pytest.raises(ValueError, match=re.escape("scale_multiplier**2 over- or underflows")):
            default_proposals("ign", panel_small, scale_multiplier=multiplier)
    # a fixed shape needs no square
    assert default_proposals("ign", panel_small, ig_shape=5.0, scale_multiplier=1.4e154)
    for multiplier in (0.0, -2.0, math.inf, math.nan):
        for code in ("ttn", "tnn", "ign"):
            with pytest.raises(ValueError, match="scale_multiplier must be positive and finite"):
                default_proposals(code, panel_small, scale_multiplier=multiplier)
