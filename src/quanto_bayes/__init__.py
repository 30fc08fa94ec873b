"""Bayesian estimation and posterior-predictive Monte Carlo pricing of
quanto options under correlated geometric Brownian motions."""

from .model import (
    MarketConfig,
    PriceSeries,
    ReturnPanel,
    SpotState,
    Theta,
    call_price_band,
    log_returns,
    payoff,
)
from .inference import (
    Chain,
    NiwHyperparams,
    PosteriorKernel,
    ProposalSpec,
    conjugate_sample,
    default_proposals,
    exact_posterior_draws,
    mle_estimate,
    mwg_sample,
)
from .diagnostics import ChainSummary, geweke_cd, hpdi, nse, summarize
from .pricing import (
    PricingRequest,
    PricingResult,
    SequentialSettings,
    bs_call,
    closed_form_v3,
    implied_vol,
    predictive_batch,
    price_predictive,
    relative_pricing_error,
)
from .data_io import (
    OptionQuote,
    align_series,
    construct_quanto,
    filter_options,
    load_option_chain,
    load_price_series,
    moneyness_bucket,
)

__version__ = "0.1.0"
