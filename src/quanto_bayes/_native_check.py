"""The self-check of the native library: :func:`inference._load_native`
keeps a freshly compiled library only if each of its functions gives what
its Python twin gives here. Only a build imports this module, so no other
run pays to compile it."""

import math

import numpy as np

from .inference import (_python_draws_text, _python_sweep, _sweep_inputs, default_proposals,
                        mle_estimate)
from .model import ReturnPanel, Theta


def reproduces_python_loop(sweep):
    """Whether ``sweep`` leaves the draws, the state and the tally of
    ``_python_sweep`` bit for bit on a fixed 500-sweep chain. Its first
    rho steps land on 1, -1, NaN and inf, a sigma_x candidate's 1/c^2 is inf
    and a sigma_h candidate's g is NaN, so every way of rejecting is taken.
    """
    days = np.arange(60.0)
    panel = ReturnPanel(0.01 * np.sin(days), 0.006 * np.sin(days + 0.7 * np.cos(days)))
    est = mle_estimate(panel)
    streams, state, constants = _sweep_inputs(panel, *default_proposals("ttn", panel, mle=est),
                                              500, Theta(est.sigma_x, est.sigma_h, 0.5), 0)
    streams[8][:4] = (0.5, -1.5, math.nan, math.inf)
    streams[3][4] = math.inf
    streams[5][6] = math.nan
    results = []
    for run in (_python_sweep, sweep):
        draws = np.full((500, 3), np.nan)  # a row left unwritten stays NaN
        end = state.copy()
        tally = np.zeros(6, dtype=np.int64)
        run(500, streams, draws, end, tally, *constants)
        results.append(draws.tobytes() + end.tobytes() + tally.tobytes())
    return results[0] == results[1]


def self_check_rows():
    """The (n, 3) block that the writer's and the reader's checks run on:
    on both signs, each power of ten from 1e-6 to 10 and its six neighbours
    on either side; exact decimal ties in the four decades that C formats;
    values that libc formats; and a seeded log-uniform sample. Then runs of
    repeated rows, offset from column to column, of exact and fallback
    values, NaN, and 0.0 and -0.0 each directly below the other, whose
    texts differ though they compare equal."""
    rng = np.random.default_rng(0)
    # consecutive bit patterns of positive doubles are neighbouring doubles
    near = (10.0 ** np.arange(-6, 2)).view(np.int64)[:, None] + np.arange(-6, 7)
    values = [near.view(np.float64).ravel()]
    for k in range(17, 21):
        lo = 2 ** (k + 1) // 10 ** (k - 16)
        values.append((rng.integers(lo // 2 + 1, 5 * lo, 100) * 2 + 1) * 2.0 ** -(k + 1))
    values.append([0.0, 1.0 - 2.0 ** -53, 5e-324, 2.2250738585072014e-308, 1.0, 7.25,
                   12345678901234567.0, 1.7976931348623157e308, 9.999999999999999e-05,
                   1.2345678901234567e-100, 1e-300, math.nan, math.inf])
    values.append(10.0 ** rng.uniform(-6.0, 1.0, 3000))
    values = np.concatenate(values)
    runs = np.repeat([0.12345678901234567, -0.0031415926535897933, 0.0, 5e-324, 7.25, 1e-300,
                      math.nan, -0.0, 0.0, -0.0], 3)
    return np.vstack([np.resize(np.concatenate([values, -values]), (-(-2 * values.size // 3), 3)),
                      np.column_stack([runs, np.roll(runs, 1), np.roll(runs, 2)])])


def formats_as_python(draws_text):
    """Whether ``draws_text`` writes ``_python_draws_text``'s text byte
    for byte, and counts its fallback cells, on :func:`self_check_rows`."""
    rows = self_check_rows()
    out, expected = bytearray(25 * rows.size), bytearray(25 * rows.size)
    length, fallbacks = draws_text(rows, out)
    expected_length, _ = _python_draws_text(rows, expected)
    magnitudes = np.abs(rows)
    exact = np.count_nonzero((magnitudes >= 1e-4) & (magnitudes < 1.0 - 2.0 ** -53))
    return out[:length] == expected[:expected_length] and fallbacks == rows.size - exact


# Bodies that draws_text never writes, each of which draws_values must refuse:
# CRLF, a blank line, a space, a comment, a '+', an exponent without a sign or
# with a capital E, no digit before or after a '.', a sign or an exponent with
# no digit, inf, nan, hex, four cells, two, an empty cell, an unended last row
# and a NUL.
NOT_DRAWS_TEXT = (b"0.5,0.5,0.5\r\n", b"\n0.5,0.5,0.5\n", b"0.5, 0.5,0.5\n", b"# 1\n",
                  b"+0.5,0.5,0.5\n", b"1e5,0.5,0.5\n", b"1E-05,0.5,0.5\n", b".5,0.5,0.5\n",
                  b"5.,0.5,0.5\n", b"1e-,0.5,0.5\n", b"-,0.5,0.5\n", b"inf,0.5,0.5\n",
                  b"nan,0.5,0.5\n", b"0x1p-1,0.5,0.5\n", b"0.5,0.5,0.5,0.5\n", b"0.5,0.5\n",
                  b"0.5,,0.5\n", b"0.5,0.5,0.5\n0.5,0.5,0.5", b"0.5,0.5,0.5\n0.5\x00,0.5,0.5\n")


def reads_as_python(draws_values):
    """Whether ``draws_values`` reads ``_python_draws_text``'s text of
    the finite rows of :func:`self_check_rows` back to the bits that
    ``float`` gives each cell, and refuses each of ``NOT_DRAWS_TEXT``."""
    rows = self_check_rows()
    rows = rows[np.isfinite(rows).all(axis=1)]
    out = bytearray(25 * rows.size)
    text = bytes(out[:_python_draws_text(rows, out)[0]])
    expected = np.array([float(cell) for cell in text.replace(b"\n", b",").split(b",")[:-1]])
    values = draws_values(text)
    return (values is not None and values.tobytes() == expected.tobytes()
            and all(draws_values(body) is None for body in NOT_DRAWS_TEXT))
