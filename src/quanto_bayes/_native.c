/* The native library of quanto_bayes: the Metropolis-within-Gibbs sweep of
 * inference.mwg_sample and the draws text of cli._draws_text.
 * inference._native builds it and checks both functions against their
 * Python routes before first use; it needs unsigned __int128 (gcc, clang). */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* mwg_sweep is a copy of inference._python_sweep, the specification: the
 * same expressions in the same order, so that compiled with
 * -ffp-contract=off (and never -ffast-math) it gives the same chain bit for
 * bit. log is libm's, which math.log also calls, and a comparison with NaN
 * is false in both, so a NaN log ratio rejects.
 *
 * The streams hold n entries each; draws is the C-contiguous (n, 3) block,
 * NaN where a move is rejected; state is g, 1/s and 1/s^2 of each
 * volatility, then rho, log(1 - rho^2), 1/(1 - rho^2), a_x, a_h and b. */

void mwg_sweep(long n,
               const double *cx, const double *gx, const double *ix, const double *i2x,
               const double *ch, const double *gh, const double *ih, const double *i2h,
               const double *dr, const double *lux, const double *luh, const double *lur,
               double *draws, double *state,
               double half_t, double half_sxx, double half_shh, double cross)
{
    double g_x = state[0], i_x = state[1], i2_x = state[2];
    double g_h = state[3], i_h = state[4], i2_h = state[5];
    double r = state[6], log_om = state[7], inv_om = state[8];
    double a_x = state[9], a_h = state[10], b = state[11];

    for (long k = 0; k < n; k++) {
        double la = gx[k] - g_x - a_x * (i2x[k] - i2_x) - b * i_h * (ix[k] - i_x);
        if (lux[k] < la) {
            g_x = gx[k]; i_x = ix[k]; i2_x = i2x[k];
            draws[3 * k] = cx[k];
        }

        la = gh[k] - g_h - a_h * (i2h[k] - i2_h) - b * i_x * (ih[k] - i_h);
        if (luh[k] < la) {
            g_h = gh[k]; i_h = ih[k]; i2_h = i2h[k];
            draws[3 * k + 1] = ch[k];
        }

        double c = r + dr[k];
        if (-1.0 < c && c < 1.0) {
            double p = half_sxx * i2_x;
            double q = half_shh * i2_h;
            double s = cross * i_x * i_h;
            double om_c = 1.0 - c * c;
            double log_om_c = log(om_c);
            double term_c = p + (q * c + s) * c;
            la = half_t * (log_om - log_om_c) - (term_c / om_c - (p + (q * r + s) * r) * inv_om);
            if (lur[k] < la) {
                r = c;
                log_om = log_om_c;
                inv_om = 1.0 / om_c;
                a_x = half_sxx * inv_om;
                a_h = half_shh * inv_om;
                b = r * cross * inv_om;
                draws[3 * k + 2] = c;
            }
        }
    }

    state[0] = g_x; state[1] = i_x; state[2] = i2_x;
    state[3] = g_h; state[4] = i_h; state[5] = i2_h;
    state[6] = r; state[7] = log_om; state[8] = inv_om;
    state[9] = a_x; state[10] = a_h; state[11] = b;
}


/* 10^k for k = 17 .. 20, the scales of the decades d = -1 .. -4 (k = 16 - d). */
static const unsigned __int128 POW10[4] = {
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL,
    (unsigned __int128)10000000000000000000ULL * 10};

/* m 10^k / 2^s rounded half to even, exactly: m < 2^53, k <= 20 and
 * s <= 67, so the product fits in 128 bits and the quotient in 64. */
static uint64_t scaled(uint64_t m, int k, int s)
{
    unsigned __int128 n = m * POW10[k - 17];
    uint64_t q = (uint64_t)(n >> s);
    unsigned __int128 r = n & (((unsigned __int128)1 << s) - 1);
    unsigned __int128 half = (unsigned __int128)1 << (s - 1);
    return q + (r > half || (r == half && (q & 1)));
}

/* Writes "%.17g" of each cell of the C-contiguous (n, cols) block to out,
 * cells separated by ',' and each row ended by '\n', and returns the length
 * written; out must hold 25 bytes per cell, since a cell's text is at most
 * 24 bytes. *fallbacks is set to the number of cells that the exact path
 * below leaves to snprintf or to "nan".
 *
 * A cell with 1e-4 <= |v| < 1 - 2^-53 is formatted here, exactly: %.17g
 * prints its sign, "0.", -d-1 zeros for its decade d = floor(log10 |v|) in
 * [-4, -1], then the 17 significant digits R = round(|v| 10^(16-d)) less
 * trailing zeros. |v| is m / 2^s with a 53-bit integer m. The decade is
 * first taken from the binary exponent, which can place it one too low;
 * then R has 18 digits and is formed again one decade up. Every other cell
 * goes through snprintf: +-0, |v| >= 1, |v| < 1e-4, subnormals and
 * 1 - 2^-53, the largest double below 1. Its decimal point follows
 * LC_NUMERIC, which Python keeps at "C" unless locale.setlocale changes it.
 * NaN is written as "nan", which is how Python writes it whatever its sign. */
long draws_text(long n, long cols, const double *block, char *out, long *fallbacks)
{
    char *p = out;
    long fallback = 0;
    for (long i = 0; i < n; i++) {
        for (long j = 0; j < cols; j++) {
            double v = block[i * cols + j];
            double a = fabs(v);
            if (a >= 1e-4 && a < 0x1.fffffffffffffp-1) {
                uint64_t bits;
                memcpy(&bits, &a, sizeof bits);
                int b = (int)(bits >> 52) - 1023;  /* 2^b <= |v| < 2^(b+1), b in [-14, -1] */
                uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
                int s = 52 - b;
                int d = b * 1233 >> 12;  /* floor(b log10 2): gcc and clang shift arithmetically */
                if (d < -4)
                    d = -4;
                uint64_t r = scaled(m, 16 - d, s);
                if (r >= 100000000000000000ULL)
                    r = scaled(m, 16 - ++d, s);
                char digits[17];
                for (int k = 16; k >= 0; k--, r /= 10)
                    digits[k] = (char)('0' + r % 10);
                int len = 17;
                while (digits[len - 1] == '0')
                    len--;
                if (v < 0.0)
                    *p++ = '-';
                *p++ = '0';
                *p++ = '.';
                for (int k = -1; k > d; k--)
                    *p++ = '0';
                memcpy(p, digits, len);
                p += len;
            } else if (v != v) {
                fallback++;
                memcpy(p, "nan", 3);
                p += 3;
            } else {
                fallback++;
                p += snprintf(p, 25, "%.17g", v);
            }
            *p++ = j == cols - 1 ? '\n' : ',';
        }
    }
    *fallbacks = fallback;
    return p - out;
}
