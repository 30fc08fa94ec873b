/* The native library of quanto_bayes: the Metropolis-within-Gibbs sweep of
 * inference.mwg_sample, the draws text of cli._write_draws and its inverse,
 * the reader of cli._load_draws. inference._native builds it and checks each
 * function against Python before first use; it needs unsigned __int128 and
 * __attribute__((constructor)) (gcc, clang). */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* mwg_sweep is a copy of inference._python_sweep, the specification: the
 * same expressions in the same order, so that compiled with
 * -ffp-contract=off (and never -ffast-math) it gives the same chain bit for
 * bit. log is libm's, which math.log also calls, and a comparison with NaN
 * is false in both, so a NaN log ratio rejects.
 *
 * The streams hold n entries each; draws is the C-contiguous (n, 3) block,
 * whose row k is set to the current sigma_x, sigma_h and rho after sweep k;
 * state is s, g, 1/s and 1/s^2 of each volatility, then rho,
 * log(1 - rho^2), 1/(1 - rho^2), a_x, a_h and b. tally is set to the
 * accepted moves of sigma_x, sigma_h and rho, then the last sweep that
 * accepted each, -1 where none did. */

void mwg_sweep(long n,
               const double *cx, const double *gx, const double *ix, const double *i2x,
               const double *ch, const double *gh, const double *ih, const double *i2h,
               const double *dr, const double *lux, const double *luh, const double *lur,
               double *draws, double *state, int64_t *tally,
               double half_t, double half_sxx, double half_shh, double cross)
{
    double s_x = state[0], g_x = state[1], i_x = state[2], i2_x = state[3];
    double s_h = state[4], g_h = state[5], i_h = state[6], i2_h = state[7];
    double r = state[8], log_om = state[9], inv_om = state[10];
    double a_x = state[11], a_h = state[12], b = state[13];
    int64_t n_x = 0, n_h = 0, n_r = 0, last_x = -1, last_h = -1, last_r = -1;

    for (long k = 0; k < n; k++) {
        double la = gx[k] - g_x - a_x * (i2x[k] - i2_x) - b * i_h * (ix[k] - i_x);
        if (lux[k] < la) {
            s_x = cx[k]; g_x = gx[k]; i_x = ix[k]; i2_x = i2x[k];
            n_x++;
            last_x = k;
        }

        la = gh[k] - g_h - a_h * (i2h[k] - i2_h) - b * i_x * (ih[k] - i_h);
        if (luh[k] < la) {
            s_h = ch[k]; g_h = gh[k]; i_h = ih[k]; i2_h = i2h[k];
            n_h++;
            last_h = k;
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
                n_r++;
                last_r = k;
            }
        }

        draws[3 * k] = s_x;
        draws[3 * k + 1] = s_h;
        draws[3 * k + 2] = r;
    }

    state[0] = s_x; state[1] = g_x; state[2] = i_x; state[3] = i2_x;
    state[4] = s_h; state[5] = g_h; state[6] = i_h; state[7] = i2_h;
    state[8] = r; state[9] = log_om; state[10] = inv_om;
    state[11] = a_x; state[12] = a_h; state[13] = b;
    tally[0] = n_x; tally[1] = n_h; tally[2] = n_r;
    tally[3] = last_x; tally[4] = last_h; tally[5] = last_r;
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

/* "00" .. "99": the two decimal digits of each k < 100 at 2k. */
static const char PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The eight decimal digits of x < 10^8, written two at a time. */
static void eight_digits(char *out, uint32_t x)
{
    for (int k = 6; k >= 0; k -= 2, x /= 100)
        memcpy(out + k, PAIRS + 2 * (x % 100), 2);
}

/* The "C" LC_NUMERIC that draws_text and draws_values run under, made as the
 * library loads; (locale_t)0 if it could not be, and then both return -1. */
static locale_t c_numeric;

__attribute__((constructor)) static void make_c_numeric(void)
{
    c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
}

/* The text of a cell of the row above, for draws_text's copy. */
struct above {
    const char *text;
    long len;
};

/* Writes "%.17g" of each cell of the C-contiguous (n, 3) block to out,
 * cells separated by ',' and each row ended by '\n', and returns the length
 * written; out must hold 25 bytes per cell, since a cell's text is at most
 * 24 bytes.
 *
 * A cell whose bits equal those of the cell above it copies that cell's
 * text. Bits, not values: -0.0 == 0.0, but "%.17g" writes "-0" and "0".
 *
 * A cell with 1e-4 <= |v| < 1 - 2^-53 is formatted here, exactly: %.17g
 * prints its sign, "0.", -d-1 zeros for its decade d = floor(log10 |v|) in
 * [-4, -1], then the 17 significant digits R = round(|v| 10^(16-d)) less
 * trailing zeros. |v| is m / 2^s with a 53-bit integer m. The decade is
 * first taken from the binary exponent, which can place it one too low;
 * then R has 18 digits and is formed again one decade up. R's digits are
 * written as its first digit, then two runs of eight. Every other cell goes
 * through snprintf: +-0, |v| >= 1, |v| < 1e-4, subnormals and 1 - 2^-53,
 * the largest double below 1. Under the "C" LC_NUMERIC its decimal point
 * is '.', as Python writes it under any locale. NaN is written as "nan",
 * which is how Python writes it whatever its sign. */
long draws_text(long n, const double *block, char *out)
{
    if (c_numeric == (locale_t)0)
        return -1;
    locale_t caller = uselocale(c_numeric);
    struct above above[3];
    char *p = out;
    for (long i = 0; i < n; i++) {
        for (int j = 0; j < 3; j++) {
            const double *cell = block + 3 * i + j;
            double v = *cell;
            double a = fabs(v);
            char *text = p;
            if (i > 0 && memcmp(cell, cell - 3, sizeof v) == 0) {
                memcpy(p, above[j].text, above[j].len);
                p += above[j].len;
            } else if (a >= 1e-4 && a < 0x1.fffffffffffffp-1) {
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
                if (v < 0.0)
                    *p++ = '-';
                *p++ = '0';
                *p++ = '.';
                for (int k = -1; k > d; k--)
                    *p++ = '0';
                uint64_t high = r / 100000000;  /* R's first nine digits */
                *p = (char)('0' + high / 100000000);
                eight_digits(p + 1, (uint32_t)(high % 100000000));
                eight_digits(p + 9, (uint32_t)(r % 100000000));
                int len = 17;
                while (p[len - 1] == '0')
                    len--;
                p += len;
            } else if (v != v) {
                memcpy(p, "nan", 3);
                p += 3;
            } else {
                p += snprintf(p, 25, "%.17g", v);
            }
            above[j] = (struct above){text, p - text};
            *p++ = j == 2 ? '\n' : ',';
        }
    }
    uselocale(caller);
    return p - out;
}


/* Moves *p past a run of ASCII digits before end; whether there was one. */
static int digits(const char **p, const char *end)
{
    const char *start = *p;
    while (*p < end && (unsigned)(**p - '0') < 10)
        (*p)++;
    return *p > start;
}

/* Reads the text from p to end into the C-contiguous block of capacity rows
 * of 3 and returns the rows read, or -1 for any text that draws_text does
 * not write. Each cell matches -?D+(.D+)?(e[+-]D+)?, cells are separated by
 * ',' and every row, the last included, is ended by '\n'. A cell goes
 * through strtod, correctly rounded in glibc, which must end exactly where
 * the cell does. */
static long read_rows(const char *p, const char *end, long capacity, double *block)
{
    long i = 0;
    for (; p < end; i++) {
        if (i == capacity)
            return -1;
        for (int j = 0; j < 3; j++) {
            const char *cell = p;
            if (p < end && *p == '-')
                p++;
            if (!digits(&p, end))
                return -1;
            if (p < end && *p == '.') {
                p++;
                if (!digits(&p, end))
                    return -1;
            }
            if (p < end && *p == 'e') {
                p++;
                if (p == end || (*p != '+' && *p != '-'))
                    return -1;
                p++;
                if (!digits(&p, end))
                    return -1;
            }
            if (p == end || *p != (j == 2 ? '\n' : ','))
                return -1;
            char *stop;
            block[3 * i + j] = strtod(cell, &stop);
            if (stop != p)
                return -1;
            p++;
        }
    }
    return i;
}

/* The inverse of draws_text: read_rows of the bytes of text from start to
 * len, under the "C" LC_NUMERIC, whose decimal point is the grammar's '.'. */
long draws_values(const char *text, long start, long len, long capacity, double *block)
{
    if (c_numeric == (locale_t)0)
        return -1;
    locale_t caller = uselocale(c_numeric);
    long rows = read_rows(text + start, text + len, capacity, block);
    uselocale(caller);
    return rows;
}
