/* The Metropolis-within-Gibbs sweep of quanto_bayes.inference.mwg_sample.
 *
 * A copy of inference._python_sweep, the specification: the same
 * expressions in the same order, so that compiled with -ffp-contract=off
 * (and never -ffast-math) it gives the same chain bit for bit. log is
 * libm's, which math.log also calls, and a comparison with NaN is false in
 * both, so a NaN log ratio rejects. inference._native_sweep builds it and
 * checks it against the Python loop before first use.
 *
 * The streams hold n entries each; draws is the C-contiguous (n, 3) block,
 * NaN where a move is rejected; state is g, 1/s and 1/s^2 of each
 * volatility, then rho, log(1 - rho^2), 1/(1 - rho^2), a_x, a_h and b. */
#include <math.h>

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
