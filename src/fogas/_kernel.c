/* The compiled kernels of fogas: the FOGAS ascent loop of one run (all T
 * iterations in one call), the d x d flow solves of a block of policies and
 * the next-state search of dataset collection.
 *
 * fogas._native builds this file on first use with plain -O3 -fPIC -shared
 * and loads it through ctypes. fogas.solver calls fogas_ascend once per run.
 * Its specification is the numpy step functions of tests/conftest.py, one
 * per step (the best response, mu-hat's features, the lambda-gradient, the
 * lambda step with g^T Lambda g), which reference_ascend chains into the
 * loop the tests compare this one against.
 * fogas.oracle.solve_flow calls fogas_solve_flow once per block of policies;
 * its specification is reference_solve_flow in tests/conftest.py, numpy's
 * LAPACK solve. fogas.data calls fogas_next_states once per dataset for the
 * next states and, in occupancy sampling, once more for the state-action
 * pairs: with d = 1, features of ones and psi_cum the occupancy's normalized
 * CDF, x_next[i] counts the CDF entries <= u[i], which is numpy's
 * searchsorted(side="right") and so Generator.choice(p=...).
 *
 * Layout: the sites (x0, then the run's observed next states) are innermost.
 * phi is (A, d, m) and W = gamma C is (d, m) with a zero column at x0, so
 * every per-site loop runs over m contiguous floats without reassociating a
 * sum, and -O3 vectorizes it without -ffast-math. The two m-long reductions
 * keep 8 fixed partial sums, so every call sums in the same order.
 *
 * No d x d occupancy operator is formed: with F_pi (d, m), row j holding
 * sum_a pi(a|x_i) phi_j(x_i, a), mu-hat's features are F_pi (W^T lambda)
 * + (1-gamma) F_pi[:, 0] and the lambda-gradient is W (F_pi^T theta)
 * + omega - theta, O(m d) work per iteration.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__)
/* glibc's libmvec has a vector exp; declaring it lets the exp loop call it. */
double exp(double) __attribute__((simd("notinbranch")));
#endif

typedef int64_t i64;

static double dot(const double *x, const double *y, i64 m)
{
    double acc[8] = {0.0};
    i64 i = 0;
    for (; i + 8 <= m; i += 8)
        for (int k = 0; k < 8; k++)
            acc[k] += x[i + k] * y[i + k];
    for (int k = 0; i < m; i++, k++)
        acc[k] += x[i] * y[i];
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

static int all_finite(const double *x, i64 d)
{
    for (i64 j = 0; j < d; j++)
        if (!isfinite(x[j]))
            return 0;
    return 1;
}

/* Runs iterations 1..T from lambda_1 = theta_bar_0 = 0. The softmax skips its
 * max-shift in iterations 1..shift_free. work holds (A + d + 2) m floats.
 * out receives lambda_{T+1}, theta_bar_T and alpha theta_bar_{J-1}, d each.
 * With a table, its row t (5d + 1 floats) receives lambda_{t+1}, theta_bar_t,
 * theta_t, mu-hat's features and g_t, d each, then g_t^T Lambda g_t.
 *
 * Returns 0, or the iteration t whose lambda_{t+1} or theta_bar_t left the
 * finite numbers; finite[0..2] then say whether lambda_{t+1}, theta_bar_t
 * and g_t are finite. */
i64 fogas_ascend(i64 T, i64 A, i64 d, i64 m, const double *phi, const double *W,
                 const double *omega, const double *lambda_mat, double x0_weight,
                 double alpha, double eta, double contraction, double d_theta,
                 double tie_tol, i64 shift_free, i64 J, double *work, double *out,
                 int *finite, double *table)
{
    double *L = work, *F = L + A * m, *u = F + d * m, *s = u + m;
    double lam[d], theta_bar[d], scaled[d], phimu[d], theta[d], g[d], lg[d];
    memset(lam, 0, sizeof lam);
    memset(theta_bar, 0, sizeof theta_bar);

    for (i64 t = 1; t <= T; t++) {
        for (i64 j = 0; j < d; j++)
            scaled[j] = alpha * theta_bar[j];
        if (t == J)
            memcpy(out + 2 * d, scaled, sizeof scaled);

        /* Logits <phi(x_i, a), alpha theta_bar_{t-1}>, softmax over a per site. */
        for (i64 a = 0; a < A; a++) {
            double *La = L + a * m;
            const double *Pa = phi + a * d * m;
            for (i64 i = 0; i < m; i++)
                La[i] = scaled[0] * Pa[i];
            for (i64 j = 1; j < d; j++)
                for (i64 i = 0; i < m; i++)
                    La[i] += scaled[j] * Pa[j * m + i];
        }
        if (t > shift_free) {
            memcpy(s, L, m * sizeof *s);
            for (i64 a = 1; a < A; a++)
                for (i64 i = 0; i < m; i++)
                    s[i] = L[a * m + i] > s[i] ? L[a * m + i] : s[i];
            for (i64 a = 0; a < A; a++)
                for (i64 i = 0; i < m; i++)
                    L[a * m + i] -= s[i];
        }
#pragma omp simd
        for (i64 i = 0; i < A * m; i++)
            L[i] = exp(L[i]);
        memcpy(s, L, m * sizeof *s);
        for (i64 a = 1; a < A; a++)
            for (i64 i = 0; i < m; i++)
                s[i] += L[a * m + i];
        for (i64 a = 0; a < A; a++)
            for (i64 i = 0; i < m; i++)
                L[a * m + i] /= s[i];

        /* F_pi, then mu-hat's features through u = W^T lambda (zero at x0). */
        for (i64 j = 0; j < d; j++) {
            double *Fj = F + j * m;
            for (i64 i = 0; i < m; i++)
                Fj[i] = L[i] * phi[j * m + i];
            for (i64 a = 1; a < A; a++)
                for (i64 i = 0; i < m; i++)
                    Fj[i] += L[a * m + i] * phi[(a * d + j) * m + i];
        }
        for (i64 i = 0; i < m; i++)
            u[i] = lam[0] * W[i];
        for (i64 j = 1; j < d; j++)
            for (i64 i = 0; i < m; i++)
                u[i] += lam[j] * W[j * m + i];
        double sq = 0.0;
        for (i64 j = 0; j < d; j++) {
            phimu[j] = dot(F + j * m, u, m) + x0_weight * F[j * m];
            theta[j] = phimu[j] - lam[j];
            sq += theta[j] * theta[j];
        }

        /* Best response over the ball; a tie goes to the origin. */
        double norm = sqrt(sq), scale = -d_theta / (norm > tie_tol ? norm : INFINITY);
        for (i64 j = 0; j < d; j++) {
            theta[j] *= scale;
            theta_bar[j] += theta[j];
        }

        /* g = W (F_pi^T theta) + omega - theta, then the lambda step. */
        for (i64 i = 0; i < m; i++)
            u[i] = theta[0] * F[i];
        for (i64 j = 1; j < d; j++)
            for (i64 i = 0; i < m; i++)
                u[i] += theta[j] * F[j * m + i];
        for (i64 j = 0; j < d; j++)
            g[j] = dot(W + j * m, u, m) + omega[j] - theta[j];
        double check = 0.0;
        for (i64 j = 0; j < d; j++) {
            double acc = 0.0;
            for (i64 k = 0; k < d; k++)
                acc += lambda_mat[j * d + k] * g[k];
            lg[j] = acc;
            lam[j] = (lam[j] + acc * eta) * contraction;
            check += lam[j] + theta_bar[j];
        }

        /* One test per iteration; a finite sum that overflowed only costs the
         * exact check. A non-finite g makes Lambda g, and so lambda, non-finite. */
        if (!isfinite(check)) {
            finite[0] = all_finite(lam, d);
            finite[1] = all_finite(theta_bar, d);
            finite[2] = all_finite(g, d);
            if (!(finite[0] && finite[1] && finite[2]))
                return t;
        }

        if (table) {
            double *row = table + t * (5 * d + 1), grad_sq = 0.0;
            memcpy(row, lam, sizeof lam);
            memcpy(row + d, theta_bar, sizeof theta_bar);
            memcpy(row + 2 * d, theta, sizeof theta);
            memcpy(row + 3 * d, phimu, sizeof phimu);
            memcpy(row + 4 * d, g, sizeof g);
            for (i64 j = 0; j < d; j++)
                grad_sq += g[j] * lg[j];
            row[5 * d] = grad_sq;
        }
    }
    memcpy(out, lam, sizeof lam);
    memcpy(out + d, theta_bar, sizeof theta_bar);
    return 0;
}


static void swap(double *u, double *v)
{
    double s = *u;
    *u = *v;
    *v = s;
}

/* For each b < B, with P_b the row-major (d, d) block b of P: theta_b =
 * (I - gamma P_b)^{-1} rhs_b, by Gaussian elimination with partial pivoting,
 * psi_v_b = P_b theta_b and rho_b = (1 - gamma) <start_b, theta_b>. out holds
 * B rows (theta_b, psi_v_b, rho_b) of 2d + 1 floats, then d * d floats of
 * scratch for I - gamma P_b. Returns 0, or 1 + the first b whose I - gamma P_b
 * meets an exactly zero pivot, the singular case that LAPACK's getrf reports. */
i64 fogas_solve_flow(i64 B, i64 d, const double *P, double gamma, const double *rhs,
                     const double *start, double *out)
{
    double *M = out + B * (2 * d + 1);
    for (i64 b = 0; b < B; b++) {
        const double *Pb = P + b * d * d;
        double *x = out + b * (2 * d + 1);
        for (i64 i = 0; i < d * d; i++)
            M[i] = -gamma * Pb[i];
        for (i64 i = 0; i < d; i++) {
            M[i * d + i] += 1.0;
            x[i] = rhs[b * d + i];
        }
        for (i64 k = 0; k < d; k++) {
            i64 p = k;
            for (i64 i = k + 1; i < d; i++)
                if (fabs(M[i * d + k]) > fabs(M[p * d + k]))
                    p = i;
            if (M[p * d + k] == 0.0)
                return b + 1;
            if (p != k) {
                for (i64 j = k; j < d; j++)
                    swap(M + k * d + j, M + p * d + j);
                swap(x + k, x + p);
            }
            for (i64 i = k + 1; i < d; i++) {
                double f = M[i * d + k] / M[k * d + k];
                for (i64 j = k + 1; j < d; j++)
                    M[i * d + j] -= f * M[k * d + j];
                x[i] -= f * x[k];
            }
        }
        for (i64 k = d - 1; k >= 0; k--) {
            for (i64 j = k + 1; j < d; j++)
                x[k] -= M[k * d + j] * x[j];
            x[k] /= M[k * d + k];
        }
        for (i64 i = 0; i < d; i++)
            x[d + i] = dot(Pb + i * d, x, d);
        x[2 * d] = (1.0 - gamma) * dot(start + b * d, x, d);
    }
    return 0;
}

/* Samples advanced through the search together: their dependency chains
 * (a gather, a d-long dot, a compare) overlap. */
#define NEXT_STATE_LANES 8

static inline void next_state_lanes(i64 lanes, i64 X, i64 d, i64 top, const double *features,
                                    const double *psi_cum, const double *u, i64 *x_next)
{
    i64 pos[NEXT_STATE_LANES] = {0};
    for (i64 step = top; step > 0; step >>= 1)
        for (i64 l = 0; l < lanes; l++) {
            i64 probe = pos[l] + step - 1 < X - 1 ? pos[l] + step - 1 : X - 1;
            const double *f = features + l * d, *c = psi_cum + probe * d;
            double cdf = 0.0;
            for (i64 j = 0; j < d; j++)
                cdf += f[j] * c[j];
            pos[l] += step & -(i64)((cdf <= u[l]) & (pos[l] + step <= X));
        }
    memcpy(x_next, pos, lanes * sizeof *pos);
}

/* x_next[i] = the number of states x' whose CDF <phi_i, psi_cum[x']> is <= u[i],
 * i.e. the sampled next state, or X for a draw at or above the row's total.
 * features is (n, d) and psi_cum (X, d), both row-major. The search takes the
 * steps 2^k, ..., 2, 1 (2^k the largest power of two <= X) from 0, each only
 * where the probed CDF is <= u[i] and the step stays within X. */
void fogas_next_states(i64 n, i64 X, i64 d, const double *features, const double *psi_cum,
                       const double *u, i64 *x_next)
{
    i64 top = 1;
    while (top <= X / 2)
        top <<= 1;
    for (i64 i = 0; i < n; i += NEXT_STATE_LANES) {
        if (n - i >= NEXT_STATE_LANES)
            next_state_lanes(NEXT_STATE_LANES, X, d, top, features + i * d, psi_cum, u + i,
                             x_next + i);
        else
            next_state_lanes(n - i, X, d, top, features + i * d, psi_cum, u + i, x_next + i);
    }
}
