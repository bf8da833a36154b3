/* The compiled kernels of fogas: the FOGAS ascent loop of one run (all T
 * iterations in one call), the exact scores of a run's T iterate policies,
 * the next-state search of dataset collection and the per-next-state feature
 * sums of the estimator. The entries are fogas_ascend, fogas_score_iterates
 * (with fogas_score_lane_floats), fogas_next_states and
 * fogas_group_next_states.
 *
 * fogas._native builds this file on first use with -O3 -fPIC -shared
 * -ffp-contract=off and loads it through ctypes. fogas.solver calls
 * fogas_ascend once per run. Its specification is the numpy step functions
 * of tests/conftest.py, one per step (the best response, mu-hat's features,
 * the lambda-gradient, the lambda step with g^T Lambda g), which
 * reference_ascend chains into the loop the tests compare this one against.
 * fogas.diagnostics.score_iterates calls fogas_score_iterates once per run;
 * its specification is reference_score_iterates there, numpy GEMMs and
 * numpy's LAPACK solve. It solves a block of iterates' d x d flow systems
 * by one lane-parallel Gaussian elimination, eliminate; a single tabular
 * policy (fogas.oracle.evaluate_policy) is solved by numpy instead.
 * fogas.data calls fogas_next_states once per dataset for the next states
 * and, in occupancy sampling, once more for the state-action pairs: with
 * d = 1, features of ones and psi_cum the occupancy's normalized CDF,
 * x_next[i] counts the CDF entries <= u[i], which is numpy's
 * searchsorted(side="right") and so Generator.choice(p=...).
 * OfflineDataset.next_state_groups calls fogas_group_next_states once per
 * dataset: one pass over the samples in order, adding as np.bincount does.
 *
 * Layout of the loop: the sites (x0, then the run's observed next states)
 * are innermost. phi is (A, d, m) and W = gamma C is (d, m) with a zero
 * column at x0, so every per-site loop runs over m contiguous floats without
 * reassociating a sum, and -O3 vectorizes it without -ffast-math. The
 * caller pads the sites with zero columns to a multiple of VECTOR_PAD (phi = 0
 * and W = 0 there), so the site loops have no remainders. A padded site's
 * logits are 0, so its softmax is finite and its F_pi column exactly 0; it
 * adds only +-0 to the two m-long reductions, which keep 8 fixed partial
 * sums, each adding the real sites in the same order at any padding.
 * The caller passes phi, W and work 64-byte aligned (fogas._native.empty),
 * so with m a multiple of VECTOR_PAD every row of them, and every block of
 * work, starts a cache line. The loop assumes no alignment: a misaligned
 * array gives the same bits, only slower.
 *
 * No d x d occupancy operator is formed: with F_pi (d, m), row j holding
 * sum_a pi(a|x_i) phi_j(x_i, a), mu-hat's features are F_pi (W^T lambda)
 * + (1-gamma) F_pi[:, 0] and the lambda-gradient is W (F_pi^T theta)
 * + omega - theta, O(m d) work per iteration.
 *
 * Layout of the scorer: the iterates are innermost, L lanes to a block. Per
 * state, each lane's logits, softmax, Phi_pi(x) and psi(x) Phi_pi(x)^T run
 * over L contiguous floats, and so does the elimination, every lane's pivot
 * a select. Each softmax is formed once per iterate and state: with the
 * value reductions, the flow pass keeps every state's Phi_pi(x) (X d L
 * floats) and the value pass reads it back. The caller passes work 64-byte
 * aligned (fogas._native.empty), so with L a multiple of VECTOR_PAD every
 * L-long array of it starts a cache line; as in the loop, a misaligned work
 * gives the same bits, only slower.
 *
 * The loop and the scorer's two passes over the states are built for
 * AVX-512F, AVX2 and the baseline (target_clones on x86-64 glibc, picked at
 * load time), and no clone fuses a multiply-add (-ffp-contract=off).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__)
/* glibc's libmvec has a vector exp; declaring it lets the exp loop call it. */
double exp(double) __attribute__((simd("notinbranch")));
#endif

typedef int64_t i64;

/* The loop's sites and the scorer's lanes are padded to a multiple of
 * VECTOR_PAD, a full vector of the widest clone (8 doubles), so their loops
 * run whole vectors. Each site or lane does its own arithmetic in a fixed
 * order, and -ffp-contract=off keeps every clone from fusing a multiply-add,
 * so it rounds as the default build does (but for the last bits of exp, which
 * each instruction set's libmvec computes). Everything a clone calls but exp
 * is inlined into it (always_inline): a 4 x 4 solve in baseline code, called
 * from the AVX-512 clone, measured about 3x slower than in a baseline build,
 * from mixing SSE and AVX code. */
#define VECTOR_PAD 8
#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

/* Inlined, so each clone of a caller runs its own copy. */
static inline __attribute__((always_inline)) double dot(const double *x, const double *y, i64 m)
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

static inline __attribute__((always_inline)) int all_finite(const double *x, i64 d)
{
    for (i64 j = 0; j < d; j++)
        if (!isfinite(x[j]))
            return 0;
    return 1;
}

/* Runs iterations 1..T from lambda_1 = theta_bar_0 = 0 over m sites, m a
 * multiple of VECTOR_PAD (x0 first, then the observed next states, then zero
 * columns of phi and W). The softmax skips its max-shift in iterations
 * 1..shift_free. work holds (A + d + 2) m floats.
 * out receives lambda_{T+1}, theta_bar_T and alpha theta_bar_{J-1}, d each.
 * With a table, its row t (5d + 1 floats) receives lambda_{t+1}, theta_bar_t,
 * theta_t, mu-hat's features and g_t, d each, then g_t^T Lambda g_t.
 *
 * Returns 0, or the iteration t whose lambda_{t+1} or theta_bar_t left the
 * finite numbers; finite[0..2] then say whether lambda_{t+1}, theta_bar_t
 * and g_t are finite. */
CLONES
i64 fogas_ascend(i64 T, i64 A, i64 d, i64 m, const double *phi, const double *W,
                 const double *omega, const double *lambda_mat, double x0_weight,
                 double alpha, double eta, double contraction, double d_theta,
                 double tie_tol, i64 shift_free, i64 J, double *work, double *out,
                 int *finite, double *table)
{
    double *L = work, *F = L + A * m, *u = F + d * m, *s = u + m;
    double lam[d], theta_bar[d], scaled[d], phimu[d], theta[d], g[d], lg[d];
    m &= -VECTOR_PAD;  /* a no-op that lets the site loops drop their remainders */
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

/* x[:, l] = (I - gamma P_l)^{-1} x[:, l] for each lane l < L, P_l the (d, d)
 * matrix P[(i * d + j) * L + l] and x (d, L), by Gaussian elimination with
 * partial pivoting. The lanes run in step: each lane's pivot search, row swap
 * and zero-pivot test are selects, so every lane does the arithmetic of the
 * elimination of its matrix alone (L = 1). M (d * d, L) and best, piv and f
 * (L each) are scratch. singular[l] becomes 1 where lane l meets an exactly
 * zero pivot, the singular case that LAPACK's getrf reports; that lane's x
 * is then not finite. */
static inline __attribute__((always_inline)) void
eliminate(i64 d, i64 L, const double *P, double gamma, double *x, double *M, double *best,
          double *piv, double *f, double *singular)
{
    for (i64 i = 0; i < d * d * L; i++)
        M[i] = -gamma * P[i];
    for (i64 l = 0; l < L; l++)
        singular[l] = 0.0;
    for (i64 i = 0; i < d; i++)
        for (i64 l = 0; l < L; l++)
            M[(i * d + i) * L + l] += 1.0;
    for (i64 k = 0; k < d; k++) {
        double *Mk = M + k * d * L;
        for (i64 l = 0; l < L; l++) {
            best[l] = fabs(Mk[k * L + l]);
            piv[l] = k;
        }
        for (i64 i = k + 1; i < d; i++)
            for (i64 l = 0; l < L; l++) {
                double a = fabs(M[(i * d + k) * L + l]);
                int larger = a > best[l];
                piv[l] = larger ? i : piv[l];
                best[l] = larger ? a : best[l];
            }
        for (i64 l = 0; l < L; l++)
            singular[l] = best[l] == 0.0 ? 1.0 : singular[l];
        for (i64 i = k + 1; i < d; i++) {
            double *Mi = M + i * d * L;
            for (i64 j = k; j < d; j++)
                for (i64 l = 0; l < L; l++) {
                    double top = Mk[j * L + l];
                    int swap = piv[l] == i;
                    Mk[j * L + l] = swap ? Mi[j * L + l] : top;
                    Mi[j * L + l] = swap ? top : Mi[j * L + l];
                }
            for (i64 l = 0; l < L; l++) {
                double top = x[k * L + l];
                int swap = piv[l] == i;
                x[k * L + l] = swap ? x[i * L + l] : top;
                x[i * L + l] = swap ? top : x[i * L + l];
            }
        }
        for (i64 i = k + 1; i < d; i++) {
            double *Mi = M + i * d * L;
            for (i64 l = 0; l < L; l++)
                f[l] = Mi[k * L + l] / Mk[k * L + l];
            for (i64 j = k + 1; j < d; j++)
                for (i64 l = 0; l < L; l++)
                    Mi[j * L + l] -= f[l] * Mk[j * L + l];
            for (i64 l = 0; l < L; l++)
                x[i * L + l] -= f[l] * x[k * L + l];
        }
    }
    for (i64 k = d - 1; k >= 0; k--) {
        for (i64 j = k + 1; j < d; j++)
            for (i64 l = 0; l < L; l++)
                x[k * L + l] -= M[(k * d + j) * L + l] * x[j * L + l];
        for (i64 l = 0; l < L; l++)
            x[k * L + l] /= M[(k * d + k) * L + l];
    }
}

/* The states that flow_block's pass takes at a time. (Its lanes are a multiple
 * of VECTOR_PAD, so every exp runs in a full vector and no iterate's scores
 * depend on how T splits into blocks.) */
#define SCORE_GROUP 4

/* F[j][l] = sum_a pi_l(a|x) phi_j(x, a) at one state x, for the L lanes of
 * par (d, L), pi_l the softmax of <phi(x, a), par[:, l]>, shifted by its
 * largest logit; phx is phi(x, .) (A, d), and e (A, L) and s (L) are scratch. */
static inline __attribute__((always_inline)) void
policy_features(i64 A, i64 d, i64 L, const double *phx, const double *par, double *e,
                double *s, double *F)
{
    for (i64 a = 0; a < A; a++) {
        double *ea = e + a * L;
        for (i64 l = 0; l < L; l++)
            ea[l] = phx[a * d] * par[l];
        for (i64 j = 1; j < d; j++)
            for (i64 l = 0; l < L; l++)
                ea[l] += phx[a * d + j] * par[j * L + l];
    }
    memcpy(s, e, L * sizeof *s);
    for (i64 a = 1; a < A; a++)
        for (i64 l = 0; l < L; l++)
            s[l] = e[a * L + l] > s[l] ? e[a * L + l] : s[l];
    for (i64 a = 0; a < A; a++)
        for (i64 l = 0; l < L; l++)
            e[a * L + l] -= s[l];
    for (i64 i = 0; i < A * L; i += VECTOR_PAD) {
#pragma omp simd
        for (int k = 0; k < VECTOR_PAD; k++)
            e[i + k] = exp(e[i + k]);
    }
    memcpy(s, e, L * sizeof *s);
    for (i64 a = 1; a < A; a++)
        for (i64 l = 0; l < L; l++)
            s[l] += e[a * L + l];
    for (i64 l = 0; l < L; l++)
        s[l] = 1.0 / s[l];
    for (i64 j = 0; j < d; j++) {
        double *Fj = F + j * L;
        for (i64 l = 0; l < L; l++)
            Fj[l] = e[l] * phx[j];
        for (i64 a = 1; a < A; a++)
            for (i64 l = 0; l < L; l++)
                Fj[l] += e[a * L + l] * phx[a * d + j];
        for (i64 l = 0; l < L; l++)
            Fj[l] *= s[l];
    }
}

/* vs[l] = <F[:, l], w[:, l]> for F and w (d, L). */
static inline __attribute__((always_inline)) void
lane_dots(i64 d, i64 L, const double *F, const double *w, double *vs)
{
    for (i64 l = 0; l < L; l++)
        vs[l] = F[l] * w[l];
    for (i64 j = 1; j < d; j++)
        for (i64 l = 0; l < L; l++)
            vs[l] += F[j * L + l] * w[j * L + l];
}

/* Rows l < B of rows (B, d) into columns l of cols (d, L); the padded lanes
 * l >= B get zeros. */
static void lanes_of(i64 B, i64 L, i64 d, const double *rows, double *cols)
{
    for (i64 j = 0; j < d; j++)
        for (i64 l = 0; l < L; l++)
            cols[j * L + l] = l < B ? rows[l * d + j] : 0.0;
}

/* The scorer's work, fogas_score_lane_floats(X, A, d, values) floats per
 * lane: the lanes' softmax parameters, theta_t (then theta^{pi_t}) and
 * lambda_t, (d, L) each, and the scratch of policy_features, the flow pass and
 * eliminate. With the value reductions, X d floats more per lane follow them:
 * Phi, every state's Phi_pi(x) (X, d, L), kept from the flow pass for the
 * value pass. */
struct lanes {
    double *par, *th, *lam, *e, *F, *f0, *acc, *M, *s, *vs, *best, *piv, *f, *singular, *Phi;
};

i64 fogas_score_lane_floats(i64 X, i64 A, i64 d, i64 values)
{
    return 2 * d * d + (4 + SCORE_GROUP) * d + A + 6 + (values ? X * d : 0);
}

static struct lanes lanes_in(double *work, i64 A, i64 d, i64 L)
{
    struct lanes w;
    w.par = work;
    w.th = w.par + d * L;
    w.lam = w.th + d * L;
    w.e = w.lam + d * L;
    w.F = w.e + A * L;
    w.f0 = w.F + SCORE_GROUP * d * L;
    w.acc = w.f0 + d * L;
    w.M = w.acc + d * d * L;
    w.s = w.M + d * d * L;
    w.vs = w.s + L;
    w.best = w.vs + L;
    w.piv = w.best + L;
    w.f = w.piv + L;
    w.singular = w.f + L;
    w.Phi = w.singular + L;
    return w;
}

/* acc += sum_g psi_g Phi_g^T over the G states of a group, psi_g = psg[g]
 * (d) and Phi_g = F[g] (d, L). Inlined with a constant G, each lane's
 * running sum stays in a register across the group, added to in the order
 * of the states. */
static inline __attribute__((always_inline)) void
accumulate(i64 G, i64 d, i64 L, const double *psg, const double *restrict F,
           double *restrict acc)
{
    for (i64 i = 0; i < d; i++)
        for (i64 j = 0; j < d; j++) {
            double *restrict acc_ij = acc + (i * d + j) * L;
            for (i64 l = 0; l < L; l++) {
                double sum = acc_ij[l];
                for (i64 g = 0; g < G; g++)
                    sum += psg[g * d + i] * F[(g * d + j) * L + l];
                acc_ij[l] = sum;
            }
        }
}

/* One block of L lanes, B of them iterates, in w. One pass over the states,
 * SCORE_GROUP at a time, forms every lane's Psi Phi_pi and Phi_pi(x0), and
 * with v_sum keeps each Phi_pi(x) in w->Phi and adds sum_{l < B}
 * <Phi_pi(x), theta_l> to v_sum[x], w->th holding the lanes' theta_t. Then
 * w->th receives the lanes' theta^{pi_t} by eliminate, and rows l < B of out
 * (theta^{pi_t}, Psi v^{pi_t}, rho(pi_t)). Returns 0, or 1 + the first lane
 * l < B whose I - gamma Psi Phi_pi is singular. */
CLONES
static i64 flow_block(i64 X, i64 A, i64 d, i64 L, i64 B, const double *phi, const double *psi,
                      const double *omega, double gamma, i64 x0, const struct lanes *w,
                      double *out, double *v_sum)
{
    double *th = w->th, *F = w->F, *f0 = w->f0, *acc = w->acc, *vs = w->vs;
    double psg[SCORE_GROUP * d];
    L &= -VECTOR_PAD;  /* a no-op that lets the lane loops drop their remainders */

    memset(acc, 0, d * d * L * sizeof *acc);
    for (i64 x = 0; x < X; x += SCORE_GROUP) {
        i64 G = X - x < SCORE_GROUP ? X - x : SCORE_GROUP;
        /* With v_sum, the group's Phi_pi(x) go straight to where they are kept. */
        double *Fx = v_sum ? w->Phi + x * d * L : F;
        for (i64 g = 0; g < G; g++) {
            double *Fg = Fx + g * d * L;
            policy_features(A, d, L, phi + (x + g) * A * d, w->par, w->e, w->s, Fg);
            if (x + g == x0)
                memcpy(f0, Fg, d * L * sizeof *Fg);
            for (i64 i = 0; i < d; i++)
                psg[g * d + i] = psi[i * X + x + g];
            for (i64 j = 0; j < d && v_sum; j++)
                v_sum[x + g] += dot(Fg + j * L, th + j * L, B);
        }
        if (G == SCORE_GROUP)
            accumulate(SCORE_GROUP, d, L, psg, Fx, acc);
        else
            for (i64 g = 0; g < G; g++)
                accumulate(1, d, L, psg + g * d, Fx + g * d * L, acc);
    }

    for (i64 j = 0; j < d; j++)
        for (i64 l = 0; l < L; l++)
            th[j * L + l] = omega[j];
    eliminate(d, L, acc, gamma, th, w->M, w->best, w->piv, w->f, w->singular);
    for (i64 l = 0; l < B; l++)
        if (w->singular[l])
            return l + 1;
    for (i64 i = 0; i < d; i++)  /* Psi v^{pi_t} = Psi Phi_pi theta^{pi_t} into F */
        lane_dots(d, L, acc + i * d * L, th, F + i * L);
    lane_dots(d, L, f0, th, vs);
    for (i64 l = 0; l < B; l++) {
        double *row = out + l * (2 * d + 1);
        for (i64 j = 0; j < d; j++) {
            row[j] = th[j * L + l];
            row[d + j] = F[j * L + l];
        }
        row[2 * d] = (1.0 - gamma) * vs[l];
    }
    return 0;
}

/* The second pass of a block, once w->th holds its theta^{pi_t}:
 * lambda_v[:, x] (d, X) gets sum_{l < B} lambda_l v^{pi_l}(x), with
 * v^{pi_l}(x) = <Phi_pi(x), theta^{pi_l}> and Phi_pi(x) read from w->Phi,
 * where flow_block kept it, so no softmax is formed twice. */
CLONES
static void value_block(i64 X, i64 d, i64 L, i64 B, const struct lanes *w, double *lambda_v)
{
    L &= -VECTOR_PAD;
    for (i64 x = 0; x < X; x++) {
        lane_dots(d, L, w->Phi + x * d * L, w->th, w->vs);
        for (i64 i = 0; i < d; i++)
            lambda_v[i * X + x] += dot(w->lam + i * L, w->vs, B);
    }
}

/* The exact scores of T softmax policies, pi_t the softmax of <phi(x, a),
 * params[t]> with params (T, d), in blocks of L lanes (a multiple of
 * VECTOR_PAD), the iterate innermost. phi is (X * A, d) state-major and psi
 * (d, X), both row-major. Row t of out (T, 2d + 1) receives theta^{pi_t},
 * Psi v^{pi_t} and rho(pi_t), from the flow system of Psi Phi_pi with rhs
 * omega and start Phi_pi(x0).
 *
 * With thetas and lambdas (T, d each), v_sum (X) receives sum_t v_{theta_t,
 * pi_t} and lambda_v (d, X) sum_t lambda_t (v^{pi_t})^T, the latter in a
 * second pass over the states, once a block's theta^{pi_t} are known, that
 * reads the Phi_pi(x) the first pass kept. Without them (NULL) neither is
 * touched. work holds L fogas_score_lane_floats(X, A, d, values) floats
 * (struct lanes).
 *
 * Returns 0, or 1 + the first t whose I - gamma Psi Phi_pi is singular. */
i64 fogas_score_iterates(i64 T, i64 X, i64 A, i64 d, i64 L, const double *phi,
                         const double *psi, const double *omega, double gamma, i64 x0,
                         const double *params, double *work, double *out,
                         const double *thetas, const double *lambdas, double *v_sum,
                         double *lambda_v)
{
    struct lanes w = lanes_in(work, A, d, L);

    for (i64 t0 = 0; t0 < T; t0 += L) {
        i64 B = T - t0 < L ? T - t0 : L;
        lanes_of(B, L, d, params + t0 * d, w.par);
        if (v_sum)
            lanes_of(B, L, d, thetas + t0 * d, w.th);
        i64 singular = flow_block(X, A, d, L, B, phi, psi, omega, gamma, x0, &w,
                                  out + t0 * (2 * d + 1), v_sum);
        if (singular)
            return t0 + singular;
        if (v_sum) {
            lanes_of(B, L, d, lambdas + t0 * d, w.lam);
            value_block(X, d, L, B, &w, lambda_v);
        }
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

/* summed[:, slot[x_next[i]]] += features[i] for i = 0, ..., n - 1 in turn,
 * features (n, d) and summed (d, k) row-major, so each entry of summed adds
 * its samples in their order, as np.bincount(slot[x_next], weights=column)
 * does per column. */
void fogas_group_next_states(i64 n, i64 d, i64 k, const double *features, const i64 *x_next,
                             const i64 *slot, double *summed)
{
    for (i64 i = 0; i < n; i++) {
        double *column = summed + slot[x_next[i]];
        for (i64 j = 0; j < d; j++)
            column[j * k] += features[i * d + j];
    }
}
