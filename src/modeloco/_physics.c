/* The planar biped's control steps and rewards: the kernel of every
 * lockstep batch that policy._advance runs, policy mean and observations
 * included, and of the tracking and goal rewards that score its rows. Its
 * last section is not physics: repr_join writes arrays of doubles as the text
 * CPython's repr gives, for the artifact and table writers (fileio.py), where
 * the compiler has unsigned __int128.
 *
 * sim.py compiles this file once per version of it, with the flags in
 * sim._CC_FLAGS, keeping the library in the package's __pycache__ for later
 * processes. sim.py calls sim_run, which runs a whole batch, sim_track and
 * sim_goal_rewards, and fileio.py calls repr_join, through ctypes; nothing
 * else is exported. The flags are part of the operation-order contract that
 * sim.py's module docstring states: no -ffast-math, so every operation rounds
 * as written; -ffp-contract=off, so no multiply-add is fused into one
 * rounding; -fno-builtin, so sin, cos, exp and fmod stay calls into the libm
 * that Python's math module and float type use, and sin and cos are not
 * merged into sincos. math.hypot is not libm's hypot, so python_hypot
 * below ports CPython's own. The policy mean's matrix products and tanh are
 * not this file's arithmetic: they call numpy's own float64 loops for
 * np.matmul and np.tanh, which sim.py looks up and passes in (struct policy),
 * so the mean keeps numpy's bits. tests/test_sim.py holds the plain Python
 * references that this code must match byte for byte. Do not reorder or
 * regroup its arithmetic.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The parameter vector, in the order RobotConfig packs it. */
enum {
    BASE_MASS, BASE_INERTIA, JOINT_INERTIA, JOINT_DAMPING, KP, KD, TORQUE_LIMIT,
    CONTACT_STIFFNESS, CONTACT_DAMPING, FRICTION, HIP_OFFSET, THIGH_LENGTH,
    SHANK_LENGTH, CONTROL_DT, SUBSTEPS, GRAVITY, CYCLE_DURATION
};

/* A state row, sim.py's ROW layout: q, qdot, the time, the phase, the clock
 * rate, the contact flags as 0.0 or 1.0, and the support height. */
enum {
    Q = 0, QDOT = 7, TIME = 14, PHASE = 15, CLOCK_RATE = 16, CONTACT_LEFT = 17,
    CONTACT_RIGHT = 18, SUPPORT = 19, ROW = 20
};

/* Termination status codes, sim.STATUSES's order. */
enum { RUNNING, FALLEN, BLOWUP };

/* The observation around the latent: the clock's sine and cosine before it,
 * 13 proprioceptive values after it. */
enum { CLOCK_DIM = 2, PROPRIO_DIM = 13, NUM_JOINTS = 4 };

/* math.pi: the double nearest pi. */
static const double PI = 3.141592653589793;

/* Terrain.height over the packed terrain: the breakpoint count, the base
 * height, then the (start, height) pairs in ascending start order. A NaN x
 * is >= no start, so it gets the base height. */
static double terrain_height(const double *terrain, double x)
{
    long n = (long)terrain[0];
    double h = terrain[1];
    for (long i = 0; i < n; i++) {
        if (x >= terrain[2 + 2 * i])
            h = terrain[3 + 2 * i];
        else
            break;
    }
    return h;
}

/* v clipped to [-limit, limit]; a NaN v stays NaN. */
static inline double clipped(double v, double limit)
{
    if (v > limit)
        return limit;
    if (v < -limit)
        return -limit;
    return v;
}

/* One leg's terms at the current positions and velocities. */
struct leg {
    /* Filled by leg_terms after each drift, from the positions alone: the
     * foot Jacobian's columns for the knee, the hip and the pitch, the foot
     * height, the terrain height under the foot, the penetration, the foot's
     * offset from the base and the hip and knee PD position terms. */
    double jxk, jzk, jxh, jzh, jxp, jzp, fz, g, pen, rx, rz, ph, pk;
    /* Filled by leg_forces at each evaluation: the normal and tangential
     * contact forces and the hip and knee accelerations. */
    double fn, ft, ah, ak;
};

/* The parameters both legs share, read once per control step: the thigh and
 * shank lengths, the PD gains, the torque limit, the contact stiffness,
 * damping and friction, and the joint damping and inertia. */
struct leg_params {
    double l1, l2, kp, kd, lim, ks, cd, mu, jd, ji;
};

/* Fill the position terms of the leg whose hip and knee stand at hip and
 * knee under the PD targets u[0] and u[1], on a base at x, z and pitch p,
 * where ds0 and dc0 are the hip offset times sin(p) and cos(p). */
static inline void leg_terms(struct leg *leg, double x, double z, double p, double ds0,
                             double dc0, double hip, double knee, const double *u,
                             const struct leg_params *lp, const double *terrain)
{
    const double l1 = lp->l1, l2 = lp->l2, kp = lp->kp;
    const double a1 = p + hip;
    const double a2 = a1 + knee;
    const double s1 = sin(a1), c1 = cos(a1), s2 = sin(a2), c2 = cos(a2);
    const double lc1 = l1 * c1, ls1 = l1 * s1;
    double fx;

    leg->jxk = l2 * c2;
    leg->jzk = l2 * s2;
    leg->jxh = lc1 + leg->jxk;
    leg->jzh = ls1 + leg->jzk;
    leg->jxp = dc0 + lc1 + leg->jxk;
    leg->jzp = ds0 + ls1 + leg->jzk;
    fx = x + ds0 + ls1 + leg->jzk;
    leg->fz = z - dc0 - lc1 - leg->jxk;
    leg->g = terrain_height(terrain, fx);
    leg->pen = leg->g - leg->fz;
    leg->rx = fx - x;
    leg->rz = leg->fz - z;
    leg->ph = kp * (u[0] - hip);
    leg->pk = kp * (u[1] - knee);
}

/* The contact force and the hip and knee accelerations of a leg whose
 * position terms are filled, at base velocities vx, vz and vp and hip and
 * knee rates dh and dk. A foot with no penetration, or whose spring-damper
 * would pull, has no force; a NaN penetration takes the contact branch. */
static inline void leg_forces(struct leg *leg, double vx, double vz, double vp, double dh,
                              double dk, const struct leg_params *lp)
{
    if (leg->pen <= 0.0) {
        leg->fn = leg->ft = 0.0;
    } else {
        leg->fn = lp->ks * leg->pen
            - lp->cd * (vz + leg->jzp * vp + leg->jzh * dh + leg->jzk * dk);
        if (leg->fn <= 0.0)
            leg->fn = leg->ft = 0.0;
        else
            leg->ft = clipped(-lp->cd * (vx + leg->jxp * vp + leg->jxh * dh + leg->jxk * dk),
                              lp->mu * leg->fn);
    }
    leg->ah = (clipped(leg->ph - lp->kd * dh, lp->lim) - lp->jd * dh
               + (leg->jxh * leg->ft + leg->jzh * leg->fn)) / lp->ji;
    leg->ak = (clipped(leg->pk - lp->kd * dk, lp->lim) - lp->jd * dk
               + (leg->jxk * leg->ft + leg->jzk * leg->fn)) / lp->ji;
}

/* Advance the q and qdot of state row s by one control step of 2 * substeps
 * kick-drift-kick evaluations under the PD targets in action, in place.
 *
 * Returns -1 if a value of the new q or qdot is not finite, leaving the
 * support in s as it was. Otherwise writes the terrain height under the new
 * base x to s[SUPPORT] and returns the contact flags of the final foot
 * positions: bit 0 the left foot, bit 1 the right. An infinite angle, which
 * Python's math.sin rejects, ends the substeps with a NaN pitch and every
 * other value as it stood. */
static int physics(double *s, const double *action, const double *params,
                   const double *terrain)
{
    double x = s[Q], z = s[Q + 1], p = s[Q + 2];
    double hl = s[Q + 3], kl = s[Q + 4], hr = s[Q + 5], kr = s[Q + 6];
    double vx = s[QDOT], vz = s[QDOT + 1], vp = s[QDOT + 2];
    double dhl = s[QDOT + 3], dkl = s[QDOT + 4], dhr = s[QDOT + 5], dkr = s[QDOT + 6];
    const double m = params[BASE_MASS], ib = params[BASE_INERTIA], d = params[HIP_OFFSET];
    const double gravity = params[GRAVITY];
    const struct leg_params lp = {
        params[THIGH_LENGTH], params[SHANK_LENGTH], params[KP], params[KD],
        params[TORQUE_LIMIT], params[CONTACT_STIFFNESS], params[CONTACT_DAMPING],
        params[FRICTION], params[JOINT_DAMPING], params[JOINT_INERTIA],
    };
    const long evaluations = 2 * (long)params[SUBSTEPS];
    const double h = params[CONTROL_DT] / params[SUBSTEPS];
    const double hh = 0.5 * h;
    int drift = 1;
    int stale = 1;
    /* Each leg's position terms, filled again when a drift has made them
     * stale. */
    struct leg left = {0}, right = {0};

    for (long i = 0; i < evaluations; i++) {
        double torque;
        if (stale) {
            double ds0, dc0;
            /* The angles whose sine and cosine follow: an infinite one means
             * the run has blown up. A NaN pitch keeps the returned state
             * non-finite even when the angle that overflowed was a sum of
             * finite ones. */
            if (isinf(p) || isinf(p + hl) || isinf(p + hl + kl) || isinf(p + hr)
                || isinf(p + hr + kr)) {
                p = NAN;
                break;
            }
            ds0 = d * sin(p);
            dc0 = d * cos(p);
            leg_terms(&left, x, z, p, ds0, dc0, hl, kl, action, &lp, terrain);
            leg_terms(&right, x, z, p, ds0, dc0, hr, kr, action + 2, &lp, terrain);
            stale = 0;
        }
        leg_forces(&left, vx, vz, vp, dhl, dkl, &lp);
        leg_forces(&right, vx, vz, vp, dhr, dkr, &lp);

        /* Base: the 0.0 starts of the sums fix the sign of a zero total. */
        torque = 0.0 + (left.rx * left.fn - left.rz * left.ft)
            + (right.rx * right.fn - right.rz * right.ft);
        vx = vx + hh * ((0.0 + left.ft + right.ft) / m);
        vz = vz + hh * ((0.0 + left.fn + right.fn) / m - gravity);
        vp = vp + hh * (torque / ib);
        dhl = dhl + hh * left.ah;
        dkl = dkl + hh * left.ak;
        dhr = dhr + hh * right.ah;
        dkr = dkr + hh * right.ak;
        if (drift) {
            x = x + h * vx;
            z = z + h * vz;
            p = p + h * vp;
            hl = hl + h * dhl;
            kl = kl + h * dkl;
            hr = hr + h * dhr;
            kr = kr + h * dkr;
            stale = 1;
        }
        drift = !drift;
    }

    s[Q] = x;
    s[Q + 1] = z;
    s[Q + 2] = p;
    s[Q + 3] = hl;
    s[Q + 4] = kl;
    s[Q + 5] = hr;
    s[Q + 6] = kr;
    s[QDOT] = vx;
    s[QDOT + 1] = vz;
    s[QDOT + 2] = vp;
    s[QDOT + 3] = dhl;
    s[QDOT + 4] = dkl;
    s[QDOT + 5] = dhr;
    s[QDOT + 6] = dkr;
    for (int k = Q; k < TIME; k++) {
        if (!isfinite(s[k]))
            return -1;
    }
    /* The evaluation after the last drift computed the feet at the final
     * positions. */
    s[SUPPORT] = terrain_height(terrain, x);
    return (left.fz < left.g) | (right.fz < right.g) << 1;
}

/* CPython's float_rem: x % y for floats, the remainder taking y's sign. */
static double python_mod(double x, double y)
{
    double mod = fmod(x, y);
    if (mod) {
        if ((y < 0) != (mod < 0))
            mod += y;
    } else {
        mod = copysign(0.0, y);
    }
    return mod;
}

/* A double-length value: hi + lo, with lo below the last bit of hi. */
struct double_length {
    double hi, lo;
};

/* Dekker's split of x into two halves of 26 bits or fewer. */
static struct double_length dl_split(double x)
{
    double t = x * 134217729.0; /* 2 ** 27 + 1 */
    struct double_length r;
    r.hi = t - (t - x);
    r.lo = x - r.hi;
    return r;
}

/* x * y as a double-length value, exact barring underflow (Dekker). */
static struct double_length dl_mul(double x, double y)
{
    struct double_length xx = dl_split(x), yy = dl_split(y), r;
    double p = xx.hi * yy.hi;
    double q = xx.hi * yy.lo + xx.lo * yy.hi;
    r.hi = p + q;
    r.lo = p - r.hi + q + xx.lo * yy.lo;
    return r;
}

/* a + b as a double-length value, for |a| >= |b|. */
static struct double_length dl_fast_sum(double a, double b)
{
    struct double_length r;
    r.hi = a + b;
    r.lo = (a - r.hi) + b;
    return r;
}

/* Python's math.hypot(x, y): CPython's vector_norm (Modules/mathmodule.c)
 * for two coordinates, ported because libm's hypot rounds some results
 * differently. An infinite argument wins over a NaN. tests/test_sim.py
 * checks it against the running interpreter's math.hypot. */
static double python_hypot(double x, double y)
{
    double v[2], max = 0.0, h, scale, csum = 1.0, frac1 = 0.0, frac2 = 0.0;
    struct double_length pr, sm;
    int max_e;

    v[0] = fabs(x);
    v[1] = fabs(y);
    for (int i = 0; i < 2; i++) {
        if (v[i] > max)
            max = v[i];
    }
    if (isinf(max))
        return max;
    if (isnan(v[0]) || isnan(v[1]))
        return NAN;
    if (max == 0.0)
        return max;
    frexp(max, &max_e);
    if (max_e < -1023) {
        /* ldexp(1.0, -max_e) would overflow: divide by max instead. */
        for (int i = 0; i < 2; i++) {
            x = v[i] / max;
            sm = dl_fast_sum(csum, x * x);
            csum = sm.hi;
            frac1 += sm.lo;
        }
        return max * sqrt(csum - 1.0 + frac1);
    }
    scale = ldexp(1.0, -max_e);
    for (int i = 0; i < 2; i++) {
        x = v[i] * scale;              /* lossless scaling */
        pr = dl_mul(x, x);             /* lossless squaring */
        sm = dl_fast_sum(csum, pr.hi); /* lossless addition */
        csum = sm.hi;
        frac1 += pr.lo;                /* lossy addition */
        frac2 += sm.lo;                /* lossy addition */
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    x = csum - 1.0 + (frac1 + frac2);
    h += x / (2.0 * h); /* differential correction */
    return h / scale;
}

/* The termination status of a stepped state row s whose q and qdot are
 * finite (physics() has ruled out a blowup): fallen if the base is below 0.3
 * of the nominal height above the support or pitched past 1 rad, else
 * running. */
static int64_t status_of(const double *s, const double *params)
{
    const double nominal = params[HIP_OFFSET] + params[THIGH_LENGTH] + params[SHANK_LENGTH];
    if (s[Q + 1] - s[SUPPORT] < 0.3 * nominal)
        return FALLEN;
    if (fabs(s[Q + 2]) > 1.0)
        return FALLEN;
    return RUNNING;
}

/* The policy observation of state row s under a latent, into obs: the clock,
 * the latent, then the support-relative height, the pitch, the joint angles,
 * the heading velocity in the base frame, the vertical and pitch rates and
 * the joint rates. */
static void observe_row(const double *s, const double *latent, int64_t latent_dim,
                        double *obs)
{
    const double angle = 2.0 * PI * s[PHASE];
    const double pitch = s[Q + 2];
    const double c = cos(pitch), sn = sin(pitch);
    const double vx = s[QDOT], vz = s[QDOT + 1];
    const double heading = c * vx + sn * vz;
    double *at = obs + CLOCK_DIM + latent_dim;
    obs[0] = sin(angle);
    obs[1] = cos(angle);
    for (int64_t k = 0; k < latent_dim; k++)
        obs[CLOCK_DIM + k] = latent[k];
    at[0] = s[Q + 1] - s[SUPPORT];
    at[1] = pitch;
    for (int k = 0; k < NUM_JOINTS; k++)
        at[2 + k] = s[Q + 3 + k];
    at[6] = heading;
    at[7] = vz;
    at[8] = s[QDOT + 2];
    for (int k = 0; k < NUM_JOINTS; k++)
        at[9 + k] = s[QDOT + 3 + k];
}

/* One lockstep batch of B rows, as sim.Lockstep lays it out. Steps count
 * from the batch's step 0. A row without a parent starts at step 0 from its
 * start row, history[0][r]. A row r with parent p starts at step starts[r]
 * from p's state there, if p is running there (running_at); otherwise it
 * never runs, and its length stays 0. A parent precedes its rows. */
struct batch {
    int64_t rows;           /* B */
    int64_t latent_dim;
    int64_t noise_steps;    /* the noise's second dimension */
    double *history;        /* (T + 1, B, ROW): row r's state at step t */
    double *observed;       /* (T + 1, B, obs_dim): history's observations, or NULL */
    double *means;          /* (T, B, NUM_JOINTS): the mean row r acted on at t, or NULL */
    const double *latents;  /* (B, latent_dim): the latent each row observes under */
    const double *noise;    /* (B, noise_steps, NUM_JOINTS), by step, or NULL */
    const double *params;
    const double *terrain;
    const int64_t *budgets; /* (B,): the steps each row may take, >= 1 with a parent */
    int64_t *lengths;       /* (B,): the steps each row took */
    int64_t *status;        /* (B,): the status of each row's last state */
    const int64_t *parents; /* (B,): the row each row continues, or -1 */
    const int64_t *starts;  /* (B,): the step at which each row starts */
};

/* Whether row r of batch b has a state at step t, and that state's status
 * is running: r has reached t, is still running there, and has started, so
 * its parent, if it has one, was running at its start. */
static int running_at(const struct batch *b, int64_t r, int64_t t)
{
    for (;;) {
        const int64_t end = b->starts[r] + b->lengths[r];
        if (t < b->starts[r] || t > end || (t == end && b->status[r] != RUNNING))
            return 0;
        if (b->parents[r] < 0)
            return 1;
        t = b->starts[r];
        r = b->parents[r];
    }
}

/* Start the rows of batch b that start at step t, in ascending order, after
 * the first kept live rows, and return the new live count. A row with a
 * parent that is running at t copies the parent's state at t; a row that
 * starts with steps left joins the live rows, with its observation at t in
 * obs, which holds one observation per live row. */
static int64_t start_rows(const struct batch *b, int64_t *live, double *obs, int64_t t,
                          int64_t kept)
{
    const int64_t obs_dim = CLOCK_DIM + b->latent_dim + PROPRIO_DIM;
    double *at = b->history + t * b->rows * ROW;
    for (int64_t r = 0; r < b->rows; r++) {
        const int64_t p = b->parents[r];
        if (p < 0 ? t != 0 : b->starts[r] != t || !running_at(b, p, t))
            continue;
        if (p >= 0)
            memcpy(at + r * ROW, at + p * ROW, ROW * sizeof(double));
        if (b->budgets[r] > 0) {
            live[kept] = r;
            observe_row(at + r * ROW, b->latents + r * b->latent_dim, b->latent_dim,
                        obs + kept * obs_dim);
            kept++;
        }
    }
    return kept;
}

/* Step the first m live rows of batch b from step t to t + 1 and return how
 * many are live at t + 1.
 *
 * Live row k, row r = live[k], acts on means[k], plus noise[r][t] if there is
 * noise. Its state at t + 1 is its state at t after physics(), with the time
 * advanced by control_dt, the phase by clock_rate * control_dt /
 * cycle_duration under Python's float %, the contacts and the support from
 * physics() (no contact and the old support for a non-finite state), and
 * its status set: a blowup where physics() found a non-finite state, else
 * status_of. The rows that are running with steps left are compacted
 * to the front of live, in order, and their observations at t + 1 written
 * to the front of obs; the rows that start at t + 1 follow (start_rows). */
static int64_t sim_lockstep(const struct batch *b, int64_t *live, double *obs,
                            const double *means, int64_t m, int64_t t)
{
    const double *params = b->params;
    const int64_t obs_dim = CLOCK_DIM + b->latent_dim + PROPRIO_DIM;
    double *now = b->history + t * b->rows * ROW;
    double *next = now + b->rows * ROW;
    int64_t kept = 0;

    for (int64_t k = 0; k < m; k++) {
        const int64_t r = live[k];
        const double *src = now + r * ROW;
        double *dst = next + r * ROW;
        double action[NUM_JOINTS];
        int contacts;
        int64_t status;

        for (int j = 0; j < NUM_JOINTS; j++) {
            action[j] = means[k * NUM_JOINTS + j];
            if (b->noise)
                action[j] = action[j] + b->noise[(r * b->noise_steps + t) * NUM_JOINTS + j];
        }
        memcpy(dst, src, ROW * sizeof(double));
        contacts = physics(dst, action, params, b->terrain);
        dst[TIME] = src[TIME] + params[CONTROL_DT];
        dst[PHASE] = python_mod(
            src[PHASE] + src[CLOCK_RATE] * params[CONTROL_DT] / params[CYCLE_DURATION], 1.0);
        dst[CONTACT_LEFT] = contacts >= 0 && (contacts & 1) ? 1.0 : 0.0;
        dst[CONTACT_RIGHT] = contacts >= 0 && (contacts & 2) ? 1.0 : 0.0;
        status = contacts < 0 ? BLOWUP : status_of(dst, params);
        b->lengths[r]++;
        b->status[r] = status;
        if (status == RUNNING && b->lengths[r] < b->budgets[r]) {
            live[kept] = r;
            observe_row(dst, b->latents + r * b->latent_dim, b->latent_dim,
                        obs + kept * obs_dim);
            kept++;
        }
    }
    return start_rows(b, live, obs, t + 1, kept);
}

/* Start batch b at step 0: every row running, with no steps taken, and the
 * rows that start at step 0 started (start_rows). Returns how many are
 * live. */
static int64_t sim_start(const struct batch *b, int64_t *live, double *obs)
{
    for (int64_t r = 0; r < b->rows; r++) {
        b->lengths[r] = 0;
        b->status[r] = RUNNING;
    }
    return start_rows(b, live, obs, 0, 0);
}

/* A numpy ufunc inner loop, numpy's PyUFuncGenericFunction: the argument
 * pointers, the loop dimensions and the byte steps, and the loop's data. */
typedef void (*ufunc_loop)(char **args, const intptr_t *dimensions, const intptr_t *steps,
                           void *data);

/* A tanh MLP, policy.MlpParams, as sim.Lockstep.run lays it out: every layer
 * but the last is followed by tanh. params holds each layer's (out, in)
 * weight, row by row, then its bias. */
struct policy {
    int64_t layers;        /* L */
    const int64_t *widths; /* (L + 1,): the input width first, the output width last */
    const double *params;
    ufunc_loop matmul;     /* np.matmul's 'dd->d' loop */
    void *matmul_data;
    ufunc_loop tanh;       /* np.tanh's first 'd->d' loop */
    void *tanh_data;
};

/* The outputs of policy p for the m rows of obs, into out, as
 * policy.policy_mean computes them: per layer, numpy's matmul loop called as
 * numpy calls it for a C-contiguous (m, 1, in) stack times the transposed
 * (out, in) weight, then the bias added, then, before the last layer,
 * numpy's tanh loop in place over the contiguous m x out block. The hidden
 * layers alternate between two halves of work, m x p's widest hidden width. */
static void policy_mean(const struct policy *p, double *work, int64_t widest, int64_t m,
                        const double *obs, double *out)
{
    const intptr_t size = sizeof(double);
    const double *in = obs, *weight = p->params;
    for (int64_t i = 0; i < p->layers; i++) {
        const intptr_t k = p->widths[i], n = p->widths[i + 1];
        const double *bias = weight + n * k;
        double *h = i + 1 == p->layers ? out : work + (i % 2) * m * widest;
        char *args[3] = {(char *)in, (char *)weight, (char *)h};
        const intptr_t dims[4] = {m, 1, k, n};
        const intptr_t steps[9] = {k * size, 0, n * size, 0, size, size, k * size, 0, size};
        p->matmul(args, dims, steps, p->matmul_data);
        for (int64_t r = 0; r < m; r++) {
            for (intptr_t j = 0; j < n; j++)
                h[r * n + j] = h[r * n + j] + bias[j];
        }
        if (i + 1 < p->layers) {
            char *inplace[2] = {(char *)h, (char *)h};
            const intptr_t count = m * n, unit[2] = {size, size};
            p->tanh(inplace, &count, unit, p->tanh_data);
        }
        in = h;
        weight = bias + n;
    }
}

/* Run batch b from step 0 to its end on policy p: sim_start, then per step
 * the live rows' policy means and sim_lockstep, until no row is live. A
 * batch that records copies each step's live observations and means, and
 * then observes each started row's last state, which no step observed. The
 * scratch they use is one allocation, freed before the return. Returns 0,
 * or -1, having run nothing, if the allocation fails. */
int64_t sim_run(const struct batch *b, const struct policy *p)
{
    const int64_t rows = b->rows, obs_dim = CLOCK_DIM + b->latent_dim + PROPRIO_DIM;
    int64_t widest = 0, *live;
    double *obs, *means, *work;
    for (int64_t i = 1; i < p->layers; i++) {
        if (p->widths[i] > widest)
            widest = p->widths[i];
    }
    /* A byte more, so that an empty batch's block is not NULL. */
    live = malloc(rows * (sizeof(int64_t) + (obs_dim + NUM_JOINTS + 2 * widest) * sizeof(double))
                  + 1);
    if (!live)
        return -1;
    obs = (double *)(live + rows);
    means = obs + rows * obs_dim;
    work = means + rows * NUM_JOINTS;
    for (int64_t t = 0, m = sim_start(b, live, obs); m; t++) {
        policy_mean(p, work, widest, m, obs, means);
        for (int64_t k = 0; b->observed && k < m; k++) {
            const int64_t at = t * rows + live[k];
            memcpy(b->observed + at * obs_dim, obs + k * obs_dim, obs_dim * sizeof(double));
            memcpy(b->means + at * NUM_JOINTS, means + k * NUM_JOINTS, NUM_JOINTS * sizeof(double));
        }
        m = sim_lockstep(b, live, obs, means, m, t);
    }
    for (int64_t r = 0; b->observed && r < rows; r++) {
        const int64_t at = (b->starts[r] + b->lengths[r]) * rows + r;
        if (b->parents[r] < 0 || b->lengths[r])
            observe_row(b->history + at * ROW, b->latents + r * b->latent_dim, b->latent_dim,
                        b->observed + at * obs_dim);
    }
    free(live);
    return 0;
}

/* A library clip, as ReferenceMotion packs it: the top sample index, 1.0 for
 * a transient clip, the displacement over one clip, then the top + 1 base
 * positions, support-relative heights, pitches, left contacts and right
 * contacts of its samples. */
enum { CLIP_TOP, CLIP_TRANSIENT, CLIP_DISPLACEMENT, CLIP_SAMPLES };

/* The reward parameters, as RewardConfig packs them: the position, pitch and
 * contact weights, then their sensitivities. */
enum { W_POSITION, W_PITCH, W_CONTACT, K_POSITION, K_PITCH, K_CONTACT };

/* A channel of a clip with top index top at phase in [0, 1]: linear between
 * the samples around phase * top, the top sample from there on. */
static double interp(const double *channel, int64_t top, double phase)
{
    const double u = phase * (double)top;
    const int64_t i = (int64_t)u;
    double frac;
    if (i >= top)
        return channel[top];
    frac = u - (double)i;
    return channel[i] * (1.0 - frac) + channel[i + 1] * frac;
}

/* The tracking reward of state row s against the clip's reference at a
 * finite phase after clips completed clips, for a reference whose position
 * at clip 0, phase 0 is x0. The reference phase is phase under Python's
 * float % 1.0 when phase lies outside [0, 1); a transient clip holds its
 * last sample once a clip has completed. The reward is the weighted sum of
 * exp(-k * error) over the position error (the hypot of the x and height
 * errors), the pitch error and the contact error (the hypot of the two
 * mismatch flags). */
static double track_row(const double *s, const double *clip, double x0, int64_t clips,
                        double phase, const double *reward)
{
    const int64_t top = (int64_t)clip[CLIP_TOP];
    const double *pos = clip + CLIP_SAMPLES, *zs = pos + top + 1, *pitches = zs + top + 1;
    const double *left = pitches + top + 1, *right = left + top + 1;
    double x, z, pitch, cl, cr, dx, dz, dpitch, ec_l, ec_r;
    int64_t ci;

    if (!(0.0 <= phase && phase < 1.0))
        phase = python_mod(phase, 1.0);
    if (clip[CLIP_TRANSIENT] != 0.0 && clips >= 1) {
        x = x0 + clip[CLIP_DISPLACEMENT];
        z = zs[top];
        pitch = pitches[top];
        cl = left[top];
        cr = right[top];
    } else {
        ci = (int64_t)(phase * (double)top);
        if (ci > top)
            ci = top;
        x = x0 + (double)clips * clip[CLIP_DISPLACEMENT] + interp(pos, top, phase);
        z = interp(zs, top, phase);
        pitch = interp(pitches, top, phase);
        cl = left[ci];
        cr = right[ci];
    }
    dx = s[Q] - x;
    dz = (s[Q + 1] - s[SUPPORT]) - z;
    dpitch = s[Q + 2] - pitch;
    ec_l = s[CONTACT_LEFT] != cl ? 1.0 : 0.0;
    ec_r = s[CONTACT_RIGHT] != cr ? 1.0 : 0.0;
    return reward[W_POSITION] * exp(-reward[K_POSITION] * python_hypot(dx, dz))
        + reward[W_PITCH] * exp(-reward[K_PITCH] * fabs(dpitch))
        + reward[W_CONTACT] * exp(-reward[K_CONTACT] * python_hypot(ec_l, ec_r));
}

/* The tracking rewards of a segment of n + 1 state rows against a packed
 * clip: rewards[k] scores row k + 1.
 *
 * The reference is anchored at the first row: its position equals that
 * row's x at that row's phase. A clip completes at each step whose phase is
 * below the one before. Returns 0, or -1, writing nothing, when a phase is
 * not finite or the first row's phase lies outside [0, 1]. */
int64_t sim_track(int64_t n, const double *rows, const double *clip, const double *reward,
                  double *rewards)
{
    const int64_t top = (int64_t)clip[CLIP_TOP];
    const double anchor = rows[PHASE];
    double x0;
    int64_t clips = 0;

    if (!(0.0 <= anchor && anchor <= 1.0))
        return -1;
    for (int64_t k = 1; k <= n; k++) {
        if (!isfinite(rows[k * ROW + PHASE]))
            return -1;
    }
    x0 = rows[Q] - interp(clip + CLIP_SAMPLES, top, anchor);
    for (int64_t k = 1; k <= n; k++) {
        const double *s = rows + k * ROW;
        if (s[PHASE] < s[PHASE - ROW])
            clips++;
        rewards[k - 1] = track_row(s, clip, x0, clips, s[PHASE], reward);
    }
    return 0;
}

/* The planner's per-step reward of n state rows, exp(-hypot(goal_x - x,
 * goal_z - z)) of each, into rewards. */
void sim_goal_rewards(int64_t n, const double *rows, double goal_x, double goal_z,
                      double *rewards)
{
    for (int64_t k = 0; k < n; k++) {
        const double *s = rows + k * ROW;
        rewards[k] = exp(-python_hypot(goal_x - s[Q], goal_z - s[Q + 1]));
    }
}

/* ---- Float text --------------------------------------------------------
 *
 * repr_join writes doubles as CPython's repr(float) writes them: the
 * shortest digits that read back as the same double, found by Ryu (Ulf
 * Adams, "Ryu: fast float-to-string conversion", PLDI 2018), laid out like
 * CPython's 'r' format. It does integer arithmetic alone, so the
 * floating-point flags of the physics above never touch it.
 *
 * The caller passes Ryu's two tables of 125-bit powers of 5 as (low, high)
 * uint64 pairs: pow5_inv[i] = 2 ** (bitlength(5 ** i) - 1 + 125) // 5 ** i + 1
 * for i < 342, and pow5[i] = 5 ** i scaled by a power of 2 to 125 bits for
 * i < 326. fileio.py builds them from exact integers.
 *
 * The section needs unsigned __int128. Where the compiler has none, it is
 * left out, the physics above still builds, and fileio.py writes floats
 * with json. */

#ifdef __SIZEOF_INT128__

enum { POW5_BITS = 125 };

typedef unsigned __int128 uint128;

/* bitlength(5 ** e), or 1 at e = 0; 0 <= e <= 3528. */
static int32_t pow5bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2 ** e)); 0 <= e <= 1650. */
static int32_t log10_pow2(int32_t e)
{
    return (int32_t)(((uint32_t)e * 78913) >> 18);
}

/* floor(log10(5 ** e)); 0 <= e <= 2620. */
static int32_t log10_pow5(int32_t e)
{
    return (int32_t)(((uint32_t)e * 732923) >> 20);
}

/* Whether 5 ** p divides v, for v > 0. */
static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* (m * mul) >> j for a (low, high) pair mul, 64 <= j. */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const uint128 low = (uint128)m * mul[0];
    const uint128 high = (uint128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest decimal d * 10 ** *exp10 that reads back as the positive
 * finite double of these bits; Ryu's d2d. A tie between two shortest
 * candidates goes to the one nearer the double, then to the even one. */
static uint64_t shortest_digits(uint64_t mantissa, int32_t exponent, const uint64_t *pow5_inv,
                                const uint64_t *pow5, int32_t *exp10)
{
    /* The double is mv * 2 ** e2; the reals that round to it lie in
     * [mv - 1 - mm_shift, mv + 2] * 2 ** e2, ends included when m2 is even.
     * vr, vp and vm are mv, the upper end and the lower end times
     * 2 ** e2 * 10 ** -*exp10, truncated. */
    const int32_t e2 = (exponent ? exponent : 1) - 1023 - 52 - 2;
    const uint64_t m2 = exponent ? (UINT64_C(1) << 52) | mantissa : mantissa;
    const int accept_bounds = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    const uint64_t mm_shift = mantissa != 0 || exponent <= 1;
    const uint64_t *mul;
    uint64_t vr, vp, vm;
    int32_t q, j;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0, last_removed = 0;

    if (e2 >= 0) {
        q = log10_pow2(e2) - (e2 > 3);
        *exp10 = q;
        mul = pow5_inv + 2 * q;
        j = -e2 + q + POW5_BITS + pow5bits(q) - 1;
    } else {
        q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        *exp10 = q + e2;
        mul = pow5 + 2 * i;
        j = q - (pow5bits(i) - POW5_BITS);
    }
    vr = mul_shift(mv, mul, j);
    vp = mul_shift(mv + 2, mul, j);
    vm = mul_shift(mv - 1 - mm_shift, mul, j);

    /* Whether the truncations dropped only zeros, where that can be so. */
    if (e2 >= 0 && q <= 21) {
        /* Only one of mv, mv + 2 and mv - 1 - mm_shift can be a multiple of 5. */
        if (mv % 5 == 0)
            vr_trailing_zeros = multiple_of_pow5(mv, q);
        else if (accept_bounds)
            vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
        else
            vp -= multiple_of_pow5(mv + 2, q);
    } else if (e2 < 0 && q <= 1) {
        /* mv has two trailing zero bits, mv + 2 one, and mv - 1 - mm_shift
         * one iff mm_shift. */
        vr_trailing_zeros = 1;
        if (accept_bounds)
            vm_trailing_zeros = mm_shift == 1;
        else
            vp--;
    } else if (e2 < 0 && q < 63) {
        vr_trailing_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
    }

    /* Drop digits while the interval still holds a shorter decimal. */
    while (vp / 10 > vm / 10) {
        vm_trailing_zeros &= vm % 10 == 0;
        vr_trailing_zeros &= last_removed == 0;
        last_removed = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        ++*exp10;
    }
    /* An included lower end that ends in zeros may drop more. */
    if (vm_trailing_zeros) {
        while (vm % 10 == 0) {
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            ++*exp10;
        }
    }
    if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
        last_removed = 4; /* exactly halfway: round to even */
    return vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5);
}

/* Writes the text of x, as repr(x) gives it, at out (at most 24 bytes);
 * returns its length, or -1 if x is not finite. The text is exponent form,
 * d[.ddd]e+XX with at least two exponent digits, when the decimal point
 * falls 4 or more places before the first digit or more than 16 after it;
 * otherwise fixed form, with ".0" after an integral value. */
static int64_t repr_double(double x, const uint64_t *pow5_inv, const uint64_t *pow5, char *out)
{
    uint64_t bits, d;
    int32_t exponent, exp10, decpt, n = 0;
    char digits[20];
    char *p = out;

    memcpy(&bits, &x, sizeof bits);
    exponent = (int32_t)((bits >> 52) & 0x7ff);
    if (exponent == 0x7ff)
        return -1;
    if (bits >> 63)
        *p++ = '-';
    if (!(bits << 1)) {
        memcpy(p, "0.0", 3);
        return p + 3 - out;
    }
    d = shortest_digits(bits & ((UINT64_C(1) << 52) - 1), exponent, pow5_inv, pow5, &exp10);
    for (; d; d /= 10)
        digits[19 - n++] = (char)('0' + d % 10);
    memmove(digits, digits + 20 - n, (size_t)n);
    decpt = exp10 + n; /* the value is 0.digits * 10 ** decpt */

    if (decpt <= -4 || decpt > 16) {
        int32_t e = decpt - 1;
        *p++ = digits[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, (size_t)(n - 1));
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-decpt);
        p += -decpt;
        memcpy(p, digits, (size_t)n);
        p += n;
    } else if (decpt < n) {
        memcpy(p, digits, (size_t)decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, digits + decpt, (size_t)(n - decpt));
        p += n - decpt;
    } else {
        memcpy(p, digits, (size_t)n);
        p += n;
        memset(p, '0', (size_t)(decpt - n));
        p += decpt - n;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p - out;
}

/* The n doubles as rows of width: each row's values joined by sep and
 * followed by end, so that one row of all n values with an empty end is
 * sep.join(map(repr, values)). A value is written as repr(value) writes it,
 * or, in a column j whose ints[j] is nonzero (ints may be NULL), as
 * str(int(value)) does, for an integral value below 1e16 in magnitude,
 * whose repr is its integer digits and ".0". out holds
 * n * (24 + max(seplen, endlen)) bytes. Returns the text's length, or -1 at
 * the first value that is not finite. */
int64_t repr_join(int64_t n, const double *values, int64_t width, const char *ints,
                  const char *sep, int64_t seplen, const char *end, int64_t endlen,
                  const uint64_t *pow5_inv, const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t k = 0; k < n; k++) {
        const int64_t j = k % width;
        const int64_t length = repr_double(values[k], pow5_inv, pow5, p);
        if (length < 0)
            return -1;
        p += ints && ints[j] ? length - 2 : length;
        if (j + 1 == width) {
            memcpy(p, end, (size_t)endlen);
            p += endlen;
        } else if (k + 1 < n) {
            memcpy(p, sep, (size_t)seplen);
            p += seplen;
        }
    }
    return p - out;
}

#endif /* __SIZEOF_INT128__ */
