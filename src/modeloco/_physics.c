/* The physics of one control step of the planar biped: sim.step's kernel.
 *
 * sim.py compiles this file on the first call of sim.step with
 *
 *     cc -std=c99 -O2 -shared -fPIC -ffp-contract=off -fno-builtin ... -lm
 *
 * and calls sim_step through ctypes. The flags are part of the operation-order
 * contract that sim.py's module docstring states: no -ffast-math, so every
 * operation rounds as written; -ffp-contract=off, so no multiply-add is fused
 * into one rounding; -fno-builtin, so sin and cos stay calls into the libm
 * that Python's math module uses and are not merged into sincos.
 * tests/test_sim.py holds the plain-loop Python reference that this code
 * must match byte for byte. Do not reorder or regroup its arithmetic.
 */

#include <math.h>

/* The parameter vector, in the order RobotConfig packs it. */
enum {
    BASE_MASS, BASE_INERTIA, JOINT_INERTIA, JOINT_DAMPING, KP, KD, TORQUE_LIMIT,
    CONTACT_STIFFNESS, CONTACT_DAMPING, FRICTION, HIP_OFFSET, THIGH_LENGTH,
    SHANK_LENGTH, CONTROL_DT, SUBSTEPS, GRAVITY
};

/* The state buffer: q, qdot, the action's joint targets and the support. */
enum { Q = 0, QDOT = 7, ACTION = 14, SUPPORT = 18 };

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

/* Advance io's q and qdot by one control step of 2 * substeps kick-drift-kick
 * evaluations under the action's PD targets, in place.
 *
 * Returns -1 if a value of the new q or qdot is not finite, leaving the
 * support in io as it was. Otherwise writes the terrain height under the new
 * base x to io[SUPPORT] and returns the contact flags of the final foot
 * positions: bit 0 the left foot, bit 1 the right. An infinite angle, which
 * Python's math.sin rejects, ends the substeps with a NaN pitch and every
 * other value as it stood. */
int sim_step(double *io, const double *params, const double *terrain)
{
    double x = io[Q], z = io[Q + 1], p = io[Q + 2];
    double hl = io[Q + 3], kl = io[Q + 4], hr = io[Q + 5], kr = io[Q + 6];
    double vx = io[QDOT], vz = io[QDOT + 1], vp = io[QDOT + 2];
    double dhl = io[QDOT + 3], dkl = io[QDOT + 4], dhr = io[QDOT + 5], dkr = io[QDOT + 6];
    const double uhl = io[ACTION], ukl = io[ACTION + 1];
    const double uhr = io[ACTION + 2], ukr = io[ACTION + 3];
    const double m = params[BASE_MASS], ib = params[BASE_INERTIA];
    const double ji = params[JOINT_INERTIA], jd = params[JOINT_DAMPING];
    const double kp = params[KP], kd = params[KD], lim = params[TORQUE_LIMIT];
    const double ks = params[CONTACT_STIFFNESS], cd = params[CONTACT_DAMPING];
    const double mu = params[FRICTION];
    const double d = params[HIP_OFFSET], l1 = params[THIGH_LENGTH], l2 = params[SHANK_LENGTH];
    const double gravity = params[GRAVITY];
    const long evaluations = 2 * (long)params[SUBSTEPS];
    const double h = params[CONTROL_DT] / params[SUBSTEPS];
    const double hh = 0.5 * h;
    int drift = 1;
    int stale = 1;
    /* The terms that depend on the positions alone, computed when a drift
     * has made them stale. */
    double jxkl = 0.0, jzkl = 0.0, jxhl = 0.0, jzhl = 0.0, jxpl = 0.0, jzpl = 0.0;
    double fzl = 0.0, gl = 0.0, penl = 0.0, rxl = 0.0, rzl = 0.0, phl = 0.0, pkl = 0.0;
    double jxkr = 0.0, jzkr = 0.0, jxhr = 0.0, jzhr = 0.0, jxpr = 0.0, jzpr = 0.0;
    double fzr = 0.0, gr = 0.0, penr = 0.0, rxr = 0.0, rzr = 0.0, phr = 0.0, pkr = 0.0;

    for (long i = 0; i < evaluations; i++) {
        if (stale) {
            double s0, c0, ds0, dc0, a1, a2, s1, c1, s2, c2, lc1, ls1, fxl, fxr;
            /* The angles whose sine and cosine follow: an infinite one means
             * the run has blown up. A NaN pitch keeps the returned state
             * non-finite even when the angle that overflowed was a sum of
             * finite ones. */
            if (isinf(p) || isinf(p + hl) || isinf(p + hl + kl) || isinf(p + hr)
                || isinf(p + hr + kr)) {
                p = NAN;
                break;
            }
            s0 = sin(p);
            c0 = cos(p);
            ds0 = d * s0;
            dc0 = d * c0;

            /* Left leg: foot kinematics, penetration, PD position terms. */
            a1 = p + hl;
            a2 = a1 + kl;
            s1 = sin(a1);
            c1 = cos(a1);
            s2 = sin(a2);
            c2 = cos(a2);
            lc1 = l1 * c1;
            ls1 = l1 * s1;
            jxkl = l2 * c2;
            jzkl = l2 * s2;
            jxhl = lc1 + jxkl;
            jzhl = ls1 + jzkl;
            jxpl = dc0 + lc1 + jxkl;
            jzpl = ds0 + ls1 + jzkl;
            fxl = x + ds0 + ls1 + jzkl;
            fzl = z - dc0 - lc1 - jxkl;
            gl = terrain_height(terrain, fxl);
            penl = gl - fzl;
            rxl = fxl - x;
            rzl = fzl - z;
            phl = kp * (uhl - hl);
            pkl = kp * (ukl - kl);

            /* Right leg: the same, on the right joints. */
            a1 = p + hr;
            a2 = a1 + kr;
            s1 = sin(a1);
            c1 = cos(a1);
            s2 = sin(a2);
            c2 = cos(a2);
            lc1 = l1 * c1;
            ls1 = l1 * s1;
            jxkr = l2 * c2;
            jzkr = l2 * s2;
            jxhr = lc1 + jxkr;
            jzhr = ls1 + jzkr;
            jxpr = dc0 + lc1 + jxkr;
            jzpr = ds0 + ls1 + jzkr;
            fxr = x + ds0 + ls1 + jzkr;
            fzr = z - dc0 - lc1 - jxkr;
            gr = terrain_height(terrain, fxr);
            penr = gr - fzr;
            rxr = fxr - x;
            rzr = fzr - z;
            phr = kp * (uhr - hr);
            pkr = kp * (ukr - kr);
            stale = 0;
        }

        double fnl, ftl, fnr, ftr, fvx, fvz, cap, tau, ahl, akl, ahr, akr, torque;

        /* Left leg: contact force, joint accelerations. */
        if (penl <= 0.0) {
            fnl = ftl = 0.0;
        } else {
            fvz = vz + jzpl * vp + jzhl * dhl + jzkl * dkl;
            fnl = ks * penl - cd * fvz;
            if (fnl <= 0.0) {
                fnl = ftl = 0.0;
            } else {
                fvx = vx + jxpl * vp + jxhl * dhl + jxkl * dkl;
                cap = mu * fnl;
                ftl = -cd * fvx;
                if (ftl > cap)
                    ftl = cap;
                else if (ftl < -cap)
                    ftl = -cap;
            }
        }
        tau = phl - kd * dhl;
        if (tau > lim)
            tau = lim;
        else if (tau < -lim)
            tau = -lim;
        ahl = (tau - jd * dhl + (jxhl * ftl + jzhl * fnl)) / ji;
        tau = pkl - kd * dkl;
        if (tau > lim)
            tau = lim;
        else if (tau < -lim)
            tau = -lim;
        akl = (tau - jd * dkl + (jxkl * ftl + jzkl * fnl)) / ji;

        /* Right leg: the same, on the right joints. */
        if (penr <= 0.0) {
            fnr = ftr = 0.0;
        } else {
            fvz = vz + jzpr * vp + jzhr * dhr + jzkr * dkr;
            fnr = ks * penr - cd * fvz;
            if (fnr <= 0.0) {
                fnr = ftr = 0.0;
            } else {
                fvx = vx + jxpr * vp + jxhr * dhr + jxkr * dkr;
                cap = mu * fnr;
                ftr = -cd * fvx;
                if (ftr > cap)
                    ftr = cap;
                else if (ftr < -cap)
                    ftr = -cap;
            }
        }
        tau = phr - kd * dhr;
        if (tau > lim)
            tau = lim;
        else if (tau < -lim)
            tau = -lim;
        ahr = (tau - jd * dhr + (jxhr * ftr + jzhr * fnr)) / ji;
        tau = pkr - kd * dkr;
        if (tau > lim)
            tau = lim;
        else if (tau < -lim)
            tau = -lim;
        akr = (tau - jd * dkr + (jxkr * ftr + jzkr * fnr)) / ji;

        /* Base: the 0.0 starts of the sums fix the sign of a zero total. */
        torque = 0.0 + (rxl * fnl - rzl * ftl) + (rxr * fnr - rzr * ftr);
        vx = vx + hh * ((0.0 + ftl + ftr) / m);
        vz = vz + hh * ((0.0 + fnl + fnr) / m - gravity);
        vp = vp + hh * (torque / ib);
        dhl = dhl + hh * ahl;
        dkl = dkl + hh * akl;
        dhr = dhr + hh * ahr;
        dkr = dkr + hh * akr;
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

    io[Q] = x;
    io[Q + 1] = z;
    io[Q + 2] = p;
    io[Q + 3] = hl;
    io[Q + 4] = kl;
    io[Q + 5] = hr;
    io[Q + 6] = kr;
    io[QDOT] = vx;
    io[QDOT + 1] = vz;
    io[QDOT + 2] = vp;
    io[QDOT + 3] = dhl;
    io[QDOT + 4] = dkl;
    io[QDOT + 5] = dhr;
    io[QDOT + 6] = dkr;
    for (int k = Q; k < ACTION; k++) {
        if (!isfinite(io[k]))
            return -1;
    }
    /* The evaluation after the last drift computed the feet at the final
     * positions. */
    io[SUPPORT] = terrain_height(terrain, x);
    return (fzl < gl) | (fzr < gr) << 1;
}
