/* Compiled training, projection, lattice, scoring, copula-solve and
 * surface kernels, bound through ctypes by xorlab._cbackend: the eight
 * kernels train_run, project_grid, forward_lattice, fixed_scores,
 * fs_deviation, solve_t, grid_stats and grid_csv (with grid_csv_work,
 * the size of its work space).  The SSE at a network's own weights is the
 * one cell of project_grid that leaves them as they are, so it has no
 * kernel of its own.
 *
 * Mirrors the loop reference in tests/loop_kernels.py operation for
 * operation: the same splitmix64 stream as _pycore.py, the same
 * accumulation order, constants and update expressions, and the same
 * status codes.  The Python backend's generated code follows the same
 * reference, so both backends produce bit-identical floats.  Keep them
 * in lockstep when editing any of them.  Build with -ffp-contract=off:
 * a fused multiply-add rounds differently from the separate multiply and
 * add that Python performs.  xorlab.kernels.CFLAGS also has
 * -fno-tree-vectorize, because vectorizing the 2- to 9-term dot products
 * only adds overhead.
 *
 * SSE_BLOWUP, REST_EVERY, PLATEAU_TOL, UNIT_EPS, ZERO_DISPATCH,
 * INF_DISPATCH and ONE_WINDOW are not defined here: the build passes
 * each as a -D flag (xorlab.kernels.DEFINES) with the value of its one
 * copy in _pycore or copula.
 *
 * Layout conventions (see _pycore.py):
 *   sizes[0..nlayers]  layer widths including the input
 *   acts[0..nlayers-1] one code per non-input layer:
 *                      0 id, 1 tanh, 2 sigmoid, 3 relu (and any
 *                      other code)
 *   w                  all layer matrices flattened row-major and
 *                      concatenated, each row (incoming weights..., bias)
 *   xs, ts             sample inputs row-major, one target per sample
 *
 * train_run stops once the weights are at rest, as the Python backend's
 * does (see _pycore.py): after the status checks of epoch 1 and of every
 * REST_EVERY-th epoch it returns when no epoch could move any weight bit,
 * with the weights, iteration count, SSE, status and trajectory the full
 * run gives.  The check, at_rest, runs train_run's own epoch function
 * on a copy of the weights and compares the bits, so the update rule is
 * written once.  The reference runs every epoch; the exit only saves
 * time.  train_run also runs one forward pass fewer an epoch than the
 * reference: the SSE pass leaves every sample's forward values at w, the
 * weights the next epoch starts from, and that epoch's first sample
 * reuses its own (epoch's warm).  The reference, and the Python backend,
 * run that forward pass again; the floats are the same.
 *
 * Every forward pass in C is one function, units_at: it computes the
 * units of a batch of inputs layer by layer, and within each unit loops
 * over the inputs, so that the independent tanh calls of one unit
 * overlap instead of waiting on each other (see units_at).  A training
 * sample is a batch of one, the SSE pass a batch of every sample, a
 * lattice row a batch of its points, and a project_grid level a batch of
 * every sample.  Each unit is pre_act then act on the same operands as in
 * the reference, which runs one input at a time; only the order in which
 * independent units are computed differs, so the floats are the same.
 * The values go to the Net's rows, one per input of the call (net_init
 * sizes them): input k's are always in row k.
 *
 * project_grid computes each unit once per grid, once per row or once
 * per cell, at the level _pycore.grid_levels gives it, the one copy of
 * the rule the Python backend's project_grid is generated from too; the
 * reference runs a full forward pass per cell.  Hoisting changes how
 * often each float is computed, not its operands or their order.
 *
 * forward_lattice runs units_at on each row of a lattice.  fixed_scores
 * is _pycore._max_abs_diff over several rows of (points, reference) at
 * once: classify's fixed candidates and its edge bound.
 *
 * fs_deviation mirrors copula.xor_f_lattice at CopulaParam.finite(s)
 * and _unit instead, for every s, over the upper triangle of the
 * lattice, F_s being symmetric: it snaps s onto the One window
 * (ONE_WINDOW) and returns -1 for every s it refuses, for which the
 * caller raises the Python scorer's error.  solve_t mirrors
 * _pycore.solve_t, the bisection of copula.solve_s.  Both take A_s from
 * frank_raw, in copula._frank_raw's float order and dispatch, and the
 * closed form of Frank's A_s from frank_closed, its one copy here; in
 * Python it is written in _frank_raw and xor_f_lattice.
 *
 * grid_stats is _pycore.grid_stats's scan as one loop.  grid_csv writes
 * a grid's CSV lines as Python's '%.17g' writes each number: a normal
 * double from 1e-6 up to 2^53 by an exact integer path (digits17: its
 * 17 digits m 10^p / 2^-e, rounded half to even in 128-bit integers,
 * then layout17: laid out as "%g" lays them out, two digits at a time),
 * everything else by snprintf("%.17g"), as is every value where the
 * compiler has no 128-bit integers; NaN as "nan" whatever its sign, as
 * Python writes it.  It streams: each call fills one CSV_CHUNK-byte chunk
 * of the caller's work space (grid_csv_work sizes it) from the cell where
 * the last call stopped, so the caller hands the chunk on and calls again,
 * and the text of a grid is never whole in memory.
 *
 * The caller checks shapes and passes buffers of the right lengths.
 * Functions that allocate return -1 when an allocation fails, 0 otherwise;
 * train_run returns its status code 0..3 instead of 0.  grid_csv
 * allocates nothing and returns the length of the chunk it filled.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define INV53 (1.0 / 9007199254740992.0)  /* 2 ** -53 */

static uint64_t sm_next(uint64_t *state)
{
    uint64_t z;
    *state += GAMMA;
    z = *state;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

static double sm_unit(uint64_t *state)
{
    return (double)(sm_next(state) >> 11) * INV53;
}

static double act(int code, double z)
{
    double e;
    if (code == 0)
        return z;
    if (code == 1)
        return tanh(z);
    if (code == 2) {
        if (z >= 0.0)
            return 1.0 / (1.0 + exp(-z));
        e = exp(z);
        return e / (1.0 + e);
    }
    return z > 0.0 ? z : 0.0;
}

static double slope(int code, double z, double a)
{
    if (code == 0)
        return 1.0;
    if (code == 1)
        return 1.0 - a * a;
    if (code == 2)
        return a * (1.0 - a);
    return z > 0.0 ? 1.0 : 0.0;
}

/* A network's shape plus every forward value of a call: pre and post
 * hold rows rows of one slot per unit, row k input k's latest values, and
 * delta one row. */
typedef struct {
    int nlayers;
    const int *sizes, *acts;
    int *offs, *uoffs;     /* weight-block and unit offset of each layer */
    double *pre, *post, *delta;
} Net;

static int net_init(Net *n, int nlayers, const int *sizes, const int *acts,
                    int rows)
{
    size_t units, cells;
    n->nlayers = nlayers;
    n->sizes = sizes;
    n->acts = acts;
    n->offs = malloc(2 * (size_t)(nlayers + 1) * sizeof(int));
    if (n->offs == NULL)
        return -1;
    n->uoffs = n->offs + nlayers + 1;
    n->offs[0] = n->uoffs[0] = 0;
    for (int l = 0; l < nlayers; l++) {
        n->offs[l + 1] = n->offs[l] + sizes[l + 1] * (sizes[l] + 1);
        n->uoffs[l + 1] = n->uoffs[l] + sizes[l + 1];
    }
    units = (size_t)n->uoffs[nlayers];
    cells = (size_t)rows * units;
    /* zeroed: backward writes only the first output unit's delta, and
     * the updates read the others as 0.0; never empty, delta having a
     * slot per unit */
    n->pre = calloc(2 * cells + units, sizeof(double));
    if (n->pre == NULL) {
        free(n->offs);
        return -1;
    }
    n->post = n->pre + cells;
    n->delta = n->post + cells;
    return 0;
}

static void net_free(Net *n)
{
    free(n->offs);
    free(n->pre);
}

/* The pre-activation of the unit whose weight row is row, from the
 * outputs a of the layer below.  Accumulation order is pinned: ascending
 * input index, bias last. */
static double pre_act(const double *row, const double *a, int n_prev)
{
    double z = 0.0;
    for (int j = 0; j < n_prev; j++)
        z += row[j] * a[j];
    return z + row[n_prev];
}

/* The units of the count inputs x (row-major, sizes[0] values each),
 * into pre and post: count rows of one slot per unit, in layer order.
 * With level NULL it computes every unit; otherwise only the units u
 * with level[u] == lev, and of the top layer only the first unit, the one
 * that feeds the error, reading the others from pre/post as an earlier
 * call left them.  Each unit is pre_act then act, so its floats do not
 * depend on the order units are computed in.
 *
 * The inputs are the innermost loop, so the count evaluations of one
 * unit, which do not depend on each other, are issued back to back: a
 * glibc tanh that waits on the one before costs about 40 ns on x86-64
 * (gcc 12.2), and four to eight independent ones overlap to about 9 to
 * 11 ns each.  One input at a time, every pass is a chain of dependent
 * tanh calls. */
static void units_at(const Net *n, const double *w, const double *x,
                     int count, const int *level, int lev, double *pre,
                     double *post)
{
    int units = n->uoffs[n->nlayers], n_in = n->sizes[0];
    for (int l = 0; l < n->nlayers; l++) {
        int n_prev = n->sizes[l], code = n->acts[l];
        int width = level != NULL && l == n->nlayers - 1 ? 1
                                                         : n->sizes[l + 1];
        for (int i = 0; i < width; i++) {
            int u = n->uoffs[l] + i;
            const double *row = w + n->offs[l] + i * (n_prev + 1);
            if (level != NULL && level[u] != lev)
                continue;
            for (int k = 0; k < count; k++) {
                size_t at = (size_t)k * units;
                const double *a = l > 0 ? post + at + n->uoffs[l - 1]
                                        : x + (size_t)k * n_in;
                double z = pre_act(row, a, n_prev);
                pre[at + u] = z;
                post[at + u] = act(code, z);
            }
        }
    }
}

/* The first output of a network of two inputs at every (axis[i],
 * axis[j]), into out[i * n + j]: one units_at call per lattice row i, over
 * its n points, into the net's n rows, so every float is the one a
 * pointwise forward pass gives. */
int forward_lattice(int nlayers, const int *sizes, const int *acts,
                    const double *w, const double *axis, int n, double *out)
{
    Net net;
    int units, top;
    double *x;
    if (net_init(&net, nlayers, sizes, acts, n) < 0)
        return -1;
    units = net.uoffs[nlayers];
    top = net.uoffs[nlayers - 1];
    /* a row's inputs; one spare slot: with n 0, malloc(0) may return
     * NULL */
    x = malloc((2 * (size_t)n + 1) * sizeof(double));
    if (x == NULL) {
        net_free(&net);
        return -1;
    }
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            x[2 * j] = axis[i];
            x[2 * j + 1] = axis[j];
        }
        units_at(&net, w, x, n, NULL, 0, net.pre, net.post);
        for (int j = 0; j < n; j++)
            out[(size_t)i * n + j] = net.post[(size_t)j * units + top];
    }
    free(x);
    net_free(&net);
    return 0;
}

/* The SSE at w, summed in sample order, from one units_at call over every
 * sample into the net's rows, which it leaves at w: the next epoch's
 * first sample, whichever it is, reuses its row (epoch's warm). */
static double sse(const Net *n, const double *w, const double *xs,
                  const double *ts, int n_samples)
{
    int units = n->uoffs[n->nlayers], top = n->uoffs[n->nlayers - 1];
    double total = 0.0, d;
    units_at(n, w, xs, n_samples, NULL, 0, n->pre, n->post);
    for (int k = 0; k < n_samples; k++) {
        d = n->post[(size_t)k * units + top] - ts[k];
        total += d * d;
    }
    return total;
}

/* Deltas dE/dz for every unit, E = (out - target)^2 / 2, from one
 * input's forward values pre and post. */
static void backward(const Net *n, const double *w, double target,
                     const double *pre, const double *post)
{
    int last = n->nlayers - 1, top = n->uoffs[last];
    n->delta[top] = (post[top] - target)
                    * slope(n->acts[last], pre[top], post[top]);
    for (int l = last - 1; l >= 0; l--) {
        int base = n->offs[l + 1], width = n->sizes[l + 1];
        int n_next = n->sizes[l + 2], code = n->acts[l];
        const double *above = n->delta + n->uoffs[l + 1];
        for (int j = 0; j < width; j++) {
            int u = n->uoffs[l] + j;
            double acc = 0.0;
            for (int i = 0; i < n_next; i++)
                acc += above[i] * w[base + i * (width + 1) + j];
            n->delta[u] = acc * slope(code, pre[u], post[u]);
        }
    }
}

/* One epoch at w: the count samples order[0..count-1] in turn, each
 * with its forward pass into its own row of the net and its backward
 * pass; per sample, each sample's update of w at once; full batch, the
 * partials summed over the samples into gsum (scratch of n_weights), then
 * w -= lr * gsum.  The one copy of the update rule: train_run runs it on
 * the weights, at_rest on a copy.  When warm is set, order[0]'s row
 * already holds its forward values at w (sse leaves every row so), and
 * the first sample skips its forward pass.
 * Applying the partials as they are computed is faster than writing them
 * to a buffer first: with gcc 12.2 on x86-64, a buffered variant made
 * train_run 1.015x slower on per-sample tanh runs, 1.06x on relu runs and
 * 1.02x on full-batch tanh runs (medians of 80 interleaved rounds). */
static void epoch(const Net *n, double *w, const double *xs,
                  const double *ts, const int *order, int count, double lr,
                  int per_sample, int warm, double *gsum)
{
    int n_weights = n->offs[n->nlayers], units = n->uoffs[n->nlayers];
    if (!per_sample)
        for (int k = 0; k < n_weights; k++)
            gsum[k] = 0.0;
    for (int s = 0; s < count; s++) {
        int k = order[s];
        const double *x = xs + (size_t)k * n->sizes[0];
        double *pre = n->pre + (size_t)k * units;
        double *post = n->post + (size_t)k * units;
        if (s > 0 || !warm)
            units_at(n, w, x, 1, NULL, 0, pre, post);
        backward(n, w, ts[k], pre, post);
        for (int l = 0; l < n->nlayers; l++) {
            const double *below = l > 0 ? post + n->uoffs[l - 1] : x;
            int n_prev = n->sizes[l];
            for (int i = 0; i < n->sizes[l + 1]; i++) {
                int row = n->offs[l] + i * (n_prev + 1);
                double di = n->delta[n->uoffs[l] + i];
                if (per_sample) {
                    for (int j = 0; j < n_prev; j++)
                        w[row + j] -= lr * (di * below[j]);
                    w[row + n_prev] -= lr * di;
                } else {
                    for (int j = 0; j < n_prev; j++)
                        gsum[row + j] += di * below[j];
                    gsum[row + n_prev] += di;
                }
            }
        }
    }
    if (!per_sample)
        for (int k = 0; k < n_weights; k++)
            w[k] -= lr * gsum[k];
}

/* Whether an epoch would leave w bit for bit as it is, found by running
 * epoch on copy, a copy of w: per sample, each sample of order run alone
 * must leave it so; full batch, the whole epoch in order (the identity,
 * which full-batch runs never shuffle) must.  The verdict does not depend
 * on the order passed: per sample, each sample runs alone at w, and it is
 * the same set of samples in any order; full batch, order is always the
 * identity.  The weights are finite here, so equal bits are equal
 * weights, the sign of zero included.  copy and gsum are scratch of
 * n_weights each.  Each run writes its samples' rows, at copy. */
static int at_rest(const Net *n, const double *w, const double *xs,
                   const double *ts, const int *order, int n_samples,
                   double lr, int per_sample, double *copy, double *gsum)
{
    size_t bytes = (size_t)n->offs[n->nlayers] * sizeof(double);
    int runs = per_sample ? n_samples : 1, count = per_sample ? 1 : n_samples;
    memcpy(copy, w, bytes);
    for (int s = 0; s < runs; s++) {
        epoch(n, copy, xs, ts, order + s, count, lr, per_sample, 0, gsum);
        if (memcmp(copy, w, bytes) != 0)
            return 0;
    }
    return 1;
}

/* Draws a new permutation of order[0..n-1] in place, Fisher-Yates from
 * the top, one draw for each i from n - 1 down to 1. */
static void shuffle(int *order, int n, uint64_t *seed)
{
    for (int i = n - 1; i > 0; i--) {
        int j = (int)(sm_next(seed) % (uint64_t)(i + 1));
        int k = order[i];
        order[i] = order[j];
        order[j] = k;
    }
}

/* Gradient-descent run from the seed's initial weights, written to w.
 * *traj is a malloc'd buffer of the per-iteration SSE (NULL when record
 * is 0 or no iteration ran); the caller releases it with kern_free.
 * After the status checks of epoch 1 and of every REST_EVERY-th epoch,
 * a run whose weights are at rest stops: every later epoch would end
 * with the same weights and SSE, so the SSE fills the rest of *traj.
 *
 * Per sample, order is shuffled at the top of each epoch, as in the
 * reference; full batch, it stays the identity.  The SSE pass leaves
 * every sample's row at w, so the next epoch's first sample reuses its
 * own (warm), one forward pass fewer an epoch.  Epoch 1 and every epoch
 * after an at_rest call start cold. */
int train_run(int nlayers, const int *sizes, const int *acts,
              const double *xs, const double *ts, int n_samples,
              double lr, int max_iters, double tol, int per_sample,
              uint64_t seed, double init_range, int record,
              double *w, int *iters_out, double *sse_out, double **traj)
{
    Net n;
    int n_weights, status = 1, iters = max_iters, warm = 0;
    size_t cap = 0;                    /* trajectory slots allocated */
    double err = INFINITY, *gsum, *copy, *grown;
    int *order;

    *traj = NULL;
    if (net_init(&n, nlayers, sizes, acts, n_samples) < 0)
        return -1;
    n_weights = n.offs[nlayers];
    /* gsum and at_rest's copy of w: never empty, every layer having
     * weights */
    gsum = malloc(2 * (size_t)n_weights * sizeof(double));
    order = malloc((size_t)n_samples * sizeof(int));
    if (gsum == NULL || (order == NULL && n_samples > 0))
        goto nomem;
    copy = gsum + n_weights;
    for (int k = 0; k < n_weights; k++)
        w[k] = (2.0 * sm_unit(&seed) - 1.0) * init_range;
    for (int k = 0; k < n_samples; k++)
        order[k] = k;

    for (int it = 0; it < max_iters; it++) {   /* iteration it + 1 */
        if (per_sample)
            shuffle(order, n_samples, &seed);
        epoch(&n, w, xs, ts, order, n_samples, lr, per_sample, warm, gsum);
        err = sse(&n, w, xs, ts, n_samples);
        if (record) {
            if ((size_t)it == cap) {
                cap = cap ? 2 * cap : 64;
                if (cap > (size_t)max_iters)
                    cap = (size_t)max_iters;
                grown = realloc(*traj, cap * sizeof(double));
                if (grown == NULL)
                    goto nomem;
                *traj = grown;
            }
            (*traj)[it] = err;
        }
        int bad = !isfinite(err);
        for (int k = 0; k < n_weights && !bad; k++)
            bad = !isfinite(w[k]);
        if (bad || err > SSE_BLOWUP || err < tol) {
            status = bad ? 3 : err > SSE_BLOWUP ? 2 : 0;
            iters = it + 1;
            break;
        }
        int check = it == 0 || (it + 1) % REST_EVERY == 0;
        if (check && at_rest(&n, w, xs, ts, order, n_samples, lr, per_sample,
                             copy, gsum)) {
            if (record) {
                grown = realloc(*traj, (size_t)max_iters * sizeof(double));
                if (grown == NULL)
                    goto nomem;
                *traj = grown;
                for (int k = it + 1; k < max_iters; k++)
                    (*traj)[k] = err;
            }
            break;
        }
        warm = !check;
    }

    *iters_out = iters;
    *sse_out = err;
    free(gsum);
    free(order);
    net_free(&n);
    return status;

nomem:
    free(*traj);
    *traj = NULL;
    free(gsum);
    free(order);
    net_free(&n);
    return -1;
}

void kern_free(void *p)
{
    free(p);
}

/* SSE at every (avals[i], bvals[j]) written into slots ia/ib of w, which
 * is overwritten there (when ia == ib, b wins); out is row-major,
 * a-major.  Each unit is computed for every sample at once, by units_at,
 * at its level in level, the list _pycore.grid_levels gives: before both
 * loops (0), once per avals entry (1) or once per cell (2).  Each level's
 * call reads the lower levels' units from the net's row per sample.  Each
 * unit is pre_act then act, and each cell's SSE is summed in sample
 * order, so every float is the one a full forward pass per cell gives.
 * A cell's samples are the batch: batching the cells of a row as well
 * read no faster. */
int project_grid(int nlayers, const int *sizes, const int *acts, double *w,
                 const double *xs, const double *ts, int n_samples,
                 int ia, int ib, const int *level, const double *avals,
                 int na, const double *bvals, int nb, double *out)
{
    Net n;
    int units, top;
    if (net_init(&n, nlayers, sizes, acts, n_samples) < 0)
        return -1;
    units = n.uoffs[nlayers];
    top = n.uoffs[nlayers - 1];
    units_at(&n, w, xs, n_samples, level, 0, n.pre, n.post);
    for (int i = 0; i < na; i++) {
        w[ia] = avals[i];
        units_at(&n, w, xs, n_samples, level, 1, n.pre, n.post);
        for (int j = 0; j < nb; j++) {
            double total = 0.0;
            w[ib] = bvals[j];
            units_at(&n, w, xs, n_samples, level, 2, n.pre, n.post);
            for (int k = 0; k < n_samples; k++) {
                double d = n.post[(size_t)k * units + top] - ts[k];
                total += d * d;
            }
            out[(size_t)i * nb + j] = total;
        }
    }
    net_free(&n);
    return 0;
}

/* Frank's A_s(x, y) in closed form, from ex = expm1(x L), ey = expm1(y L)
 * and dL = expm1(L), with L = log(s) != 0. */
static double frank_closed(double ex, double ey, double dL, double L)
{
    return log1p(ex * ey / dL) / L;
}

/* A_s(x, y) as copula._frank_raw takes it: min(x, y) below ZERO_DISPATCH
 * and max(x + y - 1, 0) above INF_DISPATCH, each picking its operand as
 * Python's min and max do; x y when log(s) == 0 (s == 1 bitwise); the
 * closed form everywhere else. */
static double frank_raw(double s, double x, double y)
{
    double L, v;
    if (s < ZERO_DISPATCH)
        return y < x ? y : x;
    if (s > INF_DISPATCH) {
        v = x + y - 1.0;
        return 0.0 > v ? 0.0 : v;
    }
    L = log(s);
    if (L == 0.0)
        return x * y;
    return frank_closed(expm1(x * L), expm1(y * L), expm1(L), L);
}

/* max |outs - F_s| over the n x n lattice of axis, row-major, as
 * _pycore.fs_scorer takes it from copula.xor_f_lattice at
 * CopulaParam.finite(s): s within ONE_WINDOW of 1 is snapped to 1; in the
 * closed-form range, L = log(s), expm1(x L) once per axis value (into ex),
 * and x + y - 2 (log1p(ex ey / expm1(L)) / L) at each point; everywhere
 * else (the dispatched s, s == 1 and s == inf) x + y - 2 frank_raw(s, x,
 * y); then _unit's clamp.  axis must already have passed _unit (the
 * caller checks it).  F_s(x, y) and F_s(y, x) are one float (IEEE
 * addition and multiplication commute, and frank_raw's min and max give
 * the same value either way), so each value is computed once, over the
 * upper triangle i <= j, and compared with both outs[i n + j] and
 * outs[j n + i].  The maximum is taken as Python's max() takes it: the
 * first point's deviation, (0, 0) in either order, then any larger one,
 * and inf for an empty lattice, as _pycore._max_abs_diff's default; so
 * the order of the other points cannot change it.  Returns -1 for every
 * s it refuses: !(s > 0), where CopulaParam.finite raises, and an s with
 * an F_s value outside _unit's window [-UNIT_EPS, 1 + UNIT_EPS], which
 * comes with its mirror image; the caller raises the Python scorer's
 * error for that s. */
double fs_deviation(int n, const double *axis, const double *outs,
                    double s, double *ex)
{
    double L = 0.0, dL = 0.0, worst = INFINITY;
    int closed;
    if (!(s > 0.0))
        return -1.0;
    if (fabs(s - 1.0) <= ONE_WINDOW)
        s = 1.0;
    closed = s != 1.0 && s >= ZERO_DISPATCH && s <= INF_DISPATCH;
    if (closed) {
        L = log(s);
        dL = expm1(L);
        for (int i = 0; i < n; i++)
            ex[i] = expm1(axis[i] * L);
    }
    for (int i = 0; i < n; i++) {
        double x = axis[i];
        for (int j = i; j < n; j++) {
            double y = axis[j], f, d;
            if (closed)
                f = x + y - 2.0 * frank_closed(ex[i], ex[j], dL, L);
            else
                f = x + y - 2.0 * frank_raw(s, x, y);
            if (!(f >= 0.0 && f <= 1.0)) {
                if (!(f >= -UNIT_EPS && f <= 1.0 + UNIT_EPS))
                    return -1.0;
                f = f < 0.0 ? 0.0 : 1.0;
            }
            d = fabs(outs[(size_t)i * n + j] - f);
            if ((i == 0 && j == 0) || d > worst)
                worst = d;
            if (j != i) {
                d = fabs(outs[(size_t)j * n + i] - f);
                if (d > worst)
                    worst = d;
            }
        }
    }
    return worst;
}

/* For each of the nrows rows, max |outs[points[k]] - ref[k]| over k from
 * start[r] to start[r + 1] - 1, into devs[r], as _pycore._max_abs_diff
 * takes it: the row's first deviation, then any larger one, and inf for
 * an empty row.  The caller checks that every point lies in outs. */
void fixed_scores(int nrows, const int *start, const int *points,
                  const double *ref, const double *outs, double *devs)
{
    for (int r = 0; r < nrows; r++) {
        double worst = INFINITY;
        for (int k = start[r]; k < start[r + 1]; k++) {
            double d = fabs(outs[points[k]] - ref[k]);
            if (k == start[r] || d > worst)
                worst = d;
        }
        devs[r] = worst;
    }
}

/* The t = s / (1 + s) in (0, 1) at which A_s(x, y) = p, by the bisection
 * of _pycore.solve_t, step for step: at most iters steps, each stopping
 * the search once it cannot move the bracket, and the midpoint of the
 * final bracket.  x, y and p must have passed copula._unit, and p must be
 * at least max(x + y - 1, 0), so that the bracket never reaches t = 1;
 * copula.solve_s passes a p strictly between the Frechet bounds. */
double solve_t(double x, double y, double p, int iters)
{
    double lo = 0.0, hi = 1.0, mid;
    for (int k = 0; k < iters; k++) {
        mid = 0.5 * (lo + hi);
        if (frank_raw(mid / (1.0 - mid), x, y) > p) {
            if (mid == lo)
                break;
            lo = mid;
        } else {
            if (mid == hi)
                break;
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

/* The minimum and the flat index of its cell, the maximum, and the
 * strict-minimum and plateau counts of the n x n a-major grid v, as
 * _pycore.grid_stats counts them: the minimum is the first cell in
 * row-major order that no earlier cell beats with <, so NaN cells never
 * count for it or for the maximum; a strict minimum beats every existing
 * 4-neighbour with <, and a plateau cell lies within PLATEAU_TOL of at
 * least one.  lohi gets the minimum and maximum (+inf and -inf when every
 * cell is NaN), counts the index, the strict minima and the plateau
 * cells. */
void grid_stats(int n, const double *v, double *lohi, int *counts)
{
    double lo = INFINITY, hi = -INFINITY;
    int at = 0, strict = 0, plateau = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            int k = i * n + j, below = 1, near = 0;
            double x = v[k];
            if (x < lo) {
                lo = x;
                at = k;
            }
            if (x > hi)
                hi = x;
            if (i > 0) {
                below &= x < v[k - n];
                near |= fabs(x - v[k - n]) <= PLATEAU_TOL;
            }
            if (i < n - 1) {
                below &= x < v[k + n];
                near |= fabs(x - v[k + n]) <= PLATEAU_TOL;
            }
            if (j > 0) {
                below &= x < v[k - 1];
                near |= fabs(x - v[k - 1]) <= PLATEAU_TOL;
            }
            if (j < n - 1) {
                below &= x < v[k + 1];
                near |= fabs(x - v[k + 1]) <= PLATEAU_TOL;
            }
            strict += below;
            plateau += near;
        }
    }
    lohi[0] = lo;
    lohi[1] = hi;
    counts[0] = at;
    counts[1] = strict;
    counts[2] = plateau;
}

/* The longest "%.17g" text: -d.dddddddddddddddde-308. */
#define CELL_MAX 24
/* The bytes fmt17 may write at out: its text, and past it what the
 * fixed-size copies of layout17 spill (42 bytes at most). */
#define FMT17_ROOM 48
/* The bytes grid_csv fills on one call at most, and reuses on the next. */
#define CSV_CHUNK 65536
/* The room a line of a grid's CSV needs in the chunk: a and b, each
 * copied as CELL_MAX bytes, with their commas, then fmt17's room for the
 * value, in which its newline lands. */
#define CSV_LINE_ROOM 98
_Static_assert(CSV_LINE_ROOM == 2 * (CELL_MAX + 1) + FMT17_ROOM,
               "CSV_LINE_ROOM is a line's room");

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL,
};

/* 10^p for 0 <= p <= 22, exact */
static u128 pow10_128(int p)
{
    return p < 20 ? POW10[p] : (u128)POW10[p - 19] * POW10[19];
}

/* The 17 significant digits of the normal double x = m 2^e (m with its
 * implicit bit) and the decimal exponent k of the first, correctly
 * rounded (half to even) as "%.17g" rounds them: D = m 10^p / 2^-e
 * rounded, p = 16 - k, with 10^16 <= D < 10^17, exact in 128-bit
 * integers.  Returns 0, leaving the value to snprintf, when e >= 0 or p
 * falls outside 0..22 (10^22 is the largest power of ten that m 10^p
 * keeps inside 128 bits). */
static int digits17(uint64_t m, int e, uint64_t *d, int *k)
{
    /* floor(log10 2^(e + 52)), k itself or one less */
    int dk = ((e + 52) * 78913) >> 18;
    for (;;) {
        int p = 16 - dk, s = -e;
        u128 num, rem, half;
        uint64_t q;
        if (e >= 0 || p < 0 || p > 22)
            return 0;
        num = (u128)m * pow10_128(p);
        q = (uint64_t)(num >> s);
        rem = num - ((u128)q << s);
        half = (u128)1 << (s - 1);
        /* half to even, with no branch: rounding up is a coin toss that
         * a branch predictor loses half the time */
        q += (rem > half) | ((rem == half) & q);
        if (q < POW10[16]) {
            dk--;
        } else if (q > POW10[17]) {
            dk++;
        } else {
            if (q == POW10[17]) {   /* the rounding carried a decade */
                q = POW10[16];
                dk++;
            }
            *d = q;
            *k = dk;
            return 1;
        }
    }
}

/* "00" to "99", the two digits of each of 0..99 in turn. */
static const char DIGITS2[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The 8 digits of x < 10^8 at out, two at a time: its two halves of 4
 * digits are independent, and so are their pairs. */
static void put8(uint32_t x, char *out)
{
    uint32_t hi = x / 10000, lo = x % 10000;
    memcpy(out, DIGITS2 + 2 * (hi / 100), 2);
    memcpy(out + 2, DIGITS2 + 2 * (hi % 100), 2);
    memcpy(out + 4, DIGITS2 + 2 * (lo / 100), 2);
    memcpy(out + 6, DIGITS2 + 2 * (lo % 100), 2);
}

/* The 17 digits D at decimal exponent k laid out as "%g" lays them out:
 * trailing zeros stripped, fixed notation for -4 <= k < 17, otherwise
 * d.ddde+XX.  D's first digit, then its next 8 and its last 8, each 8
 * by put8, so no digit waits on the division that gives the next.  It
 * may write up to 41 bytes at out, past the end of its text. */
static int layout17(uint64_t d, int k, char *out)
{
    /* "0000", D's 17 digits, then zeros that the fixed-size copies below
     * may read past the digits */
    char z[4 + 17 + 24] = "0000", *dig = z + 4, *o = out;
    uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    int nd = 17, ilen, flen;
    dig[0] = (char)('0' + hi / 100000000);
    put8(hi % 100000000, dig + 1);
    put8(lo, dig + 9);
    while (dig[nd - 1] == '0')
        nd--;
    if (k >= 17 || k < -4) {
        int ak = k < 0 ? -k : k;
        *o++ = dig[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, dig + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        if (ak >= 100)
            *o++ = (char)('0' + ak / 100);
        *o++ = (char)('0' + ak / 10 % 10);
        *o++ = (char)('0' + ak % 10);
        return (int)(o - out);
    }
    /* digits 0..k, or the one '0' before the zeros for k < 0, then the
     * point and the rest, which start at z[5 + k] either way; each part
     * is one copy of fixed length, 17 and 24 bytes (the parts are at most
     * 17 and 20), so no copy's length depends on k or nd */
    ilen = k < 0 ? 1 : k + 1;
    flen = nd - k - 1;
    memcpy(out, k < 0 ? z + 3 : dig, 17);
    if (flen <= 0)
        return ilen;
    out[ilen] = '.';
    memcpy(out + ilen + 1, z + 5 + k, 24);
    return ilen + 1 + flen;
}
#endif

/* x as "%.17g" writes it, at out, which has room for FMT17_ROOM bytes;
 * NaN as "nan", whatever its sign, as Python writes it (glibc writes
 * -nan for a negative one).  Returns the length, without a NUL. */
static int fmt17(double x, char *out)
{
#ifdef __SIZEOF_INT128__
    uint64_t bits, d;
    int biased, k;
    memcpy(&bits, &x, sizeof bits);
    biased = (int)(bits >> 52) & 0x7ff;
    if (biased != 0 && biased != 0x7ff
        && digits17((bits & ((1ULL << 52) - 1)) | (1ULL << 52),
                    biased - 1075, &d, &k)) {
        int sign = (int)(bits >> 63);
        if (sign)
            *out = '-';
        return sign + layout17(d, k, out + sign);
    }
#endif
    if (isnan(x)) {
        memcpy(out, "nan", 3);
        return 3;
    }
    return snprintf(out, CELL_MAX + 1, "%.17g", x);
}

/* The bytes of work space grid_csv needs for an na x nb grid: the
 * chunk, the offset of each axis value's text and the end of the last,
 * then the texts, each at most CELL_MAX bytes, with fmt17's room for the
 * last. */
size_t grid_csv_work(int na, int nb)
{
    size_t n = (size_t)na + nb;
    return CSV_CHUNK + (n + 1) * sizeof(size_t) + n * CELL_MAX + FMT17_ROOM;
}

/* The CSV lines "a,b,value" of the na x nb a-major grid v from cell
 * *cell on, each number as fmt17 writes it, into the first CSV_CHUNK
 * bytes of work (grid_csv_work(na, nb) bytes).  The call at cell 0 first
 * writes the text of every axis value, a's then b's, past the chunk,
 * where the later calls of the same grid read them: each axis value and
 * each cell is formatted once.  A call stops after the last cell, or
 * when the chunk has less than CSV_LINE_ROOM bytes left; it moves *cell
 * past the cells it wrote and returns the length of the chunk's text, 0
 * once *cell is na nb.  An axis text is copied as CELL_MAX bytes, whatever
 * its length: a text starts at most CELL_MAX bytes after the one before,
 * so the copy stays in work, and the line's room holds it. */
int grid_csv(const double *a, int na, const double *b, int nb,
             const double *v, char *work, long long *cell)
{
    size_t *off = (size_t *)(work + CSV_CHUNK);
    char *text = (char *)(off + (size_t)na + nb + 1), *o = work;
    const char *last = work + CSV_CHUNK - CSV_LINE_ROOM;
    long long k = *cell, cells = (long long)na * nb;
    int i, j;

    if (k >= cells)
        return 0;
    if (k == 0) {
        off[0] = 0;
        for (size_t m = 0; m < (size_t)na + nb; m++)
            off[m + 1] = off[m] + fmt17(m < (size_t)na ? a[m] : b[m - na],
                                        text + off[m]);
    }
    i = (int)(k / nb);
    j = (int)(k % nb);
    for (; k < cells && o <= last; k++) {
        size_t la = off[i + 1] - off[i], lb = off[na + j + 1] - off[na + j];
        memcpy(o, text + off[i], CELL_MAX);
        o += la;
        *o++ = ',';
        memcpy(o, text + off[na + j], CELL_MAX);
        o += lb;
        *o++ = ',';
        o += fmt17(v[k], o);
        *o++ = '\n';
        if (++j == nb) {
            j = 0;
            i++;
        }
    }
    *cell = k;
    return (int)(o - work);
}
