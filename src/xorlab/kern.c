/* Compiled training and projection kernels, bound through ctypes by
 * xorlab._cbackend: train_run and project_grid.  The SSE at a network's
 * own weights is the one cell of project_grid that leaves them as they
 * are, so it has no kernel of its own.
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
 * run gives.  The reference runs every epoch; the exit only saves time.
 *
 * project_grid here keeps the plain loop of the reference, a full
 * forward pass per cell; the Python backend's generated project_grid
 * hoists the units the varied weights cannot reach out of the loops,
 * which changes how often each float is computed, not its value.
 *
 * The caller checks shapes and passes buffers of the right lengths.
 * Functions that allocate return -1 when an allocation fails, 0 otherwise;
 * train_run returns its status code 0..3 instead of 0.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define INV53 (1.0 / 9007199254740992.0)  /* 2 ** -53 */
#define SSE_BLOWUP 1e6
#define REST_EVERY 256  /* epochs between checks for weights at rest */

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

/* A network's shape plus its per-unit scratch buffers. */
typedef struct {
    int nlayers;
    const int *sizes, *acts;
    int *offs, *uoffs;     /* weight-block and unit offset of each layer */
    double *pre, *post, *delta;
} Net;

static int net_init(Net *n, int nlayers, const int *sizes, const int *acts)
{
    int units;
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
    units = n->uoffs[nlayers];
    /* zeroed: backward writes only the first output unit's delta, and
     * the updates read the others as 0.0 */
    n->pre = calloc(3 * (size_t)units, sizeof(double));
    if (n->pre == NULL) {
        free(n->offs);
        return -1;
    }
    n->post = n->pre + units;
    n->delta = n->post + units;
    return 0;
}

static void net_free(Net *n)
{
    free(n->offs);
    free(n->pre);
}

/* Fills pre/post; returns the scalar output.  Accumulation order is
 * pinned: ascending input index, bias last. */
static double forward(const Net *n, const double *w, const double *x)
{
    const double *a = x;
    for (int l = 0; l < n->nlayers; l++) {
        int n_prev = n->sizes[l], width = n->sizes[l + 1], code = n->acts[l];
        const double *block = w + n->offs[l];
        double *zs = n->pre + n->uoffs[l], *avs = n->post + n->uoffs[l];
        for (int i = 0; i < width; i++) {
            const double *row = block + i * (n_prev + 1);
            double z = 0.0;
            for (int j = 0; j < n_prev; j++)
                z += row[j] * a[j];
            z += row[n_prev];
            zs[i] = z;
            avs[i] = act(code, z);
        }
        a = avs;
    }
    return a[0];
}

static double sse(const Net *n, const double *w, const double *xs,
                  const double *ts, int n_samples)
{
    int n_in = n->sizes[0];
    double total = 0.0;
    for (int k = 0; k < n_samples; k++) {
        double d = forward(n, w, xs + (size_t)k * n_in) - ts[k];
        total += d * d;
    }
    return total;
}

/* Deltas dE/dz for every unit, E = (out - target)^2 / 2. */
static void backward(const Net *n, const double *w, double target)
{
    int last = n->nlayers - 1, top = n->uoffs[last];
    n->delta[top] = (n->post[top] - target)
                    * slope(n->acts[last], n->pre[top], n->post[top]);
    for (int l = last - 1; l >= 0; l--) {
        int base = n->offs[l + 1], width = n->sizes[l + 1];
        int n_next = n->sizes[l + 2], code = n->acts[l];
        const double *above = n->delta + n->uoffs[l + 1];
        for (int j = 0; j < width; j++) {
            int u = n->uoffs[l] + j;
            double acc = 0.0;
            for (int i = 0; i < n_next; i++)
                acc += above[i] * w[base + i * (width + 1) + j];
            n->delta[u] = acc * slope(code, n->pre[u], n->post[u]);
        }
    }
}

/* The partial of each weight, in flat order, for the sample x whose
 * forward and backward pass n holds: the values train_run's update loop
 * computes inline (through this helper it ran about 6% slower on relu
 * runs). */
static void partials(const Net *n, const double *x, double *p)
{
    for (int l = 0; l < n->nlayers; l++) {
        const double *below = l > 0 ? n->post + n->uoffs[l - 1] : x;
        int n_prev = n->sizes[l];
        for (int i = 0; i < n->sizes[l + 1]; i++) {
            double *row = p + n->offs[l] + i * (n_prev + 1);
            double di = n->delta[n->uoffs[l] + i];
            for (int j = 0; j < n_prev; j++)
                row[j] = di * below[j];
            row[n_prev] = di;
        }
    }
}

/* w - step is not w bit for bit, the sign of zero included. */
static int moves(double w, double step)
{
    double next = w - step;
    return next != w || !signbit(next) != !signbit(w);
}

/* Whether an epoch would leave w bit for bit as it is: per sample, each
 * sample's own update at w must; full batch, the update summed over the
 * samples in order must.  p and gsum are scratch of n_weights each. */
static int at_rest(const Net *n, const double *w, const double *xs,
                   const double *ts, int n_samples, double lr,
                   int per_sample, double *p, double *gsum)
{
    int n_weights = n->offs[n->nlayers];
    for (int k = 0; k < n_weights; k++)
        gsum[k] = 0.0;
    for (int s = 0; s < n_samples; s++) {
        const double *x = xs + (size_t)s * n->sizes[0];
        forward(n, w, x);
        backward(n, w, ts[s]);
        partials(n, x, p);
        for (int k = 0; k < n_weights; k++) {
            if (per_sample && moves(w[k], lr * p[k]))
                return 0;
            gsum[k] += p[k];
        }
    }
    for (int k = 0; k < n_weights && !per_sample; k++)
        if (moves(w[k], lr * gsum[k]))
            return 0;
    return 1;
}

/* Gradient-descent run from the seed's initial weights, written to w.
 * *traj is a malloc'd buffer of the per-iteration SSE (NULL when record
 * is 0 or no iteration ran); the caller releases it with kern_free.
 * After the status checks of epoch 1 and of every REST_EVERY-th epoch,
 * a run whose weights are at rest stops: every later epoch would end
 * with the same weights and SSE, so the SSE fills the rest of *traj. */
int train_run(int nlayers, const int *sizes, const int *acts,
              const double *xs, const double *ts, int n_samples,
              double lr, int max_iters, double tol, int per_sample,
              uint64_t seed, double init_range, int record,
              double *w, int *iters_out, double *sse_out, double **traj)
{
    Net n;
    int n_weights, status = 1, iters = max_iters;
    size_t cap = 0;                    /* trajectory slots allocated */
    double err = INFINITY, *gsum = NULL, *p, *grown;
    int *order = NULL;

    *traj = NULL;
    if (net_init(&n, nlayers, sizes, acts) < 0)
        return -1;
    n_weights = n.offs[nlayers];
    gsum = malloc(2 * (size_t)n_weights * sizeof(double));
    p = gsum + n_weights;
    order = malloc((size_t)n_samples * sizeof(int));
    if ((gsum == NULL && n_weights > 0) || (order == NULL && n_samples > 0))
        goto nomem;
    for (int k = 0; k < n_weights; k++)
        w[k] = (2.0 * sm_unit(&seed) - 1.0) * init_range;
    for (int k = 0; k < n_samples; k++)
        order[k] = k;

    for (int it = 0; it < max_iters; it++) {   /* iteration it + 1 */
        if (per_sample) {
            for (int i = n_samples - 1; i > 0; i--) {
                int j = (int)(sm_next(&seed) % (uint64_t)(i + 1));
                int k = order[i];
                order[i] = order[j];
                order[j] = k;
            }
        } else {
            for (int k = 0; k < n_weights; k++)
                gsum[k] = 0.0;
        }
        for (int s = 0; s < n_samples; s++) {
            int k = per_sample ? order[s] : s;
            const double *x = xs + (size_t)k * sizes[0];
            forward(&n, w, x);
            backward(&n, w, ts[k]);
            for (int l = 0; l < nlayers; l++) {
                const double *below = l > 0 ? n.post + n.uoffs[l - 1] : x;
                int n_prev = sizes[l];
                for (int i = 0; i < sizes[l + 1]; i++) {
                    int row = n.offs[l] + i * (n_prev + 1);
                    double di = n.delta[n.uoffs[l] + i];
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
        if ((it == 0 || (it + 1) % REST_EVERY == 0)
            && at_rest(&n, w, xs, ts, n_samples, lr, per_sample, p, gsum)) {
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
 * is overwritten there; out is row-major, a-major. */
int project_grid(int nlayers, const int *sizes, const int *acts, double *w,
                 const double *xs, const double *ts, int n_samples,
                 int ia, int ib, const double *avals, int na,
                 const double *bvals, int nb, double *out)
{
    Net n;
    if (net_init(&n, nlayers, sizes, acts) < 0)
        return -1;
    for (int i = 0; i < na; i++) {
        w[ia] = avals[i];
        for (int j = 0; j < nb; j++) {
            w[ib] = bvals[j];
            out[(size_t)i * nb + j] = sse(&n, w, xs, ts, n_samples);
        }
    }
    net_free(&n);
    return 0;
}
