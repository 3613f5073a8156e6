/* The event loop of `engine.simulate` and the few-block sampler of
 * `experiments.few_block_torus_sample`, loaded through ctypes.
 *
 * The event loop seeds MT19937 as CPython's `random.seed(int)` does and
 * replays the draws of `random.Random`, so a run is bit for bit the run
 * the Python loop in tests/engine_oracle.py makes from the same seed:
 *   - random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 of two words;
 *   - getrandbits(k), 1 <= k <= 32, is one word >> (32 - k);
 *   - an index below n takes bit_length(n) bits until they fall below n
 *     (`_randbelow_with_getrandbits`);
 *   - a k-subset is CPython 3.11's `Random.sample`, pool or set branch.
 * The holding time calls log() from libm, as math.log does, and the file
 * must be compiled without floating-point contraction (-ffp-contract=off)
 * and without -ffast-math: every sum and product rounds as Python's does.
 * The draw order is the one in the `simulate` docstring.
 *
 * State mirrors the Python loop: block arrays indexed by block id, a roster
 * of block ids per site (append, and removal by moving the last entry into
 * the gap), the alive list, and the count classes (sites holding c >= 2
 * blocks) with one weight lambda_c |S_c| per occupied class.
 *
 * The loop asks the caller through one callback, with the request in the
 * output struct: lambda_b past the table it was given, the merge-size row
 * of b (kept in the caller's `rows` for the rest of the run), or, every
 * 2^16 steps, nothing, so that the caller can run pending signal handlers.
 * A nonzero answer stops the loop.
 *
 * The few-block sampler (`sc_few_block`) is one loop on its own PCG64,
 * seeded from the public state of numpy's PCG64 (`PCG64.state`: state, inc
 * and the buffered 32-bit half) and wrapped in a `bitgen_t` whose draws are
 * numpy's: a 64-bit word is the XSL RR output of the stepped 128-bit LCG, a
 * double its top 53 bits, a 32-bit draw the low half of a word whose high
 * half is kept for the next one.  It makes the draws the numpy sampler in
 * tests/torus_oracle.py makes, in its order, so its merge logs are that
 * sampler's to the bit: uniforms by next_double, and holding times, merge
 * subsets (Generator.choice) and Gamma times by numpy's own functions in
 * numpy/random/lib/libnpyrandom.a, which the library links.  Their
 * prototypes are declared here, as distributions.h includes Python.h.  A
 * chunk of free migration computes its uniforms inline, on two chains that
 * jump ahead in the LCG (Brown 1994), and skips the cells past each
 * replica's first co-location instead of drawing them: it leaves the
 * generator where drawing every cell would have.
 */

#ifndef __SIZEOF_INT128__
#error "the few-block sampler's PCG64 needs a compiler with unsigned __int128"
#endif

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <numpy/random/bitgen.h>

/* from numpy's numpy/random/distributions.h */
double random_standard_exponential(bitgen_t *bitgen_state);
double random_standard_gamma(bitgen_t *bitgen_state, double shape);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off,
                               uint64_t rng, uint64_t mask, bool use_masked);

#define MT_N 624
#define MT_M 397

enum { STOP_NONE, STOP_HORIZON, STOP_BLOCKS_AT_MOST, STOP_ABSORBED, STOP_BUDGET };
enum { OK, DEADLOCK, NO_MEMORY, CALLBACK_FAILED };
enum { EV_MERGE, EV_MIGRATE, EV_KILL };
enum { ASK_POLL, ASK_LAMBDA, ASK_ROW };
#define POLL_MASK 0xffff
#define MERGED (-1)
#define CEMETERY (-2)

typedef int (*call_fn)(void);

typedef struct {
    const uint32_t *key;         /* the seed's 32-bit words, low first */
    int64_t key_len;
    int64_t n_blocks, n_sites;
    const int32_t *site_of;      /* start site of each block */
    const int64_t *size_of;      /* start size of each block */
    const int64_t *counts;       /* start block count of each site */
    const int32_t *roster_ids;   /* block ids of each site in turn, in id order */
    const double *move_rates;    /* probability of leaving each site */
    const int64_t *move_start;   /* n_sites + 1 offsets into move_cum/dest */
    const double *move_cum;      /* cumulative move law per site, last 1.0 */
    const int32_t *move_dest;
    const double *lam;           /* lambda_b of the kernel, b < lam_avail */
    int64_t lam_avail;
    const double **rows;         /* merge-size rows by b, NULL until fetched */
    int64_t binary;              /* every merge is a pair */
    call_fn call;                /* answers the request in sc_output */
    int64_t killing, log_merges, log_moves;
    double horizon;              /* INFINITY for none */
    int64_t budget;              /* 0: none */
    int64_t floor, threshold;    /* -1: none */
    const double *probes;        /* sorted */
    int64_t n_probes;
} sc_input;

typedef struct {
    double t;
    int64_t status, stop, budget_exhausted;
    int64_t n_alive, n_events, n_merges, n_kills, n_rejected;
    int64_t max_seen, lam_len, n_probed;
    int64_t *probe_counts;       /* caller's, n_probes */
    int64_t *final_site;         /* caller's, n_blocks: MERGED, CEMETERY or a site */
    int64_t *final_size;         /* caller's, n_blocks */
    int64_t *final_counts;       /* caller's, n_sites */
    /* the event log, owned here until sc_free: a time per event and, per
     * event, MERGE s k ids... (ids ascending) | MIGRATE bid s dest | KILL bid */
    double *ev_time;
    int64_t *ev_data;
    int64_t n_ev, ev_len, ev_cap, ev_data_cap;
    /* a request to the caller (ASK_*, for b) and its answer: the address
     * and length of lambda_b's table, or the address of a row */
    int64_t ask, ask_b;
    const double *answer;
    int64_t answer_len;
} sc_output;

/* ---- CPython's Mersenne Twister --------------------------------------- */

typedef struct { uint32_t mt[MT_N]; int64_t index; } mt_state;

/* CPython's random.seed(n) for an int n >= 0 whose 32-bit words, low
 * first, are key[0:len]: init_by_array over the words up to the highest
 * nonzero one, and at least one */
static void seed_by_array(mt_state *r, const uint32_t *key, int64_t len)
{
    uint32_t *mt = r->mt;
    int64_t i = 1, j = 0, k;
    while (len > 1 && key[len - 1] == 0)
        len--;
    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (k = MT_N > len ? MT_N : len; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= len)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    r->index = MT_N;
}

static uint32_t genrand(mt_state *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = r->mt, y;
    if (r->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double random_double(mt_state *r)
{
    uint32_t a = genrand(r) >> 5, b = genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int bit_length(int64_t n)
{
    return n ? 64 - __builtin_clzll((uint64_t)n) : 0;
}

/* a uniform index below n, 1 <= n < 2^31 */
static int64_t randbelow(mt_state *r, int64_t n)
{
    int shift = 32 - bit_length(n);
    int64_t x = genrand(r) >> shift;
    while (x >= n)
        x = genrand(r) >> shift;
    return x;
}

/* Python's bisect_right over a[0:n] */
static int64_t bisect_right(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* ---- growable int lists ----------------------------------------------- */

typedef struct { int32_t *v; int64_t n, cap; } list;

static int push(list *a, int32_t x)
{
    if (a->n == a->cap) {
        int64_t cap = a->cap ? 2 * a->cap : 4;
        int32_t *v = realloc(a->v, cap * sizeof *v);
        if (!v)
            return -1;
        a->v = v;
        a->cap = cap;
    }
    a->v[a->n++] = x;
    return 0;
}

/* remove x, at index pos[x] of a, by moving the last entry into its place */
static void drop(list *a, int32_t x, int64_t *pos)
{
    int32_t last = a->v[--a->n];
    if (last != x) {
        int64_t p = pos[x];
        a->v[p] = last;
        pos[last] = p;
    }
}

static int log_event(sc_output *o, double t, const int64_t *data, int64_t n)
{
    if (o->n_ev == o->ev_cap) {
        int64_t cap = o->ev_cap ? 2 * o->ev_cap : 256;
        double *v = realloc(o->ev_time, cap * sizeof *v);
        if (!v)
            return -1;
        o->ev_time = v;
        o->ev_cap = cap;
    }
    if (o->ev_len + n > o->ev_data_cap) {
        int64_t cap = o->ev_data_cap ? 2 * o->ev_data_cap : 1024;
        while (cap < o->ev_len + n)
            cap *= 2;
        int64_t *v = realloc(o->ev_data, cap * sizeof *v);
        if (!v)
            return -1;
        o->ev_data = v;
        o->ev_data_cap = cap;
    }
    o->ev_time[o->n_ev++] = t;
    memcpy(o->ev_data + o->ev_len, data, n * sizeof *data);
    o->ev_len += n;
    return 0;
}

/* ask the caller; nonzero: stop */
static int ask(const sc_input *in, sc_output *o, int64_t what, int64_t b)
{
    o->ask = what;
    o->ask_b = b;
    return in->call();
}

/* a lambda_b table that holds b */
static int grow_lambda(const sc_input *in, sc_output *o, int64_t b,
                       const double **lam, int64_t *avail)
{
    if (ask(in, o, ASK_LAMBDA, b))
        return -1;
    *lam = o->answer;
    *avail = o->answer_len;
    return 0;
}

void sc_free(sc_output *o)
{
    free(o->ev_time);
    free(o->ev_data);
    o->ev_time = NULL;
    o->ev_data = NULL;
}

/* ---- the loop ---------------------------------------------------------- */

typedef struct {
    list *sites_with;            /* by count c: the sites holding c blocks */
    int64_t *occupied, *occ_pos; /* occupied classes; index of each in it */
    double *occ_weight;          /* lambda_c |S_c| per occupied class */
    int64_t *pos_in_class;       /* by site */
    int64_t n_occ;
    const double *lam;
} classes;

/* site s leaves class b (b >= 2) */
static void class_leave(classes *k, int64_t b, int32_t s)
{
    list *members = &k->sites_with[b];
    drop(members, s, k->pos_in_class);
    int64_t i = k->occ_pos[b];
    if (members->n) {
        k->occ_weight[i] = k->lam[b] * (double)members->n;
    } else {
        int64_t last_c = k->occupied[--k->n_occ];
        double last_w = k->occ_weight[k->n_occ];
        if (last_c != b) {
            k->occupied[i] = last_c;
            k->occ_weight[i] = last_w;
            k->occ_pos[last_c] = i;
        }
    }
}

/* site s joins class c (c >= 2) */
static int class_join(classes *k, int64_t c, int32_t s)
{
    list *members = &k->sites_with[c];
    k->pos_in_class[s] = members->n;
    if (push(members, s))
        return -1;
    if (members->n == 1) {
        k->occ_pos[c] = k->n_occ;
        k->occupied[k->n_occ] = c;
        k->occ_weight[k->n_occ++] = k->lam[c];
    } else {
        k->occ_weight[k->occ_pos[c]] = k->lam[c] * (double)members->n;
    }
    return 0;
}

static int64_t block_stop(const sc_input *in, int64_t n_alive)
{
    if (n_alive > in->floor)
        return STOP_NONE;
    if (in->threshold >= 0 && n_alive <= in->threshold)
        return STOP_BLOCKS_AT_MOST;
    return STOP_ABSORBED;
}

int64_t sc_simulate(const sc_input *in, sc_output *out)
{
    const int64_t n0 = in->n_blocks, n_sites = in->n_sites;
    mt_state rng;
    int64_t *site_of = out->final_site;
    int64_t *size_of = out->final_size;
    int64_t *counts = out->final_counts;
    list *rosters = calloc(n_sites, sizeof *rosters);
    int64_t *pos_in_roster = malloc((n0 + 1) * sizeof *pos_in_roster);
    list alive = {malloc((n0 + 1) * sizeof *alive.v), 0, n0 + 1};
    int64_t *alive_pos = malloc((n0 + 1) * sizeof *alive_pos);
    classes k = {0};
    k.sites_with = calloc(n0 + 2, sizeof *k.sites_with);
    k.occupied = malloc((n0 + 2) * sizeof *k.occupied);
    k.occ_pos = calloc(n0 + 2, sizeof *k.occ_pos);
    k.occ_weight = malloc((n0 + 2) * sizeof *k.occ_weight);
    k.pos_in_class = calloc(n_sites, sizeof *k.pos_in_class);
    k.lam = in->lam;
    /* a merge's chosen ids, sample's pool and set (multiple mergers
     * only), and the log record of one event */
    int32_t *chosen = malloc((n0 + 1) * sizeof *chosen);
    int32_t *pool = in->binary ? NULL : malloc((n0 + 1) * sizeof *pool);
    char *selected = in->binary ? NULL : calloc(n0 + 1, 1);
    int64_t *record = malloc((n0 + 4) * sizeof *record);

    int64_t status = OK, stop = STOP_NONE;
    double t = 0.0;
    int64_t n_events = 0, n_merges = 0, n_kills = 0, n_rejected = 0;
    int64_t probe_idx = 0, max_seen = 0, n_mobile = 0;
    int64_t lam_len = 3, lam_avail = in->lam_avail;
    double max_move = 0.0, min_move = INFINITY;

    if (!rosters || !pos_in_roster || !alive.v || !alive_pos || !k.sites_with
        || !k.occupied || !k.occ_pos || !k.occ_weight || !k.pos_in_class
        || !chosen || !record || (!in->binary && (!pool || !selected)))
        goto no_memory;
    seed_by_array(&rng, in->key, in->key_len);

    /* ---- the start state, copied from the layout ---- */
    memcpy(size_of, in->size_of, n0 * sizeof *size_of);
    for (int64_t s = 0, lo = 0, hi; s < n_sites; s++, lo = hi) {
        hi = lo + in->counts[s];
        list *r = &rosters[s];
        r->cap = hi - lo > 4 ? hi - lo : 4;
        r->v = malloc(r->cap * sizeof *r->v);
        if (!r->v)
            goto no_memory;
        for (int64_t j = lo; j < hi; j++) {
            pos_in_roster[in->roster_ids[j]] = j - lo;
            r->v[r->n++] = in->roster_ids[j];
        }
        counts[s] = hi - lo;
        if (counts[s] > max_seen)
            max_seen = counts[s];
        if (in->move_rates[s] > max_move)
            max_move = in->move_rates[s];
        if (in->move_rates[s] < min_move)
            min_move = in->move_rates[s];
    }
    for (int64_t i = 0; i < n0; i++) {
        site_of[i] = in->site_of[i];
        alive.v[alive.n++] = (int32_t)i;
        alive_pos[i] = i;
    }
    const int uniform_moves = min_move == max_move;
    /* alive blocks at sites they can leave: with non-uniform move rates the
     * proposal rate max_move * n_alive is only real while one is left */
    if (!uniform_moves)
        for (int64_t i = 0; i < n0; i++)
            n_mobile += in->move_rates[site_of[i]] > 0.0;
    /* lambda_b is read for b < lam_len, the length of the Python loop's
     * table; the kernel's own table is grown whenever lam_len passes it */
    if (max_seen > 2)
        lam_len = max_seen + 1;
    if (lam_len > lam_avail
        && grow_lambda(in, out, lam_len - 1, &k.lam, &lam_avail))
        goto callback_failed;
    for (int64_t s = 0; s < n_sites; s++)
        if (counts[s] >= 2 && class_join(&k, counts[s], (int32_t)s))
            goto no_memory;

    double coal_tot = 0.0, total = 0.0, kill_from = INFINITY;
    int only_coal = 0, alive_shift = 32;
    stop = block_stop(in, alive.n);
    /* the totals change only with a count class, the alive count or the
     * mobile count; an event that changes one of them marks them stale */
    int stale = 1;
    uint32_t steps = 0;
    while (!stop) {
        if (!(++steps & POLL_MASK) && ask(in, out, ASK_POLL, 0))
            goto callback_failed;
        if (stale) {
            stale = 0;
            coal_tot = 0.0;  /* summed left to right, as the reference loop adds */
            for (int64_t i = 0; i < k.n_occ; i++)
                coal_tot += k.occ_weight[i];
            double mig_tot = uniform_moves || n_mobile
                             ? max_move * (double)alive.n : 0.0;
            total = coal_tot + mig_tot;
            if (in->killing)
                total += (double)alive.n;
            if (total == 0.0) {
                if (isinf(in->horizon)) {
                    status = DEADLOCK;
                    break;
                }
                t = in->horizon;
                stop = STOP_HORIZON;
                break;
            }
            only_coal = mig_tot == 0.0 && !in->killing;
            kill_from = in->killing ? coal_tot + mig_tot : INFINITY;
            alive_shift = 32 - bit_length(alive.n);
        }
        double t_next = t - log(1.0 - random_double(&rng)) / total;
        if (t_next > in->horizon) {
            t = in->horizon;
            stop = STOP_HORIZON;
            break;
        }
        while (probe_idx < in->n_probes && in->probes[probe_idx] <= t_next)
            out->probe_counts[probe_idx++] = alive.n;
        t = t_next;
        double u = random_double(&rng) * total;

        int64_t b, c;
        int32_t s, dest = -1;
        if (u < coal_tot || only_coal) {
            /* ---- coalescence: class b with weight lambda_b |S_b| ---- */
            double acc = 0.0;
            int64_t i;
            for (i = 0; i < k.n_occ - 1; i++) {
                acc += k.occ_weight[i];
                if (u < acc)
                    break;
            }
            /* (a u rounded onto the total falls through to the last class) */
            b = k.occupied[i];
            list *members = &k.sites_with[b];
            s = members->v[randbelow(&rng, members->n)];
            list *roster = &rosters[s];
            int64_t mk = 2;
            if (b > 2) {
                /* the uniform is drawn even when the law is a point mass, so
                 * a Kingman run keeps the stream of the law-based draw */
                double u_k = random_double(&rng);
                if (!in->binary) {
                    const double *row = in->rows[b];
                    if (!row) {
                        if (ask(in, out, ASK_ROW, b))
                            goto callback_failed;
                        row = in->rows[b] = out->answer;
                    }
                    mk = 2 + bisect_right(row, b - 1, u_k);
                    if (mk > b)
                        mk = b;
                }
            }
            if (mk == 2) {
                /* a pair: two distinct uniform indices, none drawn when b == 2 */
                int64_t x = 0, y = 1;
                if (b > 2) {
                    x = randbelow(&rng, b);
                    y = randbelow(&rng, b - 1);
                    if (y >= x)
                        y++;
                }
                chosen[0] = roster->v[x];
                chosen[1] = roster->v[y];
            } else if (mk == b) {
                memcpy(chosen, roster->v, b * sizeof *chosen);
            } else {
                /* Random.sample(roster, mk) of CPython 3.11 */
                int64_t setsize = 21;
                if (mk > 5)
                    setsize += (int64_t)1 << (2 * (int64_t)ceil(
                        log((double)(mk * 3)) / log(4.0)));
                if (b <= setsize) {
                    memcpy(pool, roster->v, b * sizeof *pool);
                    for (int64_t j = 0; j < mk; j++) {
                        int64_t r = randbelow(&rng, b - j);
                        chosen[j] = pool[r];
                        pool[r] = pool[b - j - 1];
                    }
                } else {
                    /* the set of drawn indices, kept in pool and emptied
                     * after the draw */
                    for (int64_t j = 0; j < mk; j++) {
                        int64_t r = randbelow(&rng, b);
                        while (selected[r])
                            r = randbelow(&rng, b);
                        selected[r] = 1;
                        pool[j] = (int32_t)r;
                        chosen[j] = roster->v[r];
                    }
                    for (int64_t j = 0; j < mk; j++)
                        selected[pool[j]] = 0;
                }
            }
            /* the survivor is the least id; the others leave in drawn order */
            int32_t survivor = chosen[0];
            for (int64_t j = 1; j < mk; j++)
                if (chosen[j] < survivor)
                    survivor = chosen[j];
            for (int64_t j = 0; j < mk; j++) {
                int32_t bid = chosen[j];
                if (bid == survivor)
                    continue;
                size_of[survivor] += size_of[bid];
                drop(roster, bid, pos_in_roster);
                drop(&alive, bid, alive_pos);
                site_of[bid] = MERGED;
            }
            if (in->log_merges) {
                /* MERGE s k, then the chosen ids in ascending order */
                record[0] = EV_MERGE;
                record[1] = s;
                record[2] = mk;
                for (int64_t j = 0; j < mk; j++) {
                    int64_t x = chosen[j], p = 3 + j;
                    for (; p > 3 && record[p - 1] > x; p--)
                        record[p] = record[p - 1];
                    record[p] = x;
                }
                if (log_event(out, t, record, mk + 3))
                    goto no_memory;
            }
            if (!uniform_moves)
                n_mobile -= (mk - 1) * (in->move_rates[s] > 0.0);
            stale = 1;
            n_merges++;
            if (alive.n <= in->floor)
                stop = block_stop(in, alive.n);
            c = b - (mk - 1);
        } else {
            /* ---- killing or a migration proposal: a uniform alive block ---- */
            int64_t r = genrand(&rng) >> alive_shift;
            while (r >= alive.n)
                r = genrand(&rng) >> alive_shift;
            int32_t bid = alive.v[r];
            s = (int32_t)site_of[bid];
            if (u < kill_from) {
                if (!uniform_moves
                    && in->move_rates[s] <= max_move * random_double(&rng)) {
                    n_rejected++;
                    continue;
                }
                const int64_t lo = in->move_start[s];
                dest = in->move_dest[lo + bisect_right(
                    in->move_cum + lo, in->move_start[s + 1] - lo,
                    random_double(&rng))];
            }
            drop(&rosters[s], bid, pos_in_roster);
            if (dest < 0) {
                drop(&alive, bid, alive_pos);
                site_of[bid] = CEMETERY;
                if (!uniform_moves)
                    n_mobile -= in->move_rates[s] > 0.0;
                stale = 1;
                n_kills++;
                if (in->log_moves) {
                    record[0] = EV_KILL;
                    record[1] = bid;
                    if (log_event(out, t, record, 2))
                        goto no_memory;
                }
                if (alive.n <= in->floor)
                    stop = block_stop(in, alive.n);
            } else {
                site_of[bid] = dest;
                pos_in_roster[bid] = rosters[dest].n;
                if (push(&rosters[dest], bid))
                    goto no_memory;
                if (in->log_moves) {
                    record[0] = EV_MIGRATE;
                    record[1] = bid;
                    record[2] = s;
                    record[3] = dest;
                    if (log_event(out, t, record, 4))
                        goto no_memory;
                }
            }
            b = counts[s];
            c = b - 1;
        }

        /* ---- site s went from b to c blocks; dest, if any, gains one ---- */
        counts[s] = c;
        if (b >= 2) {
            class_leave(&k, b, s);
            if (c >= 2 && class_join(&k, c, s))
                goto no_memory;
            stale = 1;
        }
        if (dest >= 0) {
            b = counts[dest];
            counts[dest] = b + 1;
            if (b) {
                if (b == max_seen) {
                    max_seen++;
                    if (max_seen == lam_len) {
                        if (max_seen >= lam_avail
                            && grow_lambda(in, out, max_seen, &k.lam,
                                           &lam_avail))
                            goto callback_failed;
                        lam_len++;
                    }
                }
                if (b >= 2)
                    class_leave(&k, b, dest);
                if (class_join(&k, b + 1, dest))
                    goto no_memory;
                stale = 1;
            }
            if (!uniform_moves) {
                n_mobile += (in->move_rates[dest] > 0.0)
                            - (in->move_rates[s] > 0.0);
                stale = 1;
            }
        }

        n_events++;
        if (n_events == in->budget && !stop) {
            stop = STOP_BUDGET;
            out->budget_exhausted = 1;
        }
    }
    if (status == OK)
        while (probe_idx < in->n_probes && in->probes[probe_idx] <= t)
            out->probe_counts[probe_idx++] = alive.n;
    goto done;

no_memory:
    status = NO_MEMORY;
    goto done;
callback_failed:
    status = CALLBACK_FAILED;
done:
    out->status = status;
    out->stop = stop;
    out->t = t;
    out->n_alive = alive.n;
    out->n_events = n_events;
    out->n_merges = n_merges;
    out->n_kills = n_kills;
    out->n_rejected = n_rejected;
    out->max_seen = max_seen;
    out->lam_len = lam_len;
    out->n_probed = probe_idx;
    if (rosters)
        for (int64_t s = 0; s < n_sites; s++)
            free(rosters[s].v);
    if (k.sites_with)
        for (int64_t c = 0; c < n0 + 2; c++)
            free(k.sites_with[c].v);
    free(rosters);
    free(pos_in_roster);
    free(alive.v);
    free(alive_pos);
    free(k.sites_with);
    free(k.occupied);
    free(k.occ_pos);
    free(k.occ_weight);
    free(k.pos_in_class);
    free(chosen);
    free(pool);
    free(selected);
    free(record);
    return status;
}

/* ---- numpy's PCG64 ----------------------------------------------------- */

typedef unsigned __int128 u128;

/* PCG64's state, as numpy's `PCG64.state` holds it: the LCG's state and
 * increment, low word first, and the buffered high half of a word */
typedef struct {
    uint64_t state[2], inc[2];
    uint64_t has_uint32, uinteger;
} pcg64;

/* the LCG's multiplier, PCG's default for 128 bits */
#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* s -> mult s + plus, mod 2^128: the LCG stepped some number of times */
typedef struct { u128 mult, plus; } lcg_jump;

static u128 words_u128(const uint64_t *w)
{
    return (u128)w[1] << 64 | w[0];
}

static void set_words(uint64_t *w, u128 x)
{
    w[0] = (uint64_t)x;
    w[1] = (uint64_t)(x >> 64);
}

/* the output of state s: XSL RR, the xor of its halves rotated right by
 * its top 6 bits */
static inline uint64_t pcg_output(u128 s)
{
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (v >> rot) | (v << (-rot & 63));
}

static inline double word_double(uint64_t x)
{
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* `delta` steps of the LCG of increment inc, by squaring (Brown 1994) */
static lcg_jump jump_of(u128 inc, uint64_t delta)
{
    lcg_jump acc = {1, 0};
    u128 mult = PCG_MULT, plus = inc;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            acc.mult *= mult;
            acc.plus = acc.plus * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    return acc;
}

static uint64_t pcg64_next64(void *st)
{
    pcg64 *g = st;
    u128 s = words_u128(g->state) * PCG_MULT + words_u128(g->inc);
    set_words(g->state, s);
    return pcg_output(s);
}

static uint32_t pcg64_next32(void *st)
{
    pcg64 *g = st;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    uint64_t x = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = x >> 32;
    return (uint32_t)x;
}

static double pcg64_next_double(void *st)
{
    return word_double(pcg64_next64(st));
}

/* Advance `g` by `delta` words, keeping its buffered half, as `delta`
 * draws of next_double do, and point `bg`, unless NULL, at it.  The
 * sampler's generator, exported so that tests can pin it to numpy's. */
void sc_pcg64(pcg64 *g, uint64_t delta, bitgen_t *bg)
{
    lcg_jump j = jump_of(words_u128(g->inc), delta);
    set_words(g->state, j.mult * words_u128(g->state) + j.plus);
    if (bg)
        *bg = (bitgen_t){g, pcg64_next64, pcg64_next32, pcg64_next_double,
                         pcg64_next64};
}

/* ---- the few-block sampler ------------------------------------------- */

/* Free migration advances a pass's apart replicas by chunks of K steps: K
 * is CHUNK_STEPS (or max_steps, if less) while a pass has at least
 * CHUNK_CELLS / CHUNK_STEPS = 128 apart replicas, sliced 128 to a chunk,
 * and CHUNK_CELLS / r steps, up to max_steps, for r fewer, so that a chunk
 * fills about CHUNK_CELLS cells and the last replicas of a run take few
 * passes.  The law does not depend on K, but the draws do. */
#define CHUNK_STEPS 256
#define CHUNK_CELLS (1 << 15)
/* Generator.choice's tail shuffle: a population over CHOICE_TAIL_POP of
 * which more than a CHOICE_TAIL_FRACTION-th is taken */
#define CHOICE_TAIL_POP 10000
#define CHOICE_TAIL_FRACTION 50

typedef struct {
    pcg64 rng;                   /* the seed's state in, the sample's out */
    int64_t replicas, n;
    const int64_t *start;        /* the packed start site of each slot */
    const double *lam;           /* lambda_c, c = 0..n */
    const double *const *rows;   /* by b = 2..n: P(merge size <= k), k = 2..b */
    const double *cuts;          /* the step law's cumulative sums, last left out */
    int64_t n_cuts;
    const int64_t *steps;        /* n_cuts + 1 steps, packed mod side */
    int64_t d, side, width, max_steps;
    call_fn call;                /* polled; nonzero stops the sample */
    /* the merge log, in the caller's buffers: per merge its replica, time
     * and size k, and its k slots ascending in log_slots */
    int64_t *log_replica, *log_k, *log_slots;
    double *log_time;
    int64_t n_merges, n_slots;
    int64_t chunk_calls, chunk_replicas, chunk_cells, chunk_steps, chunk_cuts;
    int64_t lockstep_events, lockstep_skipped;
} sc_sample;

/* The indices of numpy's Generator.choice(pop, k, replace=False), in its
 * order, from the same draws of `bg`: a tail shuffle of 0..pop - 1 whose
 * last k entries are taken, or Floyd's algorithm and then a shuffle, every
 * index drawn by random_bounded_uint64 as numpy draws it.  `work` holds pop
 * entries. */
void sc_choice(bitgen_t *bg, int64_t pop, int64_t k, int64_t *idx,
               int64_t *work)
{
    if (pop > CHOICE_TAIL_POP && k > pop / CHOICE_TAIL_FRACTION) {
        int64_t first = pop - k > 1 ? pop - k : 1;
        for (int64_t i = 0; i < pop; i++)
            work[i] = i;
        for (int64_t i = pop - 1; i >= first; i--) {
            int64_t j = (int64_t)random_bounded_uint64(bg, 0, i, 0, 0);
            int64_t x = work[j];
            work[j] = work[i];
            work[i] = x;
        }
        memcpy(idx, work + pop - k, k * sizeof *idx);
        return;
    }
    /* Floyd: for j = pop - k..pop - 1 a uniform value in [0, j], or j if
     * that was taken before; work marks the values taken */
    memset(work, 0, pop * sizeof *work);
    for (int64_t j = pop - k; j < pop; j++) {
        int64_t val = (int64_t)random_bounded_uint64(bg, 0, j, 0, 0);
        if (work[val])
            val = j;
        work[val] = 1;
        idx[j - (pop - k)] = val;
    }
    for (int64_t i = k - 1; i >= 1; i--) {
        int64_t j = (int64_t)random_bounded_uint64(bg, 0, i, 0, 0);
        int64_t x = idx[j];
        idx[j] = idx[i];
        idx[i] = x;
    }
}

/* numpy's pairwise sum of a[0:n] (`np.add.reduce` of one float64 row):
 * sequential below 8 entries, 8 accumulators up to 128, halves above */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - n % 8; i += 8)
            for (int64_t j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* the walk's packed steps and the add and mask that wrap a site (`move`) */
typedef struct {
    const int64_t *steps;
    int64_t ones, half, top, side;
} wrap;

typedef struct {
    bitgen_t bg;                 /* on s->rng */
    sc_sample *s;
    wrap torus;
    int64_t n, since_poll;
    /* by bucket [b/256, (b+1)/256) of a step uniform, the top 8 bits of its
     * word: its step, or -1 where a cut lies inside the bucket */
    int32_t step_table[256];
    /* by replica and slot: the site, the alive blocks on it (1 for a dead
     * slot) and whether the slot is alive */
    int64_t *site, *count;
    uint8_t *alive;
    double *t;                   /* by replica */
    int64_t *taken;              /* a chunk's steps taken, by replica */
    /* a lockstep pass's rates and event uniform, by crowded replica */
    double *coal, *total, *u;
    /* one replica's alive slots and their sites, lambda weights, merge
     * members and k-subset, by slot */
    int64_t *slot, *at, *members, *idx, *work;
    double *weight;
} sampler;

/* step #{cuts <= u} of the walk */
static int64_t step_of(const sc_sample *s, double u)
{
    int64_t k = 0;
    for (int64_t c = 0; c < s->n_cuts; c++)
        k += s->cuts[c] <= u;
    return k;
}

/* step_of the uniform of word x, looked up in its bucket where no cut
 * splits it */
static inline int64_t step_at(const sampler *w, uint64_t x)
{
    int64_t k = w->step_table[x >> 56];
    return k >= 0 ? k : step_of(w->s, word_double(x));
}

static void fill_step_table(sampler *w)
{
    const sc_sample *s = w->s;
    for (int b = 0; b < 256; b++) {
        const double lo = b / 256.0, hi = (b + 1) / 256.0;
        int32_t k = 0;
        for (int64_t c = 0; c < s->n_cuts && k >= 0; c++) {
            if (lo < s->cuts[c] && s->cuts[c] < hi)
                k = -1;
            else
                k += s->cuts[c] <= lo;
        }
        w->step_table[b] = k;
    }
}

/* site x after step k: the step's fields taken mod side leave each field
 * in [0, 2 side - 1), and a field v plus 2^(width - 1) - side sets bit
 * width - 1 exactly when v >= side, as the fields are wider than 2 side:
 * one add and mask find the fields to wrap, whichever they are */
static inline int64_t move(wrap g, int64_t x, int64_t k)
{
    int64_t to = x + g.steps[k];
    return to - (((to + g.half) >> g.top) & g.ones) * g.side;
}

static int64_t alive_count(const sampler *w, int64_t r)
{
    int64_t m = 0;
    for (int64_t j = 0; j < w->n; j++)
        m += w->alive[r * w->n + j];
    return m;
}

/* one chunk of K steps for the r replicas `rows`, none of which has two
 * alive blocks on one site: the movers' uniforms, the steps' uniforms,
 * then, replica by replica, the steps up to and with the first that puts
 * the mover on another alive block's site, and last one Gamma(taken, 1/m)
 * holding time per replica, in row order.
 *
 * The uniforms are the next 2rK words of the generator, from p on: replica
 * i's movers at p + iK.., its steps at p + rK + iK...  Each replica steps
 * two chains of the LCG from those states, a word per step taken, and the
 * next replica's chains start K words on, so that the cells past a
 * co-location are never computed; the generator is left at p + 2rK. */
static void chunk(sampler *w, const int64_t *rows, int64_t r, int64_t K)
{
    sc_sample *s = w->s;
    const int64_t n = w->n;
    const wrap torus = w->torus;
    int64_t *at = w->at, met = 0, steps = 0;
    const u128 inc = words_u128(s->rng.inc);
    const lcg_jump by_K = jump_of(inc, K), by_rK = jump_of(inc, r * K);
    u128 mover = words_u128(s->rng.state);
    u128 stepper = by_rK.mult * mover + by_rK.plus;
    for (int64_t i = 0; i < r; i++) {
        int64_t *site = w->site + rows[i] * n;
        const uint8_t *alive = w->alive + rows[i] * n;
        u128 ms = mover, ss = stepper;
        int64_t m = 0, x;
        for (int64_t j = 0; j < n; j++)
            if (alive[j]) {
                w->slot[m] = j;
                at[m++] = site[j];
            }
        for (x = 0; x < K; x++) {
            ms = ms * PCG_MULT + inc;
            ss = ss * PCG_MULT + inc;
            /* counted and compared without early exits, whose branches
             * would follow the uniforms and be mispredicted */
            int64_t j = (int64_t)(word_double(pcg_output(ms)) * (double)m);
            int64_t to = move(torus, at[j], step_at(w, pcg_output(ss)));
            int64_t hits = 0;
            at[j] = to;
            for (int64_t a = 0; a < m; a++)
                hits += at[a] == to;
            if (hits > 1)
                break;
        }
        for (int64_t a = 0; a < m; a++)
            site[w->slot[a]] = at[a];
        w->taken[i] = x < K ? x + 1 : K;
        met += x < K;
        steps += w->taken[i];
        mover = by_K.mult * mover + by_K.plus;
        stepper = by_K.mult * stepper + by_K.plus;
    }
    set_words(s->rng.state, stepper);
    for (int64_t i = 0; i < r; i++)
        w->t[rows[i]] += 1.0 / (double)alive_count(w, rows[i])
                         * random_standard_gamma(&w->bg, (double)w->taken[i]);
    s->chunk_calls++;
    s->chunk_replicas += r;
    s->chunk_cells += r * K;
    s->chunk_steps += steps;
    s->chunk_cuts += met;
    w->since_poll += steps;
}

/* advance the apart replicas `rows` by free migration, chunk by chunk;
 * nonzero: the caller asked to stop */
static int walk_apart(sampler *w, const int64_t *rows, int64_t r)
{
    if (!r)
        return 0;
    int64_t K = CHUNK_CELLS / r > CHUNK_STEPS ? CHUNK_CELLS / r : CHUNK_STEPS;
    if (K > w->s->max_steps)
        K = w->s->max_steps;
    const int64_t per_chunk = CHUNK_CELLS / K;
    for (int64_t lo = 0; lo < r; lo += per_chunk) {
        chunk(w, rows + lo, r - lo < per_chunk ? r - lo : per_chunk, K);
        if (w->since_poll > POLL_MASK) {
            w->since_poll = 0;
            if (w->s->call())
                return -1;
        }
    }
    return 0;
}

/* the weight of each slot of replica r: an alive block with b - 1 others
 * on its site weighs lambda_b / b, so a site weighs lambda_b */
static void weigh(sampler *w, int64_t r)
{
    for (int64_t j = 0; j < w->n; j++) {
        int64_t b = w->count[r * w->n + j];
        w->weight[j] = w->alive[r * w->n + j] ? w->s->lam[b] / (double)b : 0.0;
    }
}

/* one event for each of the c crowded replicas `rows`, in lockstep: for
 * all of them the holding times, then the event uniforms; then, for each
 * merging replica in turn, its site by lambda weight, its merge size and
 * its k-subset; then the step of each migrating replica */
static void lockstep(sampler *w, const int64_t *rows, int64_t c)
{
    bitgen_t *bg = &w->bg;
    sc_sample *s = w->s;
    const int64_t n = w->n;
    double *coal = w->coal, *total = w->total, *u = w->u, *weight = w->weight;
    for (int64_t i = 0; i < c; i++) {
        weigh(w, rows[i]);
        /* np.add.reduce of the row: its pairwise sum added to 0.0 */
        coal[i] = 0.0 + pairwise_sum(weight, n);
        total[i] = coal[i] + (double)alive_count(w, rows[i]);
    }
    for (int64_t i = 0; i < c; i++)
        w->t[rows[i]] += random_standard_exponential(bg) / total[i];
    for (int64_t i = 0; i < c; i++)
        u[i] = bg->next_double(bg->state) * total[i];
    for (int64_t i = 0; i < c; i++) {
        if (!(u[i] < coal[i]))
            continue;
        const int64_t r = rows[i];
        int64_t *site = w->site + r * n;
        uint8_t *alive = w->alive + r * n;
        weigh(w, r);
        /* the first block whose running weight passes u (np.searchsorted,
         * side="right", on np.cumsum), the last one if none does */
        int64_t pick = n - 1, last = 0;
        double acc = 0.0;
        for (int64_t j = 0; j < n; j++) {
            acc += weight[j];
            if (acc > u[i]) {
                pick = j;
                break;
            }
        }
        /* a u that the sequential sum rounds past falls on the last
         * weighted block */
        if (!(weight[pick] > 0.0)) {
            for (int64_t j = 0; j < n; j++)
                if (weight[j] > 0.0)
                    last = j;
            pick = last;
        }
        int64_t b = 0;
        for (int64_t j = 0; j < n; j++)
            if (alive[j] && site[j] == site[pick])
                w->members[b++] = j;
        int64_t k = 2 + bisect_right(s->rows[b], b - 1,
                                     bg->next_double(bg->state));
        if (k > b)
            k = b;
        sc_choice(bg, b, k, w->idx, w->work);
        /* the slots in ascending order; all but the least die */
        int64_t *out = s->log_slots + s->n_slots;
        for (int64_t a = 0; a < k; a++) {
            int64_t x = w->members[w->idx[a]], p = a;
            for (; p > 0 && out[p - 1] > x; p--)
                out[p] = out[p - 1];
            out[p] = x;
        }
        for (int64_t a = 1; a < k; a++)
            alive[out[a]] = 0;
        s->log_replica[s->n_merges] = r;
        s->log_time[s->n_merges] = w->t[r];
        s->log_k[s->n_merges++] = k;
        s->n_slots += k;
    }
    for (int64_t i = 0; i < c; i++) {
        if (u[i] < coal[i])
            continue;
        /* the target-th alive block, target = floor(u - coal) + 1 */
        const int64_t r = rows[i];
        int64_t target = (int64_t)floor(u[i] - coal[i]) + 1, j = 0;
        int64_t m = alive_count(w, r);
        if (target > m)
            target = m;
        for (int64_t seen = 0; j < n; j++)
            if ((seen += w->alive[r * n + j]) >= target)
                break;
        /* the step's uniform is next_double's, the word's top 53 bits */
        w->site[r * n + j] = move(w->torus, w->site[r * n + j],
                                  step_at(w, bg->next_uint64(bg->state)));
    }
}

/* The few-block sampler of `experiments.few_block_torus_sample`: every
 * replica from its start to its last merge, on the generator `s->rng`.
 * Pass by pass, as the Python loop in tests/torus_oracle.py, it splits the
 * replicas left into apart and crowded ones (two alive blocks on one
 * site), advances the apart ones by chunks of free migration and the
 * crowded ones by one event each, and drops the replicas with one block
 * left; so each draw is the one numpy made there, in numpy's order.  The
 * caller is polled once per pass and every 2^16 chunk steps.  Returns OK,
 * NO_MEMORY or CALLBACK_FAILED. */
int64_t sc_few_block(sc_sample *s)
{
    const int64_t R = s->replicas, n = s->n;
    sampler w = {.s = s, .n = n};
    sc_pcg64(&s->rng, 0, &w.bg);
    fill_step_table(&w);
    w.torus = (wrap){s->steps, 0, 0, s->width - 1, s->side};
    for (int64_t f = 0; f < s->d; f++)
        w.torus.ones |= (int64_t)1 << (f * s->width);
    w.torus.half = (((int64_t)1 << (s->width - 1)) - s->side) * w.torus.ones;
    /* the replicas left, in replica order, and one pass's split of them */
    int64_t *left = malloc(R * sizeof *left);
    int64_t *apart = malloc(R * sizeof *apart);
    int64_t *crowded = malloc(R * sizeof *crowded);
    w.site = malloc(R * n * sizeof *w.site);
    w.count = malloc(R * n * sizeof *w.count);
    w.alive = malloc(R * n);
    w.t = calloc(R, sizeof *w.t);
    w.taken = malloc(CHUNK_CELLS * sizeof *w.taken);
    w.coal = malloc(R * sizeof *w.coal);
    w.total = malloc(R * sizeof *w.total);
    w.u = malloc(R * sizeof *w.u);
    w.slot = malloc(n * sizeof *w.slot);
    w.at = malloc(n * sizeof *w.at);
    w.members = malloc(n * sizeof *w.members);
    w.idx = malloc(n * sizeof *w.idx);
    w.work = malloc(n * sizeof *w.work);
    w.weight = malloc(n * sizeof *w.weight);
    int64_t status = OK, n_left = R;
    if (!left || !apart || !crowded || !w.site || !w.count || !w.alive
        || !w.t || !w.taken || !w.coal || !w.total
        || !w.u || !w.slot || !w.at || !w.members || !w.idx || !w.work
        || !w.weight) {
        status = NO_MEMORY;
        goto done;
    }
    for (int64_t r = 0; r < R; r++) {
        memcpy(w.site + r * n, s->start, n * sizeof *w.site);
        memset(w.alive + r * n, 1, n);
        left[r] = r;
    }
    while (n_left) {
        if (s->call()) {
            status = CALLBACK_FAILED;
            break;
        }
        int64_t n_apart = 0, n_crowded = 0;
        for (int64_t i = 0; i < n_left; i++) {
            const int64_t r = left[i], *site = w.site + r * n;
            const uint8_t *alive = w.alive + r * n;
            int64_t most = 1;
            for (int64_t j = 0; j < n; j++) {
                int64_t b = 1;
                if (alive[j]) {
                    b = 0;
                    for (int64_t a = 0; a < n; a++)
                        b += alive[a] && site[a] == site[j];
                }
                w.count[r * n + j] = b;
                most = b > most ? b : most;
            }
            if (most > 1)
                crowded[n_crowded++] = r;
            else
                apart[n_apart++] = r;
        }
        if (walk_apart(&w, apart, n_apart)) {
            status = CALLBACK_FAILED;
            break;
        }
        s->lockstep_events += n_crowded;
        if (n_crowded)
            lockstep(&w, crowded, n_crowded);
        else
            s->lockstep_skipped++;
        int64_t kept = 0;
        for (int64_t i = 0; i < n_left; i++)
            if (alive_count(&w, left[i]) > 1)
                left[kept++] = left[i];
        n_left = kept;
    }
done:
    free(left);
    free(apart);
    free(crowded);
    free(w.site);
    free(w.count);
    free(w.alive);
    free(w.t);
    free(w.taken);
    free(w.coal);
    free(w.total);
    free(w.u);
    free(w.slot);
    free(w.at);
    free(w.members);
    free(w.idx);
    free(w.work);
    free(w.weight);
    return status;
}
