/* The event loop of `engine.simulate` and the free-migration scan of
 * `experiments.few_block_torus_sample`, loaded through ctypes.
 *
 * The loop seeds MT19937 as CPython's `random.seed(int)` does and replays
 * the draws of `random.Random`, so a run is bit for bit the run the Python
 * loop in tests/engine_oracle.py makes from the same seed:
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
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* ---- the few-block sampler's chunk of free migration ------------------ */

/* The scan of `experiments._TorusWalk._chunk` over the draws it made in
 * numpy: up to K jump-chain steps of free migration for each of r
 * replicas of n slots, in row order.  A site is packed, coordinate f in
 * bits [f width, (f + 1) width) as a value in [0, side); steps[s] is step s
 * of the walk packed so, each coordinate taken mod side, and `cuts` the
 * walk's cumulative step law without its last entry.  Replica i, with m
 * alive slots (alive[i n:(i + 1) n]), takes at step x the
 * (int64)(u_mover[i K + x] m)-th alive slot as the mover and step
 * #{cuts <= u_step[i K + x]}, the arithmetic of numpy's `astype` and of
 * the sampler's `draw_steps`, and stops after the first step that puts the
 * mover on the site of another alive block.  Its end sites are written
 * over sites[i n:(i + 1) n] and the number of steps it took to taken[i];
 * `scratch` holds 2 n entries.  Returns the number of replicas that met
 * another block within their K steps (on the last one too). */
int64_t sc_chunk(int64_t r, int64_t n, int64_t K, int64_t *sites,
                 const uint8_t *alive, const double *u_mover,
                 const double *u_step, const double *cuts, int64_t n_cuts,
                 const int64_t *steps, int64_t d, int64_t side,
                 int64_t width, int64_t *scratch, int64_t *taken)
{
    /* the alive blocks' slots and sites */
    int64_t *slot = scratch, *at = scratch + n;
    /* a site plus a step has each field in [0, 2 side - 1), and a field v
     * plus 2^(width - 1) - side sets bit width - 1 exactly when v >= side,
     * as the fields are wider than 2 side: one add and mask find the fields
     * to wrap, whichever they are */
    int64_t ones = 0, n_met = 0;
    for (int64_t f = 0; f < d; f++)
        ones |= (int64_t)1 << (f * width);
    const int64_t half = (((int64_t)1 << (width - 1)) - side) * ones;
    for (int64_t i = 0; i < r; i++) {
        int64_t *site = sites + i * n;
        const double *um = u_mover + i * K, *us = u_step + i * K;
        int64_t m = 0, x;
        for (int64_t j = 0; j < n; j++)
            if (alive[i * n + j]) {
                slot[m] = j;
                at[m++] = site[j];
            }
        for (x = 0; x < K; x++) {
            /* counted and compared without early exits, whose branches
             * would follow the uniforms and be mispredicted */
            int64_t j = (int64_t)(um[x] * (double)m), s = 0, to, hits = 0;
            for (int64_t c = 0; c < n_cuts; c++)
                s += cuts[c] <= us[x];
            to = at[j] + steps[s];
            to -= (((to + half) >> (width - 1)) & ones) * side;
            at[j] = to;
            for (int64_t a = 0; a < m; a++)
                hits += at[a] == to;
            if (hits > 1)
                break;
        }
        for (int64_t a = 0; a < m; a++)
            site[slot[a]] = at[a];
        taken[i] = x < K ? x + 1 : K;
        n_met += x < K;
    }
    return n_met;
}
