"""Optional C accelerator for :class:`~repro.simulation.fast.FastCycleEngine`.

The fast engine stores every view in flat ``array('q')`` buffers, which are
plain C ``int64`` memory.  This module compiles (with the system C compiler,
once, cached) a small shared library that executes an entire gossip cycle
over those buffers -- peer selection, payload construction, merge,
healer/swapper and truncation -- without touching the Python interpreter.

Bit-exact randomness
--------------------

The accelerated cycle must consume the engine's ``random.Random`` exactly
like the pure-Python reference does, or determinism and the differential
guarantees would silently break.  The C code therefore reimplements, bit
for bit, the CPython primitives the cycle path uses:

- the MT19937 core (``genrand_uint32`` incl. the tempering steps, matching
  ``_randommodule.c``);
- ``Random._randbelow_with_getrandbits`` (``getrandbits(k)`` for ``k <= 32``
  is ``genrand_uint32() >> (32 - k)``, rejection-sampled);
- ``Random.shuffle`` (Fisher-Yates over ``_randbelow(i + 1)``);
- ``Random.sample``'s *pool* algorithm.  ``sample(range(m), c)`` with
  ``m <= 2c + 2`` always satisfies ``m <= setsize`` (the pool/selection-set
  cutoff in ``random.py``), so the selection-set branch is never needed.

Before each accelerated cycle the engine hands the C code the Mersenne
Twister state (``Random.getstate()``); afterwards the mutated state is
installed back via ``Random.setstate()``.  The RNG stream is therefore
seamless across Python and C consumers -- the determinism tests assert
that even the post-run generator state matches the reference engine's.

The accelerator is optional: when no C compiler is available (or
``REPRO_NO_ACCEL`` is set), the engine transparently falls back to its
pure-Python path, which produces identical results, only slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

__all__ = ["load_accelerator", "Accelerator"]

DISABLE_ENV_VAR = "REPRO_NO_ACCEL"
"""Set (to any non-empty value) to force the pure-Python engine path."""

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* MT19937, bit-exact with CPython Modules/_randommodule.c            */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397
#define MATRIX_A   0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

static uint32_t g_mt[MT_N];
static int g_mti;

static uint32_t genrand_uint32(void) {
    uint32_t y;
    static const uint32_t mag01[2] = {0U, MATRIX_A};
    if (g_mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (g_mt[kk] & UPPER_MASK) | (g_mt[kk + 1] & LOWER_MASK);
            g_mt[kk] = g_mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (g_mt[kk] & UPPER_MASK) | (g_mt[kk + 1] & LOWER_MASK);
            g_mt[kk] = g_mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (g_mt[MT_N - 1] & UPPER_MASK) | (g_mt[0] & LOWER_MASK);
        g_mt[MT_N - 1] = g_mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        g_mti = 0;
    }
    y = g_mt[g_mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow_with_getrandbits; n >= 1 and n < 2**32 here, so
   getrandbits(k) is the single-word genrand_uint32() >> (32 - k). */
static int64_t randbelow(int64_t n) {
    int k = 0;
    int64_t v = n;
    uint32_t r;
    while (v) { k++; v >>= 1; }
    do {
        r = genrand_uint32() >> (32 - k);
    } while ((int64_t)r >= n);
    return (int64_t)r;
}

/* Random.shuffle */
static void shuffle_ids(int64_t *x, int64_t len) {
    int64_t i, j, t;
    for (i = len - 1; i > 0; i--) {
        j = randbelow(i + 1);
        t = x[i]; x[i] = x[j]; x[j] = t;
    }
}

/* Random.sample(range(n), k), pool algorithm (always taken: the caller
   guarantees n <= setsize).  result receives the k chosen positions in
   sample order. */
static void sample_range(int64_t n, int64_t k, int64_t *result,
                         int64_t *pool) {
    int64_t i, j;
    for (i = 0; i < n; i++) pool[i] = i;
    for (i = 0; i < k; i++) {
        j = randbelow(n - i);
        result[i] = pool[j];
        pool[j] = pool[n - i - 1];
    }
}

/* ------------------------------------------------------------------ */
/* Engine context (one engine drives the library at a time; the GIL    */
/* serializes access and the pointers are refreshed every cycle).      */
/* ------------------------------------------------------------------ */

static int64_t *g_vids, *g_vhops, *g_vlen, *g_rowof;
static unsigned char *g_alive;
static int64_t *g_group;   /* partition group per id, -1 = unconstrained;
                              NULL while no partition is installed */
static int64_t g_c, g_H, g_S;
static int g_keepself, g_push, g_pull, g_ps, g_vs, g_omniscient, g_shuffle;

static int64_t *s_rqi, *s_rqh, *s_rpi, *s_rph;   /* payload scratch   */
static int64_t *s_bids, *s_bhops;                /* merge buffer      */
static unsigned char *s_bown;                    /* own-origin flags  */
static int64_t *s_order, *s_picked, *s_pool, *s_cand;
static int64_t g_scratch_c = -1;

/* Sharded-round keyed-RNG dispatch (see the fs_* section below): while
   g_fs_keyed is set, merge truncation draws come from the stateless
   counter stream under g_fs_key instead of the resident MT19937. */
static uint64_t g_fs_key;
static int g_fs_keyed = 0;
static void fs_sample(uint64_t key, int64_t m, int64_t k,
                      int64_t *result, int64_t *pool);

void fc_setup(int64_t *vids, int64_t *vhops, int64_t *vlen, int64_t *rowof,
              unsigned char *alive, int64_t *group, int64_t c,
              int64_t healer, int64_t swapper, int keepself, int push,
              int pull, int ps, int vs, int omniscient, int do_shuffle) {
    g_vids = vids; g_vhops = vhops; g_vlen = vlen; g_rowof = rowof;
    g_alive = alive; g_group = group;
    g_c = c; g_H = healer; g_S = swapper;
    g_keepself = keepself; g_push = push; g_pull = pull;
    g_ps = ps; g_vs = vs; g_omniscient = omniscient; g_shuffle = do_shuffle;
    if (c != g_scratch_c) {
        size_t pay = (size_t)(c + 1), buf = (size_t)(2 * c + 2);
        free(s_rqi); free(s_rqh); free(s_rpi); free(s_rph);
        free(s_bids); free(s_bhops); free(s_bown);
        free(s_order); free(s_picked); free(s_pool); free(s_cand);
        s_rqi = malloc(pay * sizeof(int64_t));
        s_rqh = malloc(pay * sizeof(int64_t));
        s_rpi = malloc(pay * sizeof(int64_t));
        s_rph = malloc(pay * sizeof(int64_t));
        s_bids = malloc(buf * sizeof(int64_t));
        s_bhops = malloc(buf * sizeof(int64_t));
        s_bown = malloc(buf);
        s_order = malloc(buf * sizeof(int64_t));
        s_picked = malloc((size_t)c * sizeof(int64_t));
        s_pool = malloc(buf * sizeof(int64_t));
        s_cand = malloc((size_t)c * sizeof(int64_t));
        g_scratch_c = c;
    }
}

/* Whether the installed partition drops messages between ids a and b
   (the flat-array group_cut): both have a group and the groups differ. */
static int cut(int64_t a, int64_t b) {
    int64_t ga, gb;
    if (!g_group) return 0;
    ga = g_group[a]; gb = g_group[b];
    return ga != gb && ga >= 0 && gb >= 0;
}

/* view <- selectView(merge(received, view)); received hop counts arrive
   with the receiver-side increaseHopCount already applied. */
static void merge_into(int64_t t, const int64_t *rids, const int64_t *rhops,
                       int64_t nr) {
    int64_t c = g_c, row = g_rowof[t], base = row * c, ln = g_vlen[row];
    int64_t *bids = s_bids, *bhops = s_bhops;
    unsigned char *bown = s_bown;
    int64_t *order = s_order;
    int64_t excl = g_keepself ? -1 : t;
    int64_t n = 0, nru, m, j, k;

    /* duplicate elimination: lowest hop count wins, first-seen
       (received-first) order is kept, exactly like the reference merge. */
    for (k = 0; k < nr; k++) {
        int64_t a = rids[k], f = -1;
        if (a == excl) continue;
        for (j = 0; j < n; j++) if (bids[j] == a) { f = j; break; }
        if (f < 0) { bids[n] = a; bhops[n] = rhops[k]; bown[n] = 0; n++; }
        else if (rhops[k] < bhops[f]) { bhops[f] = rhops[k]; bown[f] = 0; }
    }
    nru = n;
    for (k = 0; k < ln; k++) {
        int64_t a = g_vids[base + k], h = g_vhops[base + k], f = -1;
        if (a == excl) continue;
        for (j = 0; j < nru; j++) if (bids[j] == a) { f = j; break; }
        if (f < 0) { bids[n] = a; bhops[n] = h; bown[n] = 1; n++; }
        else if (h < bhops[f]) { bhops[f] = h; bown[f] = 1; }
    }

    /* stable insertion sort by hop count (ties keep first-seen order). */
    for (j = 0; j < n; j++) order[j] = j;
    for (j = 1; j < n; j++) {
        int64_t q = order[j], h = bhops[q], w = j;
        while (w > 0 && bhops[order[w - 1]] > h) {
            order[w] = order[w - 1];
            w--;
        }
        order[w] = q;
    }
    m = n;

    /* healer/swapper pre-truncation. */
    if (m > c && (g_H || g_S)) {
        int64_t surplus = m - c;
        if (g_H) {
            int64_t drop = g_H < surplus ? g_H : surplus;
            m -= drop;                      /* oldest = tail of the sort */
            surplus -= drop;
        }
        if (surplus > 0 && g_S) {
            int64_t todrop = g_S < surplus ? g_S : surplus, w = 0;
            for (j = 0; j < m; j++) {
                int64_t q = order[j];
                if (todrop && bown[q]) { todrop--; continue; }
                order[w++] = q;
            }
            m = w;
        }
    }

    /* view-selection truncation. */
    if (m > c) {
        if (g_vs == 1) {                     /* head */
            m = c;
        } else if (g_vs == 2) {              /* tail */
            memmove(order, order + (m - c), (size_t)c * sizeof(int64_t));
            m = c;
        } else {                             /* rand */
            int64_t *chosen = s_pool;        /* reused after sampling */
            if (g_fs_keyed) fs_sample(g_fs_key, m, c, s_picked, s_pool);
            else sample_range(m, c, s_picked, s_pool);
            for (j = 0; j < c; j++) chosen[j] = order[s_picked[j]];
            /* stable re-sort by hop count keeps the sample order on ties,
               like select_rand's chosen.sort(key=hop_count). */
            for (j = 1; j < c; j++) {
                int64_t q = chosen[j], h = bhops[q], w = j;
                while (w > 0 && bhops[chosen[w - 1]] > h) {
                    chosen[w] = chosen[w - 1];
                    w--;
                }
                chosen[w] = q;
            }
            memcpy(order, chosen, (size_t)c * sizeof(int64_t));
            m = c;
        }
    }

    for (j = 0; j < m; j++) {
        g_vids[base + j] = bids[order[j]];
        g_vhops[base + j] = bhops[order[j]];
    }
    g_vlen[row] = m;
}

/* Random-bootstrap all views: node i (address == id == 0..n-1) receives
   the first `fill` values != i of Random.sample(range(n), k).  Replicates
   CPython's sample() draw-for-draw -- both the pool algorithm (small n)
   and the selection-set algorithm with its rejection loop (large n),
   including the floating-point setsize cutoff -- so the RNG stream stays
   byte-identical with the reference engine's bootstrap.  rstate as in
   fc_run_cycle. */
void fc_bootstrap(int64_t n, int64_t k, int64_t fill, int64_t *rstate) {
    int64_t i, j, t, w;
    int64_t setsize = 21;
    int64_t *chosen = malloc((size_t)k * sizeof(int64_t));
    int64_t *pool = NULL;
    unsigned char *sel = NULL;
    for (t = 0; t < MT_N; t++) g_mt[t] = (uint32_t)rstate[t];
    g_mti = (int)rstate[MT_N];
    if (k > 5) {
        /* random.py: setsize += 4 ** ceil(log(k * 3, 4)) */
        setsize += (int64_t)pow(4.0,
                                ceil(log((double)(k * 3)) / log(4.0)));
    }
    if (n <= setsize) {
        pool = malloc((size_t)n * sizeof(int64_t));
    } else {
        sel = calloc((size_t)n, 1);
    }
    for (i = 0; i < n; i++) {
        int64_t row = g_rowof[i], base = row * g_c;
        if (pool) {
            for (t = 0; t < n; t++) pool[t] = t;
            for (t = 0; t < k; t++) {
                j = randbelow(n - t);
                chosen[t] = pool[j];
                pool[j] = pool[n - t - 1];
            }
        } else {
            for (t = 0; t < k; t++) {
                j = randbelow(n);
                while (sel[j]) j = randbelow(n);
                sel[j] = 1;
                chosen[t] = j;
            }
            for (t = 0; t < k; t++) sel[chosen[t]] = 0;
        }
        w = 0;
        for (t = 0; t < k; t++) {
            if (chosen[t] != i) {
                if (w == fill) break;
                g_vids[base + w] = chosen[t];
                g_vhops[base + w] = 0;
                w++;
            }
        }
        g_vlen[row] = w;
    }
    free(chosen);
    free(pool);
    free(sel);
    for (t = 0; t < MT_N; t++) rstate[t] = (int64_t)g_mt[t];
    rstate[MT_N] = g_mti;
}

/* ------------------------------------------------------------------ */
/* Event-driven steps over the same kernel state, driven by the        */
/* whole-slice loop fc_event_run below.  Unlike fc_run_cycle, the      */
/* MT19937 state stays *resident* across the calls of one scheduling   */
/* slice (fc_load_state / fc_store_state bracket it), so loss and      */
/* latency draws (fc_random) continue the same logical RNG stream.     */
/* ------------------------------------------------------------------ */

static int64_t *g_mids, *g_mhops, *g_mlen;   /* message slot pool */
static int64_t *g_msrc, *g_mdst;             /* per-slot source/destination */

void fc_load_state(int64_t *rstate) {
    int k;
    for (k = 0; k < MT_N; k++) g_mt[k] = (uint32_t)rstate[k];
    g_mti = (int)rstate[MT_N];
}

void fc_store_state(int64_t *rstate) {
    int k;
    for (k = 0; k < MT_N; k++) rstate[k] = (int64_t)g_mt[k];
    rstate[MT_N] = g_mti;
}

/* Random.random(): genrand_res53, bit-exact with _randommodule.c. */
static double fc_random(void) {
    uint32_t a = genrand_uint32() >> 5, b = genrand_uint32() >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

void fc_event_setup(int64_t *mids, int64_t *mhops, int64_t *mlen,
                    int64_t *msrc, int64_t *mdst) {
    g_mids = mids; g_mhops = mhops; g_mlen = mlen;
    g_msrc = msrc; g_mdst = mdst;
}

/* First half of the active thread for node i (GossipNode.begin_exchange):
   age the view, select the exchange partner, build the request payload --
   merge(view, {(me, 0)}) with the receiver-side increaseHopCount already
   applied -- into message slot `slot`.  Returns the peer (-1: none).
   Under non-omniscient selection the peer may be dead; the caller
   delivers anyway and the failure is counted at delivery, exactly like
   the object-per-node event engine. */
static int64_t ev_begin_exchange(int64_t i, int64_t slot) {
    int64_t row = g_rowof[i], base = row * g_c, ln = g_vlen[row];
    int64_t p = -1, npay = 0, k;
    for (k = 0; k < ln; k++) g_vhops[base + k]++;
    if (ln) {
        if (g_omniscient) {
            int64_t nc = 0;
            for (k = 0; k < ln; k++) {
                int64_t a = g_vids[base + k];
                if (g_alive[a]) s_cand[nc++] = a;
            }
            if (nc) {
                if (g_ps == 0) p = s_cand[randbelow(nc)];
                else if (g_ps == 1) p = s_cand[0];
                else p = s_cand[nc - 1];
            }
        } else {
            if (g_ps == 0) p = g_vids[base + randbelow(ln)];
            else if (g_ps == 1) p = g_vids[base];
            else p = g_vids[base + ln - 1];
        }
    }
    if (p >= 0 && g_push) {
        int64_t off = slot * (g_c + 1);
        g_mids[off] = i; g_mhops[off] = 1;
        for (k = 0; k < ln; k++) {
            g_mids[off + 1 + k] = g_vids[base + k];
            g_mhops[off + 1 + k] = g_vhops[base + k] + 1;
        }
        npay = ln + 1;
    }
    g_mlen[slot] = npay;
    return p;
}

/* Deliver message slot `slot` to node `dst`.  For pull replies
   (reply_slot >= 0) the reply snapshot is built BEFORE the merge,
   exactly like the passive thread in Figure 1; an empty payload (the
   pull-only request) skips the merge, which is draw- and state-neutral
   (no truncation can trigger below capacity). */
static void ev_deliver_slot(int64_t dst, int64_t slot, int64_t reply_slot) {
    int64_t off = slot * (g_c + 1), n = g_mlen[slot], k;
    if (reply_slot >= 0) {
        int64_t row = g_rowof[dst], base = row * g_c, ln = g_vlen[row];
        int64_t roff = reply_slot * (g_c + 1);
        g_mids[roff] = dst; g_mhops[roff] = 1;
        for (k = 0; k < ln; k++) {
            g_mids[roff + 1 + k] = g_vids[base + k];
            g_mhops[roff + 1 + k] = g_vhops[base + k] + 1;
        }
        g_mlen[reply_slot] = ln + 1;
    }
    if (n) merge_into(dst, g_mids + off, g_mhops + off, n);
}

/* ------------------------------------------------------------------ */
/* Whole-slice event loop: a native (tick, seq, data) binary min-heap  */
/* over caller-owned int64 arrays, dispatching timers and deliveries   */
/* entirely in C until a cycle boundary (observers run in Python), the */
/* end of the slice, or a capacity limit is hit.  Keys are unique      */
/* (tick, seq) pairs, so the pop order is exactly the Python packed-   */
/* int heap's order -- internal arrangement never matters.             */
/* ------------------------------------------------------------------ */

#define EVR_END 0
#define EVR_BOUNDARY 1
#define EVR_HEAP_FULL 2
#define EVR_POOL_FULL 3
#define EVR_EMPTY 4

#define EV_KIND_SHIFT 26
#define EV_IDX_MASK ((1 << EV_KIND_SHIFT) - 1)
#define EV_REQUEST (1 << EV_KIND_SHIFT)
#define EV_REPLY (2 << EV_KIND_SHIFT)

static void heap_sift_up(int64_t *ht, int64_t *hs, int64_t *hd,
                         int64_t pos, int64_t tick, int64_t seqv,
                         int64_t data) {
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (ht[parent] < tick
            || (ht[parent] == tick && hs[parent] < seqv)) break;
        ht[pos] = ht[parent]; hs[pos] = hs[parent]; hd[pos] = hd[parent];
        pos = parent;
    }
    ht[pos] = tick; hs[pos] = seqv; hd[pos] = data;
}

void fc_heap_push(int64_t tick, int64_t seqv, int64_t data,
                  int64_t *ht, int64_t *hs, int64_t *hd,
                  int64_t *heap_len) {
    heap_sift_up(ht, hs, hd, (*heap_len)++, tick, seqv, data);
}

static void heap_remove_top(int64_t *ht, int64_t *hs, int64_t *hd,
                            int64_t n /* new length */) {
    int64_t tick = ht[n], seqv = hs[n], data = hd[n], pos = 0, child;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n
            && (ht[child + 1] < ht[child]
                || (ht[child + 1] == ht[child]
                    && hs[child + 1] < hs[child]))) child++;
        if (ht[child] > tick
            || (ht[child] == tick && hs[child] > seqv)) break;
        ht[pos] = ht[child]; hs[pos] = hs[child]; hd[pos] = hd[child];
        pos = child;
    }
    ht[pos] = tick; hs[pos] = seqv; hd[pos] = data;
}

/* Run the event loop until end_tick (inclusive), the next cycle
   boundary, an empty heap, or a capacity limit.  The caller re-enters
   after handling the return reason; counters accumulate
   {completed, failed, sent, lost} and now_io tracks the last dispatched
   tick (the Python scheduler's notion of "now").  A message the
   partition cuts is lost without any draw; otherwise loss is decided
   before latency is sampled, per message, exactly like the reference
   event engine; loss_code 1 = Bernoulli(loss_p); lat_code 0 = constant
   (const_delay ticks), 1 = uniform(lat_a + lat_b * random()),
   2 = exponential(-log(1 - random()) / lat_a), all bit-exact with the
   corresponding random.Random expressions. */
int64_t fc_event_run(int64_t end_tick, int64_t boundary_tick,
                     int64_t *ht, int64_t *hs, int64_t *hd,
                     int64_t *heap_len, int64_t heap_cap,
                     int64_t *freelist, int64_t *free_len,
                     int64_t *pool_fresh, int64_t pool_cap,
                     int64_t *seq_io, int64_t *now_io,
                     int64_t loss_code, double loss_p,
                     int64_t lat_code, int64_t const_delay,
                     double lat_a, double lat_b,
                     double tick_scale, int64_t period_ticks,
                     int64_t *counters, int64_t *top_tick_out) {
    for (;;) {
        int64_t tick, data, n, i, slot, p;
        if (*heap_len == 0) return EVR_EMPTY;
        tick = ht[0];
        if (tick > end_tick) return EVR_END;
        if (tick >= boundary_tick) { *top_tick_out = tick; return EVR_BOUNDARY; }
        /* conservative per-event guards: at most 2 pushes, 1 fresh slot */
        if (*heap_len + 2 > heap_cap) return EVR_HEAP_FULL;
        if (*free_len == 0 && *pool_fresh >= pool_cap) return EVR_POOL_FULL;
        data = hd[0];
        n = --(*heap_len);
        heap_remove_top(ht, hs, hd, n);
        *now_io = tick;

        if (data < EV_REQUEST) {                      /* timer */
            i = data;
            if (!g_alive[i]) continue;   /* the timer dies with the node */
            slot = *free_len ? freelist[--(*free_len)] : (*pool_fresh)++;
            p = ev_begin_exchange(i, slot);
            if (p >= 0) {
                counters[2]++;                        /* sent */
                if (cut(i, p)
                    || (loss_code == 1 && fc_random() < loss_p)) {
                    counters[3]++;                    /* lost */
                    freelist[(*free_len)++] = slot;
                } else {
                    int64_t delay =
                        lat_code == 0 ? const_delay
                        : lat_code == 1
                            ? (int64_t)((lat_a + lat_b * fc_random())
                                        * tick_scale)
                            : (int64_t)(-log(1.0 - fc_random()) / lat_a
                                        * tick_scale);
                    g_msrc[slot] = i; g_mdst[slot] = p;
                    heap_sift_up(ht, hs, hd, (*heap_len)++,
                                 tick + delay, (*seq_io)++,
                                 EV_REQUEST | slot);
                }
            } else {
                freelist[(*free_len)++] = slot;
            }
            /* the timer survives even when no exchange started */
            heap_sift_up(ht, hs, hd, (*heap_len)++,
                         tick + period_ticks, (*seq_io)++, data);

        } else if (data < EV_REPLY) {                 /* request delivery */
            int64_t dst, src;
            slot = data & EV_IDX_MASK;
            dst = g_mdst[slot];
            if (!g_alive[dst]) {
                counters[1]++;                        /* failed */
                freelist[(*free_len)++] = slot;
                continue;
            }
            src = g_msrc[slot];
            if (g_pull) {
                int64_t rslot =
                    *free_len ? freelist[--(*free_len)] : (*pool_fresh)++;
                ev_deliver_slot(dst, slot, rslot);
                counters[0]++;                        /* completed */
                freelist[(*free_len)++] = slot;
                counters[2]++;                        /* sent */
                if (cut(dst, src)
                    || (loss_code == 1 && fc_random() < loss_p)) {
                    counters[3]++;
                    freelist[(*free_len)++] = rslot;
                } else {
                    int64_t delay =
                        lat_code == 0 ? const_delay
                        : lat_code == 1
                            ? (int64_t)((lat_a + lat_b * fc_random())
                                        * tick_scale)
                            : (int64_t)(-log(1.0 - fc_random()) / lat_a
                                        * tick_scale);
                    g_msrc[rslot] = dst; g_mdst[rslot] = src;
                    heap_sift_up(ht, hs, hd, (*heap_len)++,
                                 tick + delay, (*seq_io)++,
                                 EV_REPLY | rslot);
                }
            } else {
                ev_deliver_slot(dst, slot, -1);
                counters[0]++;
                freelist[(*free_len)++] = slot;
            }

        } else {                                      /* reply delivery */
            int64_t dst;
            slot = data & EV_IDX_MASK;
            dst = g_mdst[slot];
            if (!g_alive[dst]) {
                counters[1]++;
                freelist[(*free_len)++] = slot;
                continue;
            }
            ev_deliver_slot(dst, slot, -1);
            freelist[(*free_len)++] = slot;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Sharded synchronous rounds (engine "fast-sharded"): stateless       */
/* splitmix64 counter RNG plus the BSP phase kernels.  Unlike the      */
/* MT19937 paths above, every draw is a pure function of               */
/* (phase_seed, purpose, round, node, source, counter), so any shard   */
/* -- in any process, in any order -- reproduces exactly the same      */
/* exchanges: results depend on the seed, never on the shard count.    */
/* The pure-Python fallback in repro.simulation.sharded implements     */
/* the identical derivation chain; the differential suite pins the     */
/* two backends together.                                              */
/* ------------------------------------------------------------------ */

#define FS_SELECT 1
#define FS_REQ 2
#define FS_REP 3

static uint64_t fs_sm64(uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static uint64_t fs_key(uint64_t seed, uint64_t purpose, uint64_t rnd,
                       uint64_t a, uint64_t b) {
    uint64_t k = fs_sm64(seed + purpose);
    k = fs_sm64(k + rnd);
    k = fs_sm64(k + a);
    return fs_sm64(k + b);
}

/* Draw t of the stream under `key`, reduced mod n. */
static int64_t fs_below(uint64_t key, uint64_t t, int64_t n) {
    return (int64_t)(fs_sm64(key + 1 + t) % (uint64_t)n);
}

/* Keyed counterpart of sample_range: the same pool algorithm, fed by
   the counter stream instead of MT19937. */
static void fs_sample(uint64_t key, int64_t m, int64_t k,
                      int64_t *result, int64_t *pool) {
    int64_t i, j;
    for (i = 0; i < m; i++) pool[i] = i;
    for (i = 0; i < k; i++) {
        j = fs_below(key, (uint64_t)i, m - i);
        result[i] = pool[j];
        pool[j] = pool[m - i - 1];
    }
}

/* Message record layout, stride 2*(c+1) + 3 int64 apiece:
   [src, dst, npay, ids[c+1], hops[c+1]]; payload hop counts are stored
   with the receiver-side increaseHopCount already applied. */

/* Phase 1 (active threads, request half) for the ids of one shard:
   age the view, select the peer via the keyed stream, emit one request
   record per initiating node into `outbox`.  Returns the record count;
   *ncut receives the number of exchanges the partition cut (failed). */
int64_t fs_request_phase(uint64_t seed, uint64_t rnd,
                         int64_t shard, int64_t nshards, int64_t n_ids,
                         int64_t *outbox, int64_t *ncut) {
    int64_t stride = 2 * (g_c + 1) + 3;
    int64_t w = 0, i, k;
    *ncut = 0;
    for (i = shard; i < n_ids; i += nshards) {
        int64_t row, base, ln, p = -1, *msg, npay = 0;
        if (!g_alive[i]) continue;
        row = g_rowof[i];
        base = row * g_c;
        ln = g_vlen[row];
        if (!ln) continue;
        for (k = 0; k < ln; k++) g_vhops[base + k]++;
        if (g_omniscient) {
            int64_t nc = 0;
            for (k = 0; k < ln; k++) {
                int64_t a = g_vids[base + k];
                if (g_alive[a]) s_cand[nc++] = a;
            }
            if (!nc) continue;
            if (g_ps == 0)
                p = s_cand[fs_below(
                    fs_key(seed, FS_SELECT, rnd, (uint64_t)i, 0), 0, nc)];
            else if (g_ps == 1) p = s_cand[0];
            else p = s_cand[nc - 1];
        } else {
            if (g_ps == 0)
                p = g_vids[base + fs_below(
                    fs_key(seed, FS_SELECT, rnd, (uint64_t)i, 0), 0, ln)];
            else if (g_ps == 1) p = g_vids[base];
            else p = g_vids[base + ln - 1];
        }
        if (cut(i, p)) { (*ncut)++; continue; }
        msg = outbox + w * stride;
        msg[0] = i; msg[1] = p;
        if (g_push) {
            msg[3] = i; msg[3 + g_c + 1] = 1;
            for (k = 0; k < ln; k++) {
                msg[4 + k] = g_vids[base + k];
                msg[4 + g_c + 1 + k] = g_vhops[base + k] + 1;
            }
            npay = ln + 1;
        }
        msg[2] = npay;
        w++;
    }
    return w;
}

typedef struct { int64_t dst, src; int64_t *msg; } fs_ref;

static int fs_cmp(const void *x, const void *y) {
    const fs_ref *a = (const fs_ref *)x, *b = (const fs_ref *)y;
    if (a->dst != b->dst) return a->dst < b->dst ? -1 : 1;
    if (a->src != b->src) return a->src < b->src ? -1 : 1;
    return 0;
}

/* Phases 2 and 3: deliver every record whose destination belongs to
   this shard, in canonical (dst, src) order -- each source sends at
   most one request (and receives at most one reply) per round, so the
   order is total and identical however the records were boxed.  For
   requests under pull (`do_reply`), the reply snapshot is built BEFORE
   the merge, exactly like the passive thread of Figure 1; an empty
   payload (pull-only request) skips the merge.  `box_addrs` carries
   the outbox base addresses as int64 (the boxes may live in shared
   memory segments mapped at different addresses per process).
   out = {completed, failed, nreplies}. */
void fs_deliver(uint64_t seed, uint64_t rnd, int64_t is_request,
                int64_t shard, int64_t nshards,
                int64_t *box_addrs, int64_t *box_counts, int64_t nboxes,
                int64_t do_reply, int64_t *reply_box, int64_t *out) {
    int64_t stride = 2 * (g_c + 1) + 3;
    int64_t total = 0, nsel = 0, b, k;
    int64_t completed = 0, failed = 0, nreply = 0;
    fs_ref *refs;
    for (b = 0; b < nboxes; b++) total += box_counts[b];
    refs = malloc((size_t)(total ? total : 1) * sizeof(fs_ref));
    for (b = 0; b < nboxes; b++) {
        int64_t *box = (int64_t *)(intptr_t)box_addrs[b];
        for (k = 0; k < box_counts[b]; k++) {
            int64_t *msg = box + k * stride;
            if (msg[1] % nshards == shard) {
                refs[nsel].dst = msg[1];
                refs[nsel].src = msg[0];
                refs[nsel].msg = msg;
                nsel++;
            }
        }
    }
    qsort(refs, (size_t)nsel, sizeof(fs_ref), fs_cmp);
    for (k = 0; k < nsel; k++) {
        int64_t dst = refs[k].dst, src = refs[k].src;
        int64_t *msg = refs[k].msg;
        int64_t npay = msg[2], j;
        if (!g_alive[dst]) {
            if (is_request) failed++;
            continue;
        }
        if (do_reply) {
            int64_t row = g_rowof[dst], rb = row * g_c, rln = g_vlen[row];
            int64_t *rep = reply_box + nreply * stride;
            rep[0] = dst; rep[1] = src; rep[2] = rln + 1;
            rep[3] = dst; rep[3 + g_c + 1] = 1;
            for (j = 0; j < rln; j++) {
                rep[4 + j] = g_vids[rb + j];
                rep[4 + g_c + 1 + j] = g_vhops[rb + j] + 1;
            }
            nreply++;
        }
        if (npay) {
            g_fs_key = fs_key(seed, is_request ? FS_REQ : FS_REP, rnd,
                              (uint64_t)dst, (uint64_t)src);
            g_fs_keyed = 1;
            merge_into(dst, msg + 3, msg + 3 + g_c + 1, npay);
            g_fs_keyed = 0;
        }
        if (is_request) completed++;
    }
    free(refs);
    out[0] = completed; out[1] = failed; out[2] = nreply;
}

/* One full cycle.  order: live ids in insertion order (shuffled in place
   when enabled); rstate: the 625-word Mersenne Twister state from
   Random.getstate(), mutated in place; out: {completed, failed}. */
void fc_run_cycle(int64_t *order, int64_t norder, int64_t *rstate,
                  int64_t *out) {
    int64_t completed = 0, failed = 0, oi, k;
    for (k = 0; k < MT_N; k++) g_mt[k] = (uint32_t)rstate[k];
    g_mti = (int)rstate[MT_N];

    if (g_shuffle) shuffle_ids(order, norder);
    for (oi = 0; oi < norder; oi++) {
        int64_t i = order[oi], row, base, ln, p = -1, nrq = 0;
        if (!g_alive[i]) continue;
        row = g_rowof[i];
        base = row * g_c;
        ln = g_vlen[row];
        if (!ln) continue;
        /* active thread, first half: age view, select peer. */
        for (k = 0; k < ln; k++) g_vhops[base + k]++;
        if (g_omniscient) {
            int64_t nc = 0;
            for (k = 0; k < ln; k++) {
                int64_t a = g_vids[base + k];
                if (g_alive[a]) s_cand[nc++] = a;
            }
            if (!nc) continue;
            if (g_ps == 0) p = s_cand[randbelow(nc)];
            else if (g_ps == 1) p = s_cand[0];
            else p = s_cand[nc - 1];
        } else {
            if (g_ps == 0) p = g_vids[base + randbelow(ln)];
            else if (g_ps == 1) p = g_vids[base];
            else p = g_vids[base + ln - 1];
            if (!g_alive[p]) { failed++; continue; }
        }
        if (cut(i, p)) { failed++; continue; }
        /* request payload: merge(view, {(me, 0)}), receiver-incremented. */
        if (g_push) {
            s_rqi[0] = i; s_rqh[0] = 1;
            for (k = 0; k < ln; k++) {
                s_rqi[k + 1] = g_vids[base + k];
                s_rqh[k + 1] = g_vhops[base + k] + 1;
            }
            nrq = ln + 1;
        }
        if (g_pull) {
            /* passive thread: reply snapshot precedes the merge. */
            int64_t prow = g_rowof[p], pbase = prow * g_c;
            int64_t pln = g_vlen[prow];
            s_rpi[0] = p; s_rph[0] = 1;
            for (k = 0; k < pln; k++) {
                s_rpi[k + 1] = g_vids[pbase + k];
                s_rph[k + 1] = g_vhops[pbase + k] + 1;
            }
            merge_into(p, s_rqi, s_rqh, nrq);
            /* active thread, second half: merge the pulled view. */
            merge_into(i, s_rpi, s_rph, pln + 1);
        } else {
            merge_into(p, s_rqi, s_rqh, nrq);
        }
        completed++;
    }

    out[0] = completed;
    out[1] = failed;
    for (k = 0; k < MT_N; k++) rstate[k] = (int64_t)g_mt[k];
    rstate[MT_N] = g_mti;
}
"""

_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
"""Compile flags; part of the library cache key because they are
semantically load-bearing: ``-ffp-contract=off`` stops compilers that
contract ``a*b + c`` into fma by default (aarch64) from skipping the
intermediate rounding CPython's float arithmetic performs -- the
event-path latency expressions must round identically or a delay can
land on the other side of an integer-tick boundary and silently break
the byte-identity contract."""

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_ubyte)


class Accelerator:
    """ctypes handle to the compiled cycle core."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.fc_setup.argtypes = [
            _I64P, _I64P, _I64P, _I64P, _U8P, _I64P,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ]
        lib.fc_setup.restype = None
        lib.fc_run_cycle.argtypes = [
            _I64P, ctypes.c_int64, _I64P, _I64P,
        ]
        lib.fc_run_cycle.restype = None
        lib.fc_bootstrap.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64P,
        ]
        lib.fc_bootstrap.restype = None
        lib.fc_load_state.argtypes = [_I64P]
        lib.fc_load_state.restype = None
        lib.fc_store_state.argtypes = [_I64P]
        lib.fc_store_state.restype = None
        lib.fc_event_setup.argtypes = [_I64P, _I64P, _I64P, _I64P, _I64P]
        lib.fc_event_setup.restype = None
        lib.fc_heap_push.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64P, _I64P, _I64P, _I64P,
        ]
        lib.fc_heap_push.restype = None
        lib.fc_event_run.argtypes = [
            ctypes.c_int64, ctypes.c_int64,            # end, boundary
            _I64P, _I64P, _I64P,                       # heap tick/seq/data
            _I64P, ctypes.c_int64,                     # heap_len, heap_cap
            _I64P, _I64P,                              # freelist, free_len
            _I64P, ctypes.c_int64,                     # pool_fresh, pool_cap
            _I64P, _I64P,                              # seq_io, now_io
            ctypes.c_int64, ctypes.c_double,           # loss_code, loss_p
            ctypes.c_int64, ctypes.c_int64,            # lat_code, const_delay
            ctypes.c_double, ctypes.c_double,          # lat_a, lat_b
            ctypes.c_double, ctypes.c_int64,           # tick_scale, period
            _I64P, _I64P,                              # counters, top_tick
        ]
        lib.fc_event_run.restype = ctypes.c_int64
        lib.fs_request_phase.argtypes = [
            ctypes.c_uint64, ctypes.c_uint64,          # phase seed, round
            ctypes.c_int64, ctypes.c_int64,            # shard, nshards
            ctypes.c_int64, _I64P,                     # n_ids, outbox
            _I64P,                                     # ncut
        ]
        lib.fs_request_phase.restype = ctypes.c_int64
        lib.fs_deliver.argtypes = [
            ctypes.c_uint64, ctypes.c_uint64,          # phase seed, round
            ctypes.c_int64,                            # is_request
            ctypes.c_int64, ctypes.c_int64,            # shard, nshards
            _I64P, _I64P, ctypes.c_int64,              # box addrs/counts/n
            ctypes.c_int64, _I64P,                     # do_reply, reply_box
            _I64P,                                     # out
        ]
        lib.fs_deliver.restype = None
        self.setup = lib.fc_setup
        self.run_cycle = lib.fc_run_cycle
        self.bootstrap = lib.fc_bootstrap
        self.load_state = lib.fc_load_state
        self.store_state = lib.fc_store_state
        self.event_setup = lib.fc_event_setup
        self.heap_push = lib.fc_heap_push
        self.event_run = lib.fc_event_run
        self.shard_request = lib.fs_request_phase
        self.shard_deliver = lib.fs_deliver

    @staticmethod
    def pointer(buffer_address: int) -> "ctypes.POINTER(ctypes.c_int64)":
        """An ``int64*`` for an ``array('q')`` buffer address."""
        return ctypes.cast(buffer_address, _I64P)

    @staticmethod
    def byte_pointer(buffer_address: int) -> "ctypes.POINTER(ctypes.c_ubyte)":
        """An ``unsigned char*`` for a ``bytearray`` buffer address."""
        return ctypes.cast(buffer_address, _U8P)


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    """A private, per-user cache directory for the compiled library.

    Never a world-writable shared location: loading a ``.so`` from a
    predictable path in ``/tmp`` would let another local user pre-plant
    code.  The directory is created ``0700`` and verified to be owned by
    the current user and not group/world-writable; on any doubt a fresh
    ``mkdtemp`` (private by construction) is used instead.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro-fastcore")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
        owner_ok = not hasattr(os, "getuid") or info.st_uid == os.getuid()
        if not owner_ok or info.st_mode & 0o022:
            raise OSError("untrusted cache directory")
        return path
    except OSError:
        return tempfile.mkdtemp(prefix="repro-fastcore-")


def _cache_path() -> str:
    # Hash source AND flags: a flags-only change must not reuse a stale
    # library compiled under different floating-point semantics.
    digest = hashlib.sha256(
        (_SOURCE + repr(_CFLAGS)).encode()
    ).hexdigest()[:16]
    tag = f"repro_fastcore_{digest}_py{sys.version_info[0]}{sys.version_info[1]}"
    return os.path.join(_cache_dir(), f"{tag}.so")


def _build() -> Optional[str]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    target = _cache_path()
    if os.path.exists(target):
        return target
    fd, c_path = tempfile.mkstemp(suffix=".c")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        so_tmp = f"{target}.{os.getpid()}.tmp"
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", so_tmp, c_path, "-lm"],
            capture_output=True,
        )
        if result.returncode != 0:
            return None
        os.replace(so_tmp, target)  # atomic against concurrent builders
        return target
    except OSError:
        return None
    finally:
        try:
            os.unlink(c_path)
        except OSError:
            pass


_cached: Optional[Accelerator] = None
_attempted = False
_private_count = 0


def _load_private() -> Optional[Accelerator]:
    """A fresh accelerator instance with its *own* C globals.

    ``dlopen`` deduplicates by file identity, so loading the cached
    library twice would hand back the same globals.  Copying the ``.so``
    to a unique path first yields an independent instance; the copy is
    unlinked immediately after loading (the mapping stays valid), so
    nothing litters the cache directory.  Each private instance carries
    its own MT19937 state, engine context and scratch buffers -- two
    engines bound to two private instances can therefore run their C hot
    loops *concurrently* from different threads: ctypes releases the GIL
    for the duration of every call.
    """
    global _private_count
    path = _build()
    if path is None:
        return None
    _private_count += 1
    clone = f"{path}.private.{os.getpid()}.{_private_count}"
    try:
        shutil.copy(path, clone)
        try:
            return Accelerator(ctypes.CDLL(clone))
        finally:
            try:
                os.unlink(clone)
            except OSError:
                pass
    except OSError:
        return None


def load_accelerator(private: bool = False) -> Optional[Accelerator]:
    """The process-wide accelerator, or ``None`` when unavailable.

    Compilation is attempted at most once per process; failures (no
    compiler, sandboxed tmp, ...) silently disable acceleration.

    ``private=True`` returns a *new* instance whose C state is not
    shared with the process-wide one (or with any other private
    instance) -- see :func:`_load_private`; callers own its lifetime.
    """
    global _cached, _attempted
    if os.environ.get(DISABLE_ENV_VAR):
        return None
    if private:
        try:
            return _load_private()
        except OSError:
            return None
    if _attempted:
        return _cached
    _attempted = True
    try:
        path = _build()
        if path is not None:
            _cached = Accelerator(ctypes.CDLL(path))
    except OSError:
        _cached = None
    return _cached
