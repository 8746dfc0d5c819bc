/* The shuffle pass of kway's driver, the loops it runs, which are the twins
 * of those in _loops.py, and the check faro apply --verify makes: the
 * CPython extension module _kernel, built and loaded by _fastpath.
 *
 * Items are opaque runs of `itemsize` bytes at buf + i * itemsize, moved with
 * fixed 8-byte copies; itemsize 8 gets its own constant-size copy of each
 * loop. The only temporary array is the walk's held column of at most
 * COLUMN bytes: wider records are walked once per COLUMN-byte column, so
 * extra space stays constant whatever the record size. walk_items walks a
 * whole ladder of cycles, those led by leader * p^s for s < count. Every
 * walk of a k-way pass with k * m <= 2^32 steps j -> k * j mod m, without a
 * division: a forward pass pushes each item on to its target k * j, and an
 * inverse pass pulls each slot's item from its source k * j (see struct
 * step), both by one loop, cycle(). A walk with k^4 * m <= 2^32 computes
 * the next four slots at once, each straight from the current one, so that
 * its loop waits on one step per four items rather than per item. A
 * block's gather makes all k - 1 rotations of its windows, each by
 * conjoined triple reversal, and counts their moves; its cycles move 8-byte
 * items two per cursor, and its last reversal swaps two of them from each
 * end at a time. Every other swap or cycle of items, in a gather or a
 * pushing walk, hands their bytes round a word at a time through registers
 * by one helper, turn(), so the column stays the walk's only temporary
 * array.
 *
 * One shuffle call makes a whole forward or inverse pass of kway's driver:
 * it tiles the range greedily by the rungs of an arity's table, gathers and
 * walks each block, sweeps the tail, and returns the counts its Python
 * twin, _loops._pure_pass, keeps. It is the only entry that moves items.
 * ladder builds an arity's table from its bases, which kway asks for once
 * per arity; agree is the check, and step gives the tests the steps of a
 * pass's walks at moduli no pass in a test reaches.
 *
 * shuffle takes an exact list, over its PyObject * slots, or any memory
 * get_items takes, and refuses any other with Refused before an item
 * moves. It checks every range and rung against it before a loop runs, so
 * that a table from ladder is checked like any other; ladder checks its
 * arguments before it allocates the table, and agree leaves its checks to
 * _fastpath.agree.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#define COLUMN 256

/* a * b mod m without overflow, for 0 <= a, b < m < 2^63; the division is
 * 64-bit whenever the product fits, which is every m below 2^32 */
static inline int64_t mulmod(int64_t a, int64_t b, int64_t m)
{
    unsigned __int128 p = (unsigned __int128)a * (uint64_t)b;
    return (int64_t)(p >> 64 ? p % (uint64_t)m : (uint64_t)p % (uint64_t)m);
}

/* a^-1 mod m by extended Euclid, for 0 <= a < m; 0 when gcd(a, m) != 1 */
static int64_t invert(int64_t a, int64_t m)
{
    int64_t r0 = m, r1 = a, t0 = 0, t1 = 1;
    while (r1) {
        int64_t q = r0 / r1, r = r0 - q * r1, t = t0 - q * t1;
        r0 = r1, r1 = r, t0 = t1, t1 = t;
    }
    return r0 != 1 ? 0 : t0 < 0 ? t0 + m : t0;
}

/* How a walk of a k-way pass, 2 <= k <= 9, steps from slot j to slot
 * f * j mod m, chosen once per walk so that no step the shuffles take
 * divides. cycle() walks either way: pushing, it moves each item on to its
 * target f * j; pulling, it fills each slot from its source f * j.
 *   TIMES   k * m <= 2^32: f = k, forward pushing and inverse pulling, by
 *           Lemire's fastmod, exact below 2^32, with recip =
 *           floor((2^64 - 1) / m) + 1 and rf[0] = recip * f mod 2^64, so
 *           that a step is two multiplications;
 *   MULMOD  k * m > 2^32, a block of more than 2^32 / k items: pushing,
 *           mulmod(j, f, m) with f = k forward and f = k^-1 inverse.
 * A TIMES walk with k^4 * m <= 2^32 (m <= 2^28 at k = 2, 654,620 at k = 9)
 * looks AHEAD slots ahead: rf[s - 1] = recip * f^s mod 2^64 gives
 * f^s * j mod m by one fastmod, exact since f^s * j < f^4 * m, so the four
 * slots after j are computed independently of each other and the walk goes
 * on from the fourth. Every other walk takes its slots one step at a time.
 */
enum { TIMES, MULMOD };
enum { AHEAD = 4 };

struct step {
    int kind, push, ahead;
    uint64_t f, m, rf[AHEAD];
};

/* 1 after filling st for the walks mod m of a k-way pass, the inverse pass
 * when `inverse`, for 2 <= k <= 9 and k < m; 0 when k is no unit mod m */
static int plan(struct step *st, int64_t k, int inverse, int64_t m)
{
    int64_t inv = invert(k, m);
    if (!inv)
        return 0;
    st->kind = m <= (INT64_C(1) << 32) / k ? TIMES : MULMOD;
    st->push = !inverse || st->kind == MULMOD;
    st->f = inverse && st->push ? inv : k;
    st->m = m;
    /* a TIMES step has k <= 9 and m < 2^32, so k^4 * m cannot overflow */
    st->ahead = st->kind == TIMES && k * k * k * k * m <= INT64_C(1) << 32 ? AHEAD : 1;
    uint64_t rf = UINT64_MAX / (uint64_t)m + 1;
    for (int s = 0; s < AHEAD; s++)
        st->rf[s] = rf *= st->f;
    return 1;
}

/* f^s * j mod m by the step `kind`, for 1 <= s <= st->ahead; ladder()
 * passes the kind as a constant, so each kind compiles to its own loop */
static inline __attribute__((always_inline)) int64_t next(const struct step *st, int kind, int64_t j, int s)
{
    if (kind == TIMES)
        return ((unsigned __int128)(st->rf[s - 1] * (uint64_t)j) * st->m) >> 64;
    return mulmod(j, st->f, st->m);
}

/* Hand the n bytes of each of r <= 4 runs round a cycle, a word at a time,
 * through registers: run[0] takes run[1]'s bytes, run[1] takes run[2]'s and
 * so on, and run[r - 1] takes run[0]'s, so r = 2 swaps two runs. Every
 * caller passes r as a constant, so each call unrolls to a loop of its own. */
static inline __attribute__((always_inline)) void turn(char *const run[], int r, size_t n)
{
    size_t o = 0;
    for (; o + 8 <= n; o += 8) {
        uint64_t w[4];
#pragma GCC unroll 4
        for (int i = 0; i < r; i++)
            memcpy(&w[i], run[i] + o, 8);
#pragma GCC unroll 4
        for (int i = 0; i < r; i++)
            memcpy(run[i] + o, &w[i + 1 < r ? i + 1 : 0], 8);
    }
    for (; o < n; o++) {
        char c[4];
#pragma GCC unroll 4
        for (int i = 0; i < r; i++)
            c[i] = run[i][o];
#pragma GCC unroll 4
        for (int i = 0; i < r; i++)
            run[i][o] = c[i + 1 < r ? i + 1 : 0];
    }
}

/* swap ends inward over items [lo, hi) */
static inline void reverse(char *buf, size_t size, int64_t lo, int64_t hi)
{
    for (hi -= 1; lo < hi; lo++, hi--)
        turn((char *[]){buf + lo * size, buf + hi * size}, 2, size);
}

/* two 8-byte items, loaded and stored together; flip() swaps them */
struct pair {
    uint64_t w[2];
};

static inline struct pair get2(const char *p)
{
    struct pair x;
    memcpy(&x, p, 16);
    return x;
}

static inline void put2(char *p, struct pair x) { memcpy(p, &x, 16); }

static inline struct pair flip(struct pair x) { return (struct pair){{x.w[1], x.w[0]}}; }

/* reverse() for 8-byte items, two from each end at a time: the 16 bytes at
 * each end swap places, each pair reversed on the way; reverse() takes the
 * 0 to 3 items left in the middle */
static void reverse8(char *buf, int64_t lo, int64_t hi)
{
    for (; hi - lo >= 4; lo += 2, hi -= 2) {
        char *x = buf + lo * 8, *y = buf + (hi - 2) * 8;
        struct pair a = get2(x), b = get2(y);
        put2(x, flip(b));
        put2(y, flip(a));
    }
    reverse(buf, 8, lo, hi);
}

/* Rotate the w items at lo right by d, for 0 <= d <= w, by conjoined triple
 * reversal (Igor van den Hoven, https://github.com/scandum/rotate): the
 * reversals of the left side A, its first w - d items, of the right side B
 * and then of all w, made in one sweep. Cursors a and b walk A inward from
 * its ends, c and e walk B inward; each step hands the items round a cycle
 * of cursors, with no temporary beyond registers:
 *   1. s / 2 steps, s the shorter side: b takes a's item, a takes c's, c
 *      takes e's and e takes b's;
 *   2. over the rest of the longer side, a 3-cycle: with B longer, c takes
 *      e's item, e takes a's and a takes c's; with A longer, b takes a's, a
 *      takes e's and e takes b's;
 *   3. what is left between a and e is reversed by swaps.
 * Equal sides are a block swap. With `pairs` (8-byte items) each cursor
 * moves two items at a time, as reverse8 does. The steps of a phase touch
 * disjoint slots, save in phase 2, where a trails c, or e trails b, by s
 * items, so it pairs only for s >= 2. Items of any other size go round the
 * cycles a word at a time (turn). Returns the moves: 4 per step of
 * the first phase, 3 per step of the second and 2 per swap of the third,
 * s/2 + 3 (g/2) + 2 ((s + g % 2) / 2) with g the longer side; 2 per item of
 * either side when they are equal, and none at d = 0 or w. */
static inline __attribute__((always_inline)) int64_t conjoined(char *buf, size_t size, int pairs, int64_t lo,
                                                               int64_t w, int64_t d)
{
    int64_t left = w - d, s = d < left ? d : left, g = w - s;
    int64_t a = lo, b = lo + left, c = lo + left, e = lo + w, n = s / 2;
#define AT(i) (buf + (i) * size)
    if (s == 0 || s == g) {
        turn((char *[]){AT(a), AT(c)}, 2, s * size);
        return 2 * s;
    }
    if (pairs)
        for (; n >= 2; n -= 2, a += 2, c += 2) {
            b -= 2, e -= 2;
            struct pair x = get2(AT(a)), y = get2(AT(b)), z = get2(AT(c)), u = get2(AT(e));
            put2(AT(b), flip(x));
            put2(AT(a), z);
            put2(AT(c), flip(u));
            put2(AT(e), y);
        }
    for (; n > 0; n--, a++, c++)
        turn((char *[]){AT(--b), AT(a), AT(c), AT(--e)}, 4, size);
    if (left < d) {
        if (pairs && s >= 2)
            for (; e - c >= 4; a += 2, c += 2) {
                e -= 2;
                struct pair x = get2(AT(a)), z = get2(AT(c)), u = get2(AT(e));
                put2(AT(c), flip(u));
                put2(AT(e), flip(x));
                put2(AT(a), z);
            }
        for (; e - c >= 2; a++, c++)
            turn((char *[]){AT(c), AT(--e), AT(a)}, 3, size);
    } else {
        if (pairs && s >= 2)
            for (; b - a >= 4; a += 2) {
                b -= 2, e -= 2;
                struct pair x = get2(AT(a)), y = get2(AT(b)), u = get2(AT(e));
                put2(AT(b), flip(x));
                put2(AT(a), flip(u));
                put2(AT(e), y);
            }
        for (; b - a >= 2; a++)
            turn((char *[]){AT(--b), AT(a), AT(--e)}, 3, size);
    }
#undef AT
    if (pairs)
        reverse8(buf, a, e);
    else
        reverse(buf, size, a, e);
    return s / 2 + 3 * (g / 2) + 2 * ((s + g % 2) / 2);
}

static int64_t rotate_items(char *buf, size_t itemsize, int64_t lo, int64_t w, int64_t d)
{
    if (itemsize == 8)
        return conjoined(buf, 8, 1, lo, w, d);
    return conjoined(buf, itemsize, 0, lo, w, d);
}

/* The gather of the block at offset, whose k parts of `part` items each
 * begin at offset + t * part, and its inverse, the scatter; returns the
 * moves made. The gather rotates [offset + t * b, offset + t * part + b)
 * right by b for t = 1..k-1: after rotation t the first b items of parts
 * 0..t sit together at offset, and the rests of the parts follow in part
 * order. The scatter undoes it: the same windows for t = k-1..1, each
 * rotated right by its width less b, t * (part - b). */
static int64_t gather_items(char *buf, size_t itemsize, int64_t offset, int64_t part, int64_t b, int64_t k,
                            int inverse)
{
    int64_t moves = 0;
    for (int64_t i = 1; i < k; i++) {
        int64_t t = inverse ? k - i : i, rest = t * (part - b);
        moves += rotate_items(buf, itemsize, offset + t * b, rest + b, inverse ? rest : b);
    }
    return moves;
}

/* copy n bytes a word at a time, through registers */
static inline void copy_bytes(char *a, const char *b, size_t n)
{
    uint64_t x;
    for (; n >= 8; n -= 8, a += 8, b += 8) {
        memcpy(&x, b, 8);
        memcpy(a, &x, 8);
    }
    for (; n > 0; n--)
        *a++ = *b++;
}

/* Realize the cycle of item base + leader under the pass's map, j -> k * j
 * mod m forward and j -> k^-1 * j inverse. Hold the leader's column, then
 * visit the slots j = f * j in turn (see struct step) until the walk returns
 * to the leader. Pushing (pulls = 0), it exchanges the held column with each
 * slot's (turn), and `slot` stays the leader's. Pulling (pulls = 1), it
 * fills `slot` from its source f * j (one load and one store) and moves on
 * to that source. Either way the held column then goes into `slot`, which
 * when pulling is the slot whose source is the leader. Each round takes
 * the `ahead` slots after j, each computed from j, and stops at the first
 * that is the leader. */
static inline __attribute__((always_inline)) void cycle(char *buf, size_t size, size_t width, int64_t base,
                                                        int64_t leader, const struct step *st, int kind,
                                                        int ahead, int pulls)
{
    struct step k = *st; /* a copy no store into buf can alias */
    char t[COLUMN];
    char *slot = buf + (base + leader) * size;
    copy_bytes(t, slot, width);
    for (int64_t j = leader;;) {
        int64_t visit[AHEAD];
#pragma GCC unroll 4
        for (int s = 0; s < ahead; s++)
            visit[s] = next(&k, kind, j, s + 1);
#pragma GCC unroll 4
        for (int s = 0; s < ahead; s++) {
            if (visit[s] == leader)
                goto closed;
            char *at = buf + (base + visit[s]) * size;
            if (pulls) {
                copy_bytes(slot, at, width);
                slot = at;
            } else
                turn((char *[]){t, at}, 2, width);
        }
        j = visit[ahead - 1];
    }
closed:
    copy_bytes(slot, t, width);
}

/* cycle() under the step st; pulls is 0 to push and 1 to pull */
#define CYCLE(pulls, kind, ahead) cycle(buf, size, width, base, leader, st, kind, ahead, pulls)

/* Walk the cycles led by leader * p^s for s < count, passing cycle() the
 * step's kind, look-ahead and direction as constants: one loop per kind,
 * look-ahead and direction. */
static inline __attribute__((always_inline)) void ladder(char *buf, size_t size, size_t width, int64_t base,
                                                         int64_t leader, int64_t p, int64_t count,
                                                         const struct step *st)
{
    for (; count > 0; count--) {
        if (st->kind == MULMOD)
            CYCLE(0, MULMOD, 1); /* plan() pulls only by fast steps */
        else if (st->push && st->ahead == AHEAD)
            CYCLE(0, TIMES, AHEAD);
        else if (st->push)
            CYCLE(0, TIMES, 1);
        else if (st->ahead == AHEAD)
            CYCLE(1, TIMES, AHEAD);
        else
            CYCLE(1, TIMES, 1);
        /* wraps only past the last rung, where it goes unused */
        leader = (int64_t)((uint64_t)leader * (uint64_t)p);
    }
}
#undef CYCLE

/* the ladder under the step st, one COLUMN-byte column of the items at a
 * time */
static void walk_items(char *buf, size_t itemsize, int64_t base, int64_t leader, int64_t p, int64_t count,
                       const struct step *st)
{
    if (itemsize == 8)
        ladder(buf, 8, 8, base, leader, p, count, st);
    else
        for (size_t off = 0; off < itemsize; off += COLUMN)
            ladder(buf + off, itemsize, itemsize - off < COLUMN ? itemsize - off : COLUMN, base, leader, p,
                   count, st);
}

/* 1 iff item i of chunk equals item base + ((j0 + i) * mult mod modulus)
 * of res for every i in 0..count-1: chunk holds items j0 .. j0 + count - 1
 * of a buffer read in order, and res is that buffer moved by the target map
 * j -> j * mult. Reads only; _fastpath checks that mult < modulus is a unit,
 * that 1 <= j0 <= j0 + count <= modulus, and that chunk holds count items
 * and res items base + 1 .. base + modulus - 1. */
static int agree_items(const char *chunk, const char *res, size_t itemsize, int64_t base, int64_t mult,
                       int64_t modulus, int64_t j0, int64_t count)
{
    int64_t t = mulmod(j0, mult, modulus);
    for (int64_t i = 0; i < count; i++) {
        if (memcmp(chunk + i * itemsize, res + (base + t) * itemsize, itemsize))
            return 0;
        t += mult;
        if (t >= modulus)
            t -= modulus;
    }
    return 1;
}

/* 1 iff leader * p^s lies in (0, m) for every s < count, computed without
 * overflow. Past 64 rungs a ladder has left (0, m), since p >= 2 at least
 * doubles the leader and m < 2^63, or stands still at p = 1, and p <= 0
 * leaves at once; so 64 rungs are checked at most. */
static int ladder_fits(int64_t leader, int64_t p, int64_t count, int64_t m)
{
    for (int64_t s = 0; s < count && s < 64; s++) {
        if (!(0 < leader && leader < m))
            return 0;
        if (s + 1 < count && __builtin_mul_overflow(leader, p, &leader))
            return 0;
    }
    return count >= 0;
}

/* The shuffle pass. kway._table(k) spells k's block ladder as rows of ROW
 * int64s, one per rung, largest modulus first: the modulus m, p, j, the
 * number d <= REPS of p's coset representatives, and the representatives,
 * padded to REPS. The pass tiles [lo, hi) greedily by these rungs, as
 * _loops._blocks does, and makes each block's gather, or scatter, and walks
 * as _loops._pure_pass does, counting what it counts. */
enum { ROW = 12, REPS = 8 };
enum { ROTATE, WALK, TAIL, BLOCKS, CYCLES };

struct pass {
    char *buf;
    size_t size;
    const int64_t *table;
    Py_ssize_t rows;
    int64_t lo, hi, k;
    int inverse;
    int64_t counts[5]; /* indexed by ROTATE .. CYCLES */
};

/* The run of the tiling that begins at offset: *row is its rung, or rows
 * for the tail, and *m its modulus (the tail's length + 1); returns its
 * number of blocks, 0 for a rung of modulus below 2. The rung is the first
 * row whose block of m - 1 items fits what is left, found by bisection. */
static int64_t run(const struct pass *ps, int64_t offset, Py_ssize_t *row, int64_t *m)
{
    int64_t left = ps->hi - offset;
    Py_ssize_t lo = 0, hi = ps->rows;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (ps->table[mid * ROW] <= left + 1)
            hi = mid;
        else
            lo = mid + 1;
    }
    *row = lo;
    *m = lo == ps->rows ? left + 1 : ps->table[lo * ROW];
    return lo == ps->rows ? 1 : *m >= 2 ? left / (*m - 1) : 0;
}

/* The first leader of one ladder of the rung r, for a coset representative
 * c: c, or in a twin block (even m) the odd one of c and c + p; with even,
 * 2c. -1 when that overflows. */
static int64_t leader(const int64_t *r, int64_t c, int even)
{
    int64_t x;
    if (even)
        return __builtin_mul_overflow(c, 2, &x) ? -1 : x;
    if (r[0] % 2 == 0 && c % 2 == 0)
        return __builtin_add_overflow(c, r[1], &x) ? -1 : x;
    return c;
}

/* the cycle passes of the block of rung r at offset under the step st, one
 * walk_items call per ladder (see _loops._general_cycle_passes) */
static void place(struct pass *ps, const int64_t *r, int64_t offset, const struct step *st)
{
    int twin = r[0] % 2 == 0;
    for (int64_t i = 0; i < r[3]; i++)
        for (int even = 0; even <= twin; even++)
            walk_items(ps->buf, ps->size, offset - 1, leader(r, r[4 + i], even), r[1], r[2], st);
    int64_t cycles = r[3] * (1 + twin) * r[2];
    ps->counts[CYCLES] += cycles;
    ps->counts[WALK] += r[0] - 1 - twin + cycles;
}

/* The tail of m - 1 items at offset under the step st: each cycle is walked
 * from its least position, found by probing the whole orbit of every
 * position (see _loops._bounded_cycle_shuffle) */
static void sweep(struct pass *ps, int64_t offset, int64_t m, const struct step *st)
{
    for (int64_t lead = 1; lead < m; lead++) {
        int64_t probe = next(st, st->kind, lead, 1), steps = 1;
        if (probe == lead)
            continue;
        for (; probe > lead; steps++)
            probe = next(st, st->kind, probe, 1);
        if (probe != lead)
            continue;
        walk_items(ps->buf, ps->size, offset - 1, lead, 1, 1, st);
        ps->counts[TAIL] += steps + 1;
        ps->counts[CYCLES]++;
    }
}

/* the run of count blocks of rung `row` at offset, or the tail, in the
 * pass's direction: forward each block is gathered, then placed; inverse,
 * right to left, each is placed, then scattered */
static void run_blocks(struct pass *ps, Py_ssize_t row, int64_t offset, int64_t m, int64_t count)
{
    struct step st;
    plan(&st, ps->k, ps->inverse, m);
    ps->counts[BLOCKS] += count;
    if (row == ps->rows) {
        sweep(ps, offset, m, &st);
        return;
    }
    const int64_t *r = ps->table + row * ROW;
    for (int64_t i = 0; i < count; i++) {
        int64_t at = offset + (ps->inverse ? count - 1 - i : i) * (m - 1);
        int64_t part = (ps->hi - at) / ps->k, b = (m - 1) / ps->k;
        if (!ps->inverse)
            ps->counts[ROTATE] += gather_items(ps->buf, ps->size, at, part, b, ps->k, 0);
        place(ps, r, at, &st);
        if (ps->inverse)
            ps->counts[ROTATE] += gather_items(ps->buf, ps->size, at, part, b, ps->k, 1);
    }
}

/* The pass, its runs left to right, or inverse right to left: each found by
 * scanning the tiling from lo for the run that ends where the one after it
 * starts, as _loops._blocks does, so that the state stays constant. */
static void shuffle_items(struct pass *ps)
{
    Py_ssize_t row;
    int64_t m, count;
    if (!ps->inverse) {
        for (int64_t offset = ps->lo; offset < ps->hi; offset += count * (m - 1)) {
            count = run(ps, offset, &row, &m);
            run_blocks(ps, row, offset, m, count);
        }
        return;
    }
    for (int64_t done = ps->hi, offset; done > ps->lo; done = offset) {
        for (offset = ps->lo;; offset += count * (m - 1)) {
            count = run(ps, offset, &row, &m);
            if (offset + count * (m - 1) == done)
                break;
        }
        run_blocks(ps, row, offset, m, count);
    }
}

/* The ladder of kway._table(k), built from k's bases as kway._BASES holds
 * them: a tuple of at most BASES (p, reps) pairs, reps a tuple of p's 1 to
 * REPS coset representatives, so that a ladder holds at most BASES * 126
 * rows (774 KB). */
enum { BASES = 64 };

/* x mod k for x < 2^32, by Lemire's fastmod with mk = floor((2^64 - 1) / k)
 * + 1, as struct step's */
static inline unsigned mod_k(uint64_t x, uint64_t mk, int64_t k)
{
    return ((unsigned __int128)(mk * x) * (uint64_t)k) >> 64;
}

/* One rung of modulus m and exponent j: counted in at[b], b the bit length
 * of m less one, or with out not NULL written to out as `row` with its
 * modulus and j, at row at[b]++ */
static inline void rung(int64_t m, int64_t j, Py_ssize_t at[64], char *out, int64_t row[ROW])
{
    Py_ssize_t *next = &at[63 - __builtin_clzll(m)];
    if (out) {
        row[0] = m, row[2] = j;
        memcpy(out + *next * ROW * 8, row, ROW * 8);
    }
    ++*next;
}

/* Each rung of base p >= 3 (see rung): its moduli below 2^63, p^j and for
 * odd k 2p^j, whose blocks split into k parts, smallest first, climbed by
 * multiplications alone, with r = p^j mod k */
static void rungs(int64_t k, int64_t p, Py_ssize_t at[64], char *out, int64_t row[ROW])
{
    uint64_t mk = UINT64_MAX / (uint64_t)k + 1;
    unsigned pk = p % k, r = pk;
    for (int64_t power = p, j = 1;; j++) {
        if (r == 1)
            rung(power, j, at, out, row);
        if (k % 2 && power <= INT64_MAX / 2 && mod_k(2 * r, mk, k) == 1)
            rung(2 * power, j, at, out, row);
        if (__builtin_mul_overflow(power, p, &power))
            return;
        r = mod_k(r * pk, mk, k);
    }
}

/* item i of the tuple t, an int64 by the time bases_fit has checked it */
static int64_t int64_at(PyObject *t, Py_ssize_t i) { return PyLong_AsLongLong(PyTuple_GET_ITEM(t, i)); }

/* 1 iff obj is an int that fits an int64, read into *v; 0 with TypeError or
 * OverflowError set. No __index__ is called, so reading it again later
 * runs no Python code and gives the same value. */
static int int64_of(PyObject *obj, int64_t *v)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %s", Py_TYPE(obj)->tp_name);
        return 0;
    }
    *v = PyLong_AsLongLong(obj);
    return !(*v == -1 && PyErr_Occurred());
}

/* 1 iff bases can make a k-way ladder: 2 <= k <= 9, and bases a tuple of at
 * most BASES pairs (p, reps) of an int p >= 3 and a tuple of 1 to REPS
 * int64s; 0 with TypeError, ValueError or OverflowError set */
static int bases_fit(int64_t k, PyObject *bases)
{
    if (!(2 <= k && k <= 9)) {
        PyErr_Format(PyExc_ValueError, "no %lld-way ladder: k is 2..9", (long long)k);
        return 0;
    }
    if (!PyTuple_CheckExact(bases)) {
        PyErr_Format(PyExc_TypeError, "bases must be a tuple, not %s", Py_TYPE(bases)->tp_name);
        return 0;
    }
    if (PyTuple_GET_SIZE(bases) > BASES) {
        PyErr_Format(PyExc_ValueError, "%zd bases, more than the %d a ladder takes", PyTuple_GET_SIZE(bases), BASES);
        return 0;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(bases); i++) {
        PyObject *base = PyTuple_GET_ITEM(bases, i), *reps;
        int64_t v;
        if (!PyTuple_CheckExact(base) || PyTuple_GET_SIZE(base) != 2 ||
            !PyTuple_CheckExact(reps = PyTuple_GET_ITEM(base, 1))) {
            PyErr_Format(PyExc_TypeError, "base %zd is no (p, reps) pair of an int and a tuple", i);
            return 0;
        }
        if (!int64_of(PyTuple_GET_ITEM(base, 0), &v))
            return 0;
        if (v < 3 || !(1 <= PyTuple_GET_SIZE(reps) && PyTuple_GET_SIZE(reps) <= REPS)) {
            PyErr_Format(PyExc_ValueError, "no base %lld with %zd cosets: p is at least 3, with 1 to %d", (long long)v,
                         PyTuple_GET_SIZE(reps), REPS);
            return 0;
        }
        for (Py_ssize_t r = 0; r < PyTuple_GET_SIZE(reps); r++)
            if (!int64_of(PyTuple_GET_ITEM(reps, r), &v))
                return 0;
    }
    return 1;
}

/* The number of rows of the ladder, with at[b] set to the first row of its
 * rungs in [2^b, 2^(b+1)): the rows take the rungs of each such range in
 * turn, the highest first. */
static Py_ssize_t count_ladder(int64_t k, PyObject *bases, Py_ssize_t at[64])
{
    Py_ssize_t rows = 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(bases); i++)
        rungs(k, int64_at(PyTuple_GET_ITEM(bases, i), 0), at, NULL, NULL);
    for (int b = 64; b-- > 0;) {
        Py_ssize_t n = at[b];
        at[b] = rows, rows += n;
    }
    return rows;
}

/* The ladder's rows written to out, as count_ladder placed them in `at`.
 * Taken base by base, the last base first, each rung goes to the next free
 * row of its range [2^b, 2^(b+1)), so that only rungs of one range, at most
 * two a base, can be out of order. One insertion sort then puts those in
 * order, rungs of equal moduli, which only bases that are powers of one
 * number share, the later base first. */
static void build_ladder(int64_t k, PyObject *bases, Py_ssize_t at[64], Py_ssize_t rows, char *out)
{
    enum { RB = ROW * 8 }; /* the bytes of a row */
    for (Py_ssize_t i = PyTuple_GET_SIZE(bases); i-- > 0;) {
        PyObject *base = PyTuple_GET_ITEM(bases, i), *reps = PyTuple_GET_ITEM(base, 1);
        int64_t row[ROW] = {0, int64_at(base, 0), 0, PyTuple_GET_SIZE(reps)};
        for (Py_ssize_t r = 0; r < row[3]; r++)
            row[4 + r] = int64_at(reps, r);
        rungs(k, row[1], at, out, row);
    }
    for (Py_ssize_t i = 1; i < rows; i++) {
        int64_t row[ROW], m;
        Py_ssize_t to = i;
        memcpy(row, out + i * RB, RB);
        while (to > 0 && (memcpy(&m, out + (to - 1) * RB, 8), m < row[0]))
            to--;
        if (to < i) {
            memmove(out + (to + 1) * RB, out + to * RB, (i - to) * RB);
            memcpy(out + to * RB, row, RB);
        }
    }
}

/* The module's entries, METH_FASTCALL functions. Every integer must fit an
 * int64: one beyond it raises OverflowError rather than wrapping into range.
 * shuffle takes an exact list or a buffer (see get_items) and checks every
 * range and rung before its loop runs. */

/* 1 iff lo <= nargs <= hi; 0 with TypeError set */
static int nargs_in(const char *name, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (lo <= nargs && nargs <= hi)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd arguments (%zd given)", name, lo, hi, nargs);
    return 0;
}

/* 1 after reading the n integers at args into v; 0 with OverflowError or
 * TypeError set unless each is an int64 */
static int int64s(PyObject *const *args, Py_ssize_t n, int64_t *v)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        long long x = PyLong_AsLongLong(args[i]);
        if (x == -1 && PyErr_Occurred())
            return 0;
        v[i] = x;
    }
    return 1;
}

/* The n items an entry moves, of size bytes each at buf. A list's are its
 * PyObject * slots, whose permutation leaves every refcount as it was; its
 * loops hold the GIL, so no other thread runs during a call, and its size is
 * read anew on every call, since another thread may resize it between two
 * calls. A buffer's are its memory, held in view until put_items(): its loops
 * run without the GIL, and the held view stops a bytearray from being
 * resized meanwhile. */
struct items {
    Py_buffer view; /* view.obj is NULL for a list */
    char *buf;
    size_t size;
    Py_ssize_t n;
};

/* 1 iff the struct format fmt has an item that is a Python object ('O'),
 * the field names of a structure, each spelled between colons, aside */
static int holds_objects(const char *fmt)
{
    int name = 0;
    for (; *fmt; fmt++)
        if (*fmt == ':')
            name = !name;
        else if (*fmt == 'O' && !name)
            return 1;
    return 0;
}

/* the BufferError subclass of get_items' refusals: an entry's only error
 * that is not in its arguments */
static PyObject *Refused;

/* 1 after filling it from obj: an exact list, when size is 0, or memory
 * that is writable, C-contiguous and 1-D, read as items of size bytes, or of
 * its own itemsize when size is 0; 0 with an exception set, Refused for any
 * other buffer. Memory whose format holds Python objects is refused, since
 * its loops would move references without the GIL. Memory whose exporter
 * cannot spell its format (numpy raises ValueError for datetime64 and
 * timedelta64) is taken without one, so a structured dtype that mixes a
 * datetime field with an object field passes here: only _fastpath.shuffle's
 * hasobject sort keeps such an ndarray away. */
static int get_items(struct items *it, PyObject *obj, int64_t size)
{
    if (PyList_CheckExact(obj) && !size) {
        it->view.obj = NULL;
        it->buf = (char *)((PyListObject *)obj)->ob_item;
        it->size = sizeof(PyObject *);
        it->n = PyList_GET_SIZE(obj);
        return 1;
    }
    if (size < 0) {
        PyErr_Format(PyExc_ValueError, "items of %lld bytes", (long long)size);
        return 0;
    }
    if (PyObject_GetBuffer(obj, &it->view, PyBUF_WRITABLE | PyBUF_ND | PyBUF_FORMAT) < 0) {
        /* the same request without the format: when that succeeds, the
         * format was all the exporter refused */
        PyErr_Clear();
        if (PyObject_GetBuffer(obj, &it->view, PyBUF_WRITABLE | PyBUF_ND) < 0) {
            PyErr_Clear();
            PyErr_Format(Refused, "%s lends no writable C-contiguous memory", Py_TYPE(obj)->tp_name);
            return 0;
        }
    }
    if (it->view.format && holds_objects(it->view.format)) {
        PyErr_Format(Refused, "memory of format '%s' holds Python objects", it->view.format);
        PyBuffer_Release(&it->view);
        return 0;
    }
    Py_ssize_t bytes = size ? size : it->view.itemsize;
    if (it->view.ndim != 1 || bytes < 1) {
        PyErr_Format(Refused, "expected 1-D memory of items of at least one byte, got %d-D", it->view.ndim);
        PyBuffer_Release(&it->view);
        return 0;
    }
    it->buf = it->view.buf;
    it->size = bytes;
    it->n = it->view.len / bytes;
    return 1;
}

static void put_items(struct items *it)
{
    if (it->view.obj)
        PyBuffer_Release(&it->view);
}

/* 1 iff the rung r can serve the pass: its block of m - 1 items splits
 * into k whole parts, its step is a unit mod m, and each of its 1 to REPS
 * ladders of j >= 1 leaders, leader * p^s with p >= 2, stays in 1..m-1; 0
 * with ValueError set. With every bound of a window or a walk inside the
 * block, which lies inside [lo, hi), no item outside it moves. */
static int rung_fits(const struct pass *ps, const int64_t *r, struct step *st)
{
    int64_t m = r[0], p = r[1], j = r[2], d = r[3];
    if (!(m >= 2 && (m - 1) % ps->k == 0 && p >= 2 && j >= 1 && 1 <= d && d <= REPS &&
          plan(st, ps->k, ps->inverse, m))) {
        PyErr_Format(PyExc_ValueError, "no %lld-way block mod %lld of base %lld^%lld with %lld cosets",
                     (long long)ps->k, (long long)m, (long long)p, (long long)j, (long long)d);
        return 0;
    }
    for (int64_t i = 0; i < d; i++)
        for (int even = 0; even <= (m % 2 == 0); even++)
            if (!ladder_fits(leader(r, r[4 + i], even), p, j, m)) {
                PyErr_Format(PyExc_ValueError, "ladder of %lld leaders %lld * %lld^s leaves 1..%lld",
                             (long long)j, (long long)leader(r, r[4 + i], even), (long long)p,
                             (long long)m - 1);
                return 0;
            }
    return 1;
}

/* 1 iff the pass may run over the n items of its buffer: 0 <= lo <= hi <=
 * n, 2 <= k <= 9, k divides hi - lo, and every rung its tiling takes fits
 * (the tail's step is always a unit, since k divides its length); 0 with
 * IndexError or ValueError set */
static int pass_fits(const struct pass *ps, Py_ssize_t n)
{
    if (!(0 <= ps->lo && ps->lo <= ps->hi && ps->hi <= n)) {
        PyErr_Format(PyExc_IndexError, "shuffle of [%lld, %lld) leaves %zd items", (long long)ps->lo,
                     (long long)ps->hi, n);
        return 0;
    }
    if (!(2 <= ps->k && ps->k <= 9 && (ps->hi - ps->lo) % ps->k == 0)) {
        PyErr_Format(PyExc_ValueError, "no %lld-way shuffle of %lld items", (long long)ps->k,
                     (long long)(ps->hi - ps->lo));
        return 0;
    }
    Py_ssize_t row;
    int64_t m, count;
    struct step st;
    for (int64_t offset = ps->lo; offset < ps->hi; offset += count * (m - 1)) {
        count = run(ps, offset, &row, &m);
        if (row < ps->rows && !rung_fits(ps, ps->table + row * ROW, &st))
            return 0;
    }
    return 1;
}

/* 1 after taking a view of obj as the table of a pass: 1-D memory of
 * int64s, ROW to a rung; 0 with an exception set */
static int get_table(Py_buffer *view, PyObject *obj)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_ND | PyBUF_FORMAT) < 0)
        return 0;
    const char *f = view->format;
    if (view->ndim == 1 && view->itemsize == 8 && (!strcmp(f, "q") || !strcmp(f, "l")) &&
        view->len % (ROW * 8) == 0)
        return 1;
    PyErr_Format(PyExc_ValueError, "table of %zd bytes of format '%s' is no rows of %d int64s", view->len, f,
                 ROW);
    PyBuffer_Release(view);
    return 0;
}

/* shuffle(buf, lo, hi, k, inverse, table[, itemsize]): the k-way shuffle
 * of items [lo, hi), or with inverse true its inverse, in one pass over
 * the blocks of the table's rungs (see shuffle_items); returns its counts,
 * (rotate moves, walk moves, tail moves, blocks, cycles) */
static PyObject *py_shuffle(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[5] = {0, 0, 0, 0, 0}; /* lo, hi, k, inverse, itemsize */
    Py_buffer table;
    struct items it;
    if (!nargs_in("shuffle", nargs, 6, 7) || !int64s(args + 1, 4, a) || !int64s(args + 6, nargs - 6, a + 4) ||
        !get_table(&table, args[5]))
        return NULL;
    if (!get_items(&it, args[0], a[4])) {
        PyBuffer_Release(&table);
        return NULL;
    }
    struct pass ps = {it.buf, it.size, table.buf, table.len / (ROW * 8), a[0], a[1], a[2], a[3] != 0, {0}};
    PyObject *counts = NULL;
    if (pass_fits(&ps, it.n)) {
        PyThreadState *unlocked = it.view.obj ? PyEval_SaveThread() : NULL;
        shuffle_items(&ps);
        if (unlocked)
            PyEval_RestoreThread(unlocked);
        int64_t *c = ps.counts;
        counts = Py_BuildValue("(LLLLL)", (long long)c[ROTATE], (long long)c[WALK], (long long)c[TAIL],
                               (long long)c[BLOCKS], (long long)c[CYCLES]);
    }
    put_items(&it);
    PyBuffer_Release(&table);
    return counts;
}

/* agree(chunk, result, itemsize, base, mult, modulus, j0, count): see
 * agree_items; _fastpath.agree checks the arguments */
static PyObject *py_agree(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[6]; /* itemsize, base, mult, modulus, j0, count */
    Py_buffer chunk, res;
    if (!nargs_in("agree", nargs, 8, 8) || !int64s(args + 2, 6, a))
        return NULL;
    if (PyObject_GetBuffer(args[0], &chunk, PyBUF_SIMPLE) < 0)
        return NULL;
    if (PyObject_GetBuffer(args[1], &res, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&chunk);
        return NULL;
    }
    int same;
    Py_BEGIN_ALLOW_THREADS
    same = agree_items(chunk.buf, res.buf, a[0], a[1], a[2], a[3], a[4], a[5]);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&res);
    PyBuffer_Release(&chunk);
    return PyBool_FromLong(same);
}

/* step(j, k, inverse, modulus[, s]): the s-th slot after j (the first by
 * default) that a walk of the k-way pass mod modulus, or of its inverse,
 * visits, f^s * j mod modulus (see struct step), computed as the walk
 * computes it: by one look-ahead step when the walk looks s slots ahead,
 * else one step at a time; -1 when k is no unit. For testing. */
static PyObject *py_step(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[5] = {0, 0, 0, 0, 1}; /* j, k, inverse, modulus, s */
    struct step st;
    if (!nargs_in("step", nargs, 4, 5) || !int64s(args, nargs, a))
        return NULL;
    if (!(0 <= a[0] && a[0] < a[3] && 2 <= a[1] && a[1] <= 9 && a[1] < a[3])) {
        PyErr_Format(PyExc_ValueError, "no step from %lld by x %lld mod %lld: j and k are residues, k in 2..9",
                     (long long)a[0], (long long)a[1], (long long)a[3]);
        return NULL;
    }
    if (!(1 <= a[4] && a[4] <= AHEAD)) {
        PyErr_Format(PyExc_ValueError, "no look-ahead of %lld slots", (long long)a[4]);
        return NULL;
    }
    if (!plan(&st, a[1], a[2] != 0, a[3]))
        return PyLong_FromLong(-1);
    int64_t j = a[0];
    if (a[4] <= st.ahead)
        return PyLong_FromLongLong(next(&st, st.kind, j, (int)a[4]));
    for (int64_t s = 0; s < a[4]; s++)
        j = next(&st, st.kind, j, 1);
    return PyLong_FromLongLong(j);
}

/* ladder(k, bases): the rows of kway._table(k), ROW int64s to a rung,
 * largest first, built from k's bases (see build_ladder), as bytes; the
 * bytes are its only allocation, made once every argument has been read */
static PyObject *py_ladder(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t k;
    if (!nargs_in("ladder", nargs, 2, 2) || !int64_of(args[0], &k) || !bases_fit(k, args[1]))
        return NULL;
    Py_ssize_t at[64] = {0}, rows = count_ladder(k, args[1], at);
    PyObject *table = PyBytes_FromStringAndSize(NULL, rows * ROW * 8);
    if (table)
        build_ladder(k, args[1], at, rows, PyBytes_AS_STRING(table));
    return table;
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef entries[] = {
    ENTRY(shuffle), ENTRY(agree), ENTRY(step), ENTRY(ladder), {NULL, NULL, 0, NULL},
};

/* every module loaded from this library shares one Refused */
static int exec_module(PyObject *m)
{
    if (!Refused && !(Refused = PyErr_NewException("faro._kernel.Refused", PyExc_BufferError, NULL)))
        return -1;
    return PyModule_AddObjectRef(m, "Refused", Refused);
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_methods = entries,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernel(void) { return PyModuleDef_Init(&module); }
