/* Native twins of the loops in _loops.py, and the check faro apply --verify
 * makes: the CPython extension module _kernel, built and loaded by
 * _fastpath.
 *
 * Items are opaque runs of `itemsize` bytes at buf + i * itemsize, moved with
 * fixed 8-byte copies; itemsize 8 gets its own constant-size copy of each
 * loop. The only temporary array is the walk's held column of at most
 * COLUMN bytes: wider records are walked once per COLUMN-byte column, so
 * extra space stays constant whatever the record size. One call walks a
 * whole ladder of cycles, those led by leader * p^s for s < count. Every
 * walk of a q-way pass with q * m <= 2^32 steps j -> q * j mod m, without a
 * division: the forward passes (mult = q) push each item on to its target
 * q * j, and the inverse passes (mult = q^-1) pull each slot's item from its
 * source q * j (see struct step), both by one loop, cycle(). A walk by
 * x 2..9 with f^4 * m <= 2^32 computes the next four slots at once, each
 * straight from the current one, so that its loop waits on one step per
 * four items rather than per item; the reversal of 8-byte items swaps two
 * of them from each end at a time. The driver's pair of loops is (gather,
 * walk): one gather call makes all k - 1 rotations of a block, each by
 * triple reversal, and returns their moves; reverse stays for faro.rotate
 * and as _fastpath's probe.
 *
 * The entries at the end take an exact list, over its PyObject * slots, or
 * any memory get_items takes: _fastpath asks them, so that rule alone sends
 * a buffer here. They check every range, window and ladder against it
 * before a loop runs; only agree leaves its checks to _fastpath.agree.
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
static int64_t inverse(int64_t a, int64_t m)
{
    int64_t r0 = m, r1 = a, t0 = 0, t1 = 1;
    while (r1) {
        int64_t q = r0 / r1, r = r0 - q * r1, t = t0 - q * t1;
        r0 = r1, r1 = r, t0 = t1, t1 = t;
    }
    return r0 != 1 ? 0 : t0 < 0 ? t0 + m : t0;
}

/* How a walk under x mult mod m steps from slot j to slot f * j mod m,
 * chosen once per walk so that no step the shuffles take divides. With
 * f = mult the walk pushes, moving each item on to its target; with
 * f = mult^-1 it pulls, filling each slot from its source (cycle() walks
 * either way). It pushes when mult has a fast step or mult^-1 has none,
 * and pulls otherwise, so every forward pass (mult = q) pushes and every
 * inverse pass (mult = q^-1) pulls, both stepping by x q:
 *   TIMES   f = 2..9 with f * m <= 2^32: f * j by Lemire's fastmod,
 *           exact below 2^32, with recip = floor((2^64 - 1) / m) + 1 and
 *           rf[0] = recip * f mod 2^64, so that a step is two
 *           multiplications;
 *   MULMOD  any other unit or modulus, pushing: mulmod(j, mult, m).
 * So the walks of a 2-way pass on a block with m > 2^31 push by mulmod,
 * forward or inverse. A TIMES walk with f^4 * m <= 2^32 (m <= 2^28 at f = 2,
 * 654,620 at f = 9) looks AHEAD slots ahead: rf[s - 1] = recip * f^s mod
 * 2^64 gives f^s * j mod m by one fastmod, exact since f^s * j < f^4 * m,
 * so the four slots after j are computed independently of each other and
 * the walk goes on from the fourth. Every other walk takes its slots one
 * step at a time.
 */
enum { TIMES, MULMOD };
enum { AHEAD = 4 };

struct step {
    int kind, push, ahead;
    uint64_t f, m, rf[AHEAD];
};

/* 1 iff x f mod m has a step that does not divide */
static int fast(int64_t f, int64_t m)
{
    return f >= 2 && f <= 9 && m <= (INT64_C(1) << 32) / f;
}

/* 1 after filling st for a walk under x mult mod m, for 0 <= mult < m;
 * 0 when mult is no unit mod m */
static int plan(struct step *st, int64_t mult, int64_t m)
{
    int64_t inv = inverse(mult, m);
    if (!inv)
        return 0;
    st->push = fast(mult, m) || !fast(inv, m);
    st->f = st->push ? mult : inv;
    st->m = m;
    st->kind = fast(st->f, m) ? TIMES : MULMOD;
    /* a TIMES step has f <= 9 and m < 2^32, so f^4 * m cannot overflow */
    st->ahead = st->kind == TIMES && st->f * st->f * st->f * st->f * st->m <= UINT64_C(1) << 32 ? AHEAD : 1;
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

/* exchange n bytes a word at a time, through registers */
static inline void swap_bytes(char *a, char *b, size_t n)
{
    uint64_t x, y;
    for (; n >= 8; n -= 8, a += 8, b += 8) {
        memcpy(&x, a, 8);
        memcpy(&y, b, 8);
        memcpy(a, &y, 8);
        memcpy(b, &x, 8);
    }
    for (; n > 0; n--, a++, b++) {
        char c = *a;
        *a = *b;
        *b = c;
    }
}

/* swap ends inward over items [lo, hi) */
static inline void reverse(char *buf, size_t size, int64_t lo, int64_t hi)
{
    for (hi -= 1; lo < hi; lo++, hi--)
        swap_bytes(buf + lo * size, buf + hi * size, size);
}

/* reverse() for 8-byte items, two from each end at a time: the 16 bytes at
 * each end swap places, each pair reversed on the way; reverse() takes the
 * 0 to 3 items left in the middle */
static void reverse8(char *buf, int64_t lo, int64_t hi)
{
    for (; hi - lo >= 4; lo += 2, hi -= 2) {
        uint64_t a[2], b[2];
        char *x = buf + lo * 8, *y = buf + (hi - 2) * 8;
        memcpy(a, x, 16);
        memcpy(b, y, 16);
        uint64_t ra[2] = {a[1], a[0]}, rb[2] = {b[1], b[0]};
        memcpy(x, rb, 16);
        memcpy(y, ra, 16);
    }
    reverse(buf, 8, lo, hi);
}

static void reverse_items(char *buf, size_t itemsize, int64_t lo, int64_t hi)
{
    if (itemsize == 8)
        reverse8(buf, lo, hi);
    else
        reverse(buf, itemsize, lo, hi);
}

/* Rotate the w items at lo right by d, for 0 <= d <= w, by triple
 * reversal: reverse all w, then the first d and the last w - d. Returns the
 * moves made, two per swap; a distance of 0 or w moves nothing. */
static int64_t rotate_items(char *buf, size_t itemsize, int64_t lo, int64_t w, int64_t d)
{
    if (d == 0 || d == w)
        return 0;
    reverse_items(buf, itemsize, lo, lo + w);
    reverse_items(buf, itemsize, lo, lo + d);
    reverse_items(buf, itemsize, lo + d, lo + w);
    return 2 * (w / 2 + d / 2 + (w - d) / 2);
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

/* Realize the cycle of item base + leader under j -> j * mult mod m. Hold
 * the leader's column, then visit the slots j = f * j in turn until the walk
 * returns to the leader. With f = mult it pushes (pulls = 0): it exchanges
 * the held column with each slot's (a word at a time, through registers),
 * and `slot` stays the leader's. With f = mult^-1 it pulls (pulls = 1): it
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
                swap_bytes(t, at, width);
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

/* The module's entries, METH_FASTCALL functions. Every integer must fit an
 * int64: one beyond it raises OverflowError rather than wrapping into range.
 * reverse, gather and walk take an exact list or a buffer (see get_items)
 * and check every range, window and ladder before their loop runs. */

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
 * loops hold the GIL, and its size is read anew on every call, since another
 * thread may resize it between two calls. A buffer's are its memory, held in
 * view until put_items(): its loops run without the GIL, and the held view
 * stops a bytearray from being resized meanwhile. */
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

/* 1 after filling it from obj: an exact list, when size is 0, or memory
 * that is writable, C-contiguous and 1-D, read as items of size bytes, or of
 * its own itemsize when size is 0; 0 with an exception set. Memory whose
 * format holds Python objects is refused with BufferError, since its loops
 * would move references without the GIL. Memory whose exporter cannot
 * spell its format (numpy raises ValueError for datetime64 and timedelta64)
 * is taken without one, so a structured dtype that mixes a datetime field
 * with an object field passes here: only _fastpath.kernel's hasobject sort
 * keeps such an ndarray away. */
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
         * format was all the exporter refused; when not, its error stands */
        PyErr_Clear();
        if (PyObject_GetBuffer(obj, &it->view, PyBUF_WRITABLE | PyBUF_ND) < 0)
            return 0;
    }
    if (it->view.format && holds_objects(it->view.format)) {
        PyErr_Format(PyExc_BufferError, "memory of format '%s' holds Python objects", it->view.format);
        PyBuffer_Release(&it->view);
        return 0;
    }
    Py_ssize_t bytes = size ? size : it->view.itemsize;
    if (it->view.ndim != 1 || bytes < 1) {
        PyErr_Format(PyExc_BufferError, "expected 1-D memory of items of at least one byte, got %d-D",
                     it->view.ndim);
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

/* reverse(buf, lo, hi[, itemsize]): reverse items [lo, hi) */
static PyObject *py_reverse(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[3] = {0, 0, 0}; /* lo, hi, itemsize */
    struct items it;
    if (!nargs_in("reverse", nargs, 3, 4) || !int64s(args + 1, nargs - 1, a) || !get_items(&it, args[0], a[2]))
        return NULL;
    int64_t lo = a[0], hi = a[1];
    if (!(0 <= lo && lo <= hi && hi <= it.n)) {
        PyErr_Format(PyExc_IndexError, "reversal of [%lld, %lld) leaves %zd items", (long long)lo,
                     (long long)hi, it.n);
        put_items(&it);
        return NULL;
    }
    PyThreadState *unlocked = it.view.obj ? PyEval_SaveThread() : NULL;
    reverse_items(it.buf, it.size, lo, hi);
    if (unlocked)
        PyEval_RestoreThread(unlocked);
    put_items(&it);
    Py_RETURN_NONE;
}

/* gather(buf, offset, part, b, k, inverse[, itemsize]): the k - 1
 * rotations of one block's gather, or with inverse true of its scatter (see
 * gather_items); returns the moves made */
static PyObject *py_gather(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[6] = {0, 0, 0, 0, 0, 0}; /* offset, part, b, k, inverse, itemsize */
    struct items it;
    if (!nargs_in("gather", nargs, 6, 7) || !int64s(args + 1, nargs - 1, a) || !get_items(&it, args[0], a[5]))
        return NULL;
    int64_t offset = a[0], part = a[1], b = a[2], k = a[3], end;
    if (!(0 <= b && b <= part && 2 <= k && k <= 9)) {
        PyErr_Format(PyExc_ValueError, "no gather of %lld parts of %lld items by %lld", (long long)k,
                     (long long)part, (long long)b);
        put_items(&it);
        return NULL;
    }
    /* the last window ends at offset + (k - 1) * part + b; every other
     * bound of every window lies between offset and it */
    if (offset < 0 || __builtin_mul_overflow(k - 1, part, &end) || __builtin_add_overflow(end, b, &end) ||
        __builtin_add_overflow(end, offset, &end) || end > it.n) {
        PyErr_Format(PyExc_IndexError, "gather of %lld parts of %lld items at %lld leaves %zd items",
                     (long long)k, (long long)part, (long long)offset, it.n);
        put_items(&it);
        return NULL;
    }
    PyThreadState *unlocked = it.view.obj ? PyEval_SaveThread() : NULL;
    int64_t moves = gather_items(it.buf, it.size, offset, part, b, k, a[4] != 0);
    if (unlocked)
        PyEval_RestoreThread(unlocked);
    put_items(&it);
    return PyLong_FromLongLong(moves);
}

/* 1 after planning st for the walk a describes over it; 0 with IndexError
 * or ValueError set. The orbits stay in local positions 1..modulus-1 and
 * close only when mult is a unit and the leaders are among those
 * positions. */
static int walk_fits(const struct items *it, const int64_t *a, struct step *st)
{
    int64_t base = a[0], leader = a[1], m = a[3], p = a[4], count = a[5];
    if (!(m >= 2 && base >= -1 && m <= it->n - base)) {
        PyErr_Format(PyExc_IndexError, "walk mod %lld at base %lld leaves %zd items", (long long)m,
                     (long long)base, it->n);
        return 0;
    }
    int64_t mult = a[2] % m;
    if (mult < 0)
        mult += m;
    if (!(0 < leader && leader < m) || !plan(st, mult, m)) {
        PyErr_Format(PyExc_ValueError, "leader %lld under x%lld mod %lld is no closed orbit", (long long)leader,
                     (long long)mult, (long long)m);
        return 0;
    }
    if (!ladder_fits(leader, p, count, m)) {
        PyErr_Format(PyExc_ValueError, "ladder of %lld leaders %lld * %lld^s leaves 1..%lld", (long long)count,
                     (long long)leader, (long long)p, (long long)m - 1);
        return 0;
    }
    return 1;
}

/* walk(buf, base, leader, mult, modulus, p, count[, itemsize]): realize the
 * cycles of items base + j under j -> j * mult mod modulus led by
 * leader * p^s for s < count */
static PyObject *py_walk(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[7] = {0, 0, 0, 0, 0, 0, 0}; /* base, leader, mult, modulus, p, count, itemsize */
    struct items it;
    struct step st;
    if (!nargs_in("walk", nargs, 7, 8) || !int64s(args + 1, nargs - 1, a) || !get_items(&it, args[0], a[6]))
        return NULL;
    if (!walk_fits(&it, a, &st)) {
        put_items(&it);
        return NULL;
    }
    PyThreadState *unlocked = it.view.obj ? PyEval_SaveThread() : NULL;
    walk_items(it.buf, it.size, a[0], a[1], a[4], a[5], &st);
    if (unlocked)
        PyEval_RestoreThread(unlocked);
    put_items(&it);
    Py_RETURN_NONE;
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

/* 1 iff a[0] and a[1] lie in [0, a[2]); 0 with ValueError set */
static int residues(const int64_t *a)
{
    if (0 <= a[0] && a[0] < a[2] && 0 <= a[1] && a[1] < a[2])
        return 1;
    PyErr_Format(PyExc_ValueError, "%lld or %lld is no residue mod %lld", (long long)a[0], (long long)a[1],
                 (long long)a[2]);
    return 0;
}

/* mulmod(a, b, m): the MULMOD step of the walks, for testing */
static PyObject *py_mulmod(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[3];
    if (!nargs_in("mulmod", nargs, 3, 3) || !int64s(args, 3, a) || !residues(a))
        return NULL;
    return PyLong_FromLongLong(mulmod(a[0], a[1], a[2]));
}

/* step(j, mult, modulus[, s]): the s-th slot after j (the first by
 * default) in the order a walk under x mult mod modulus visits slots,
 * f^s * j mod modulus, computed as the walk computes it: by one look-ahead
 * step when the walk looks s slots ahead, else one step at a time; -1 when
 * mult is no unit. For testing. */
static PyObject *py_step(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[4] = {0, 0, 0, 1}; /* j, mult, modulus, s */
    struct step st;
    if (!nargs_in("step", nargs, 3, 4) || !int64s(args, nargs, a) || !residues(a))
        return NULL;
    if (!(1 <= a[3] && a[3] <= AHEAD)) {
        PyErr_Format(PyExc_ValueError, "no look-ahead of %lld slots", (long long)a[3]);
        return NULL;
    }
    if (!plan(&st, a[1], a[2]))
        return PyLong_FromLong(-1);
    int64_t j = a[0];
    if (a[3] <= st.ahead)
        return PyLong_FromLongLong(next(&st, st.kind, j, (int)a[3]));
    for (int64_t s = 0; s < a[3]; s++)
        j = next(&st, st.kind, j, 1);
    return PyLong_FromLongLong(j);
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef entries[] = {
    ENTRY(reverse), ENTRY(gather), ENTRY(walk), ENTRY(agree), ENTRY(mulmod), ENTRY(step), {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_methods = entries,
};

PyMODINIT_FUNC PyInit__kernel(void) { return PyModuleDef_Init(&module); }
