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
 * walk of a q-way pass steps j -> q * j mod m, without a division: the
 * forward passes (mult = q) push each item on to its target q * j, and the
 * inverse passes (mult = q^-1) pull each slot's item from its source q * j
 * (see struct step).
 *
 * The entries at the end take an exact list, over its PyObject * slots, or
 * any writable, C-contiguous, 1-D buffer (an ndarray, a bytearray), and
 * check every range and ladder against it before a loop runs; only agree
 * leaves its checks to _fastpath.agree.
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
 * f = mult^-1 it pulls, filling each slot from its source. It pushes when
 * mult has a fast step or mult^-1 has none, and pulls otherwise, so every
 * forward pass (mult = q) pushes and every inverse pass (mult = q^-1) pulls,
 * both stepping by x q:
 *   TIMES2  f = 2: 2j, less m when it reaches m;
 *   TIMES   f = 3..9 with f * m <= 2^32: f * j by Lemire's fastmod,
 *           exact below 2^32, with recip = floor((2^64 - 1) / m) + 1 and
 *           rf = recip * f mod 2^64, so that a step is two multiplications;
 *   MULMOD  any other unit or modulus, pushing: mulmod(j, mult, m).
 */
enum { TIMES2, TIMES, MULMOD };

struct step {
    int kind, push;
    uint64_t f, m, rf;
};

/* 1 iff x f mod m has a step that does not divide */
static int fast(int64_t f, int64_t m)
{
    return f == 2 || (f >= 3 && f <= 9 && m <= (INT64_C(1) << 32) / f);
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
    st->kind = st->f == 2 ? TIMES2 : fast(st->f, m) ? TIMES : MULMOD;
    st->rf = (UINT64_MAX / (uint64_t)m + 1) * st->f;
    return 1;
}

/* f * j mod m by the step `kind`; ladder() passes the kind as a constant,
 * so each kind compiles to its own loop */
static inline __attribute__((always_inline)) int64_t next(const struct step *st, int kind, int64_t j)
{
    uint64_t u = j, m = st->m;
    switch (kind) {
    case TIMES2:
        u *= 2;
        return u >= m ? u - m : u;
    case TIMES:
        return ((unsigned __int128)(st->rf * u) * m) >> 64;
    default:
        return mulmod(j, st->f, m);
    }
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

static void reverse_items(char *buf, size_t itemsize, int64_t lo, int64_t hi)
{
    if (itemsize == 8)
        reverse(buf, 8, lo, hi);
    else
        reverse(buf, itemsize, lo, hi);
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

/* Realize the cycle of item base + leader under j -> j * mult mod m, with
 * f = mult, by pushing: hold the leader's column, exchange it with the
 * column of each slot j = f * j in turn (a word at a time, through
 * registers), and put the held column back in the leader's slot once the
 * walk returns there. */
static inline __attribute__((always_inline)) void push(char *buf, size_t size, size_t width, int64_t base,
                                                       int64_t leader, const struct step *st, int kind)
{
    struct step k = *st; /* a copy no store into buf can alias */
    char t[COLUMN];
    char *slot = buf + (base + leader) * size;
    copy_bytes(t, slot, width);
    for (int64_t j = next(&k, kind, leader); j != leader; j = next(&k, kind, j))
        swap_bytes(t, buf + (base + j) * size, width);
    copy_bytes(slot, t, width);
}

/* The same cycle with f = mult^-1, by pulling: hold the leader's column,
 * fill each slot j from its source f * j (one load and one store), move on
 * to that source, and put the held column in the last slot, the one whose
 * source is the leader. */
static inline __attribute__((always_inline)) void pull(char *buf, size_t size, size_t width, int64_t base,
                                                       int64_t leader, const struct step *st, int kind)
{
    struct step k = *st;
    char t[COLUMN];
    char *slot = buf + (base + leader) * size;
    copy_bytes(t, slot, width);
    for (int64_t s = next(&k, kind, leader); s != leader; s = next(&k, kind, s)) {
        char *from = buf + (base + s) * size;
        copy_bytes(slot, from, width);
        slot = from;
    }
    copy_bytes(slot, t, width);
}

/* Walk the cycles led by leader * p^s for s < count, by push() or pull()
 * with the kind of st as a constant: one loop per kind and direction. */
static inline __attribute__((always_inline)) void ladder(char *buf, size_t size, size_t width, int64_t base,
                                                         int64_t leader, int64_t p, int64_t count,
                                                         const struct step *st)
{
    for (; count > 0; count--) {
        switch (st->kind) {
        case TIMES2:
            if (st->push)
                push(buf, size, width, base, leader, st, TIMES2);
            else
                pull(buf, size, width, base, leader, st, TIMES2);
            break;
        case TIMES:
            if (st->push)
                push(buf, size, width, base, leader, st, TIMES);
            else
                pull(buf, size, width, base, leader, st, TIMES);
            break;
        default:
            push(buf, size, width, base, leader, st, MULMOD); /* plan() pulls only by fast steps */
        }
        /* wraps only past the last rung, where it goes unused */
        leader = (int64_t)((uint64_t)leader * (uint64_t)p);
    }
}

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
 * reverse and walk take an exact list or a buffer (see get_items) and check
 * every range and ladder before their loop runs. */

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

/* 1 after filling it from obj: an exact list, when size is 0, or memory
 * that is writable, C-contiguous and 1-D, read as items of size bytes, or of
 * its own itemsize when size is 0; 0 with an exception set. The format of
 * the memory is not asked for, since numpy cannot spell some dtypes in one;
 * _fastpath.kernel keeps ndarrays that hold Python objects away, as their
 * loops would move references without the GIL. */
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
    if (PyObject_GetBuffer(obj, &it->view, PyBUF_WRITABLE | PyBUF_ND) < 0)
        return 0;
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

/* step(j, mult, modulus): the slot after j in the order a walk under
 * x mult mod modulus visits slots, f * j mod modulus, or -1 when mult is no
 * unit; for testing */
static PyObject *py_step(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int64_t a[3];
    struct step st;
    if (!nargs_in("step", nargs, 3, 3) || !int64s(args, 3, a) || !residues(a))
        return NULL;
    return PyLong_FromLongLong(plan(&st, a[1], a[2]) ? next(&st, st.kind, a[0]) : -1);
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef entries[] = {
    ENTRY(reverse), ENTRY(walk), ENTRY(agree), ENTRY(mulmod), ENTRY(step), {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_methods = entries,
};

PyMODINIT_FUNC PyInit__kernel(void) { return PyModuleDef_Init(&module); }
