/* Native twins of the loops in _loops.py, and the check faro apply --verify
 * makes, loaded by _fastpath with ctypes.
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
 * (see struct step). _fastpath checks every range and ladder against the
 * buffer length before calling in.
 *
 * When Python.h is on the include path, the same loops also serve exact
 * lists, over their PyObject * slots (see the list entries at the end).
 */
#if defined(__has_include)
#if __has_include(<Python.h>)
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define FARO_LISTS 1
#endif
#endif

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

/* the MULMOD step of the walks below, exported for testing */
int64_t faro_mulmod(int64_t a, int64_t b, int64_t m) { return mulmod(a, b, m); }

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

/* the slot after j in the order a walk under x mult mod modulus visits
 * slots, f * j mod modulus, or -1 when mult is no unit; exported for
 * testing */
int64_t faro_step(int64_t j, int64_t mult, int64_t modulus)
{
    struct step st;
    return plan(&st, mult, modulus) ? next(&st, st.kind, j) : -1;
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

void faro_reverse(char *buf, size_t itemsize, int64_t lo, int64_t hi)
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

/* does nothing when mult is no unit; _fastpath checks that it is one, and
 * that leader * p^s lies in (0, modulus) for every s < count */
void faro_walk(char *buf, size_t itemsize, int64_t base, int64_t leader, int64_t mult, int64_t modulus,
               int64_t p, int64_t count)
{
    struct step st;
    if (!plan(&st, mult, modulus))
        return;
    if (itemsize == 8)
        ladder(buf, 8, 8, base, leader, p, count, &st);
    else
        for (size_t off = 0; off < itemsize; off += COLUMN)
            ladder(buf + off, itemsize, itemsize - off < COLUMN ? itemsize - off : COLUMN, base, leader, p,
                   count, &st);
}

/* 1 iff item i of chunk equals item base + ((j0 + i) * mult mod modulus)
 * of res for every i in 0..count-1: chunk holds items j0 .. j0 + count - 1
 * of a buffer read in order, and res is that buffer moved by the target map
 * j -> j * mult. Reads only; _fastpath checks that mult < modulus is a unit,
 * that 1 <= j0 <= j0 + count <= modulus, and that chunk holds count items
 * and res items base + 1 .. base + modulus - 1. */
int faro_agree(const char *chunk, const char *res, size_t itemsize, int64_t base, int64_t mult, int64_t modulus,
               int64_t j0, int64_t count)
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

#ifdef FARO_LISTS
/* The list entries. A permutation of a list's slots leaves every refcount as
 * it was, so the loops above move the PyObject * slots as 8-byte items.
 * _fastpath binds these through ctypes.PyDLL, so they run with the GIL held
 * and may raise; they check the list's current size on every call and keep
 * no pointer into it, since another thread may resize it between two calls.
 * Their integers arrive as Python objects, since ctypes would wrap one beyond
 * 64 bits into range instead of refusing it.
 */
static int not_a_list(PyObject *list)
{
    if (PyList_CheckExact(list))
        return 0;
    PyErr_Format(PyExc_TypeError, "expected a list, got %s", Py_TYPE(list)->tp_name);
    return 1;
}

/* 1 with OverflowError or TypeError set unless arg is an int64 */
static int not_int64(PyObject *arg, int64_t *value)
{
    long long v = PyLong_AsLongLong(arg);
    if (v == -1 && PyErr_Occurred())
        return 1;
    *value = v;
    return 0;
}

void faro_list_reverse(PyObject *list, PyObject *lo_arg, PyObject *hi_arg)
{
    int64_t lo, hi;
    if (not_a_list(list) || not_int64(lo_arg, &lo) || not_int64(hi_arg, &hi))
        return;
    Py_ssize_t n = PyList_GET_SIZE(list);
    if (!(0 <= lo && lo <= hi && hi <= n)) {
        PyErr_Format(PyExc_IndexError, "range [%lld, %lld) out of a list of %zd", (long long)lo,
                     (long long)hi, n);
        return;
    }
    reverse((char *)((PyListObject *)list)->ob_item, sizeof(PyObject *), lo, hi);
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

void faro_list_walk(PyObject *list, PyObject *base_arg, PyObject *leader_arg, PyObject *mult_arg,
                    PyObject *modulus_arg, PyObject *p_arg, PyObject *count_arg)
{
    int64_t base, leader, mult, modulus, p, count;
    if (not_a_list(list) || not_int64(base_arg, &base) || not_int64(leader_arg, &leader)
        || not_int64(mult_arg, &mult) || not_int64(modulus_arg, &modulus) || not_int64(p_arg, &p)
        || not_int64(count_arg, &count))
        return;
    Py_ssize_t n = PyList_GET_SIZE(list);
    /* the orbits stay in local positions 1..modulus-1 and close only when
     * mult is a unit and the leaders are among those positions */
    if (!(modulus >= 2 && base >= -1 && modulus <= n - base)) {
        PyErr_Format(PyExc_IndexError, "walk mod %lld at base %lld leaves a list of %zd",
                     (long long)modulus, (long long)base, n);
        return;
    }
    mult %= modulus;
    if (mult < 0)
        mult += modulus;
    struct step st;
    if (!(0 < leader && leader < modulus) || !plan(&st, mult, modulus)) {
        PyErr_Format(PyExc_ValueError, "leader %lld under x%lld mod %lld is no closed orbit",
                     (long long)leader, (long long)mult, (long long)modulus);
        return;
    }
    if (!ladder_fits(leader, p, count, modulus)) {
        PyErr_Format(PyExc_ValueError, "ladder of %lld leaders %lld * %lld^s leaves 1..%lld", (long long)count,
                     (long long)leader, (long long)p, (long long)modulus - 1);
        return;
    }
    ladder((char *)((PyListObject *)list)->ob_item, sizeof(PyObject *), sizeof(PyObject *), base, leader, p,
           count, &st);
}
#endif
