/* Native twins of the loops in _loops.py, and the check faro apply --verify
 * makes, loaded by _fastpath with ctypes.
 *
 * Items are opaque runs of `itemsize` bytes at buf + i * itemsize, exchanged
 * with fixed 8-byte copies; itemsize 8 gets its own constant-size copy of
 * each loop. The only temporary array is the walk's held column of at most
 * COLUMN bytes: wider records are walked once per COLUMN-byte column, so
 * extra space stays constant whatever the record size. _fastpath checks
 * every range and walk against the buffer length before calling in.
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

/* the step walk() takes, exported for testing */
int64_t faro_mulmod(int64_t a, int64_t b, int64_t m) { return mulmod(a, b, m); }

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

/* Hold the column of item base + leader, then follow j -> j * mult mod
 * modulus, swapping the held column into each visited item until the orbit
 * closes at the leader. */
static inline void walk(char *buf, size_t size, size_t width, int64_t base, int64_t leader, int64_t mult,
                        int64_t modulus)
{
    char t[COLUMN];
    int64_t j = leader;
    memcpy(t, buf + (base + j) * size, width);
    do {
        j = mulmod(j, mult, modulus);
        swap_bytes(t, buf + (base + j) * size, width);
    } while (j != leader);
}

void faro_walk(char *buf, size_t itemsize, int64_t base, int64_t leader, int64_t mult, int64_t modulus)
{
    if (itemsize == 8)
        walk(buf, 8, 8, base, leader, mult, modulus);
    else
        for (size_t off = 0; off < itemsize; off += COLUMN)
            walk(buf + off, itemsize, itemsize - off < COLUMN ? itemsize - off : COLUMN, base, leader, mult, modulus);
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

static int64_t gcd(int64_t a, int64_t b)
{
    while (b) {
        int64_t r = a % b;
        a = b;
        b = r;
    }
    return a;
}

void faro_list_walk(PyObject *list, PyObject *base_arg, PyObject *leader_arg, PyObject *mult_arg,
                    PyObject *modulus_arg)
{
    int64_t base, leader, mult, modulus;
    if (not_a_list(list) || not_int64(base_arg, &base) || not_int64(leader_arg, &leader)
        || not_int64(mult_arg, &mult) || not_int64(modulus_arg, &modulus))
        return;
    Py_ssize_t n = PyList_GET_SIZE(list);
    /* the orbit stays in local positions 1..modulus-1 and closes only when
     * mult is a unit and the leader one of those positions */
    if (!(modulus >= 2 && base >= -1 && modulus <= n - base)) {
        PyErr_Format(PyExc_IndexError, "walk mod %lld at base %lld leaves a list of %zd",
                     (long long)modulus, (long long)base, n);
        return;
    }
    mult %= modulus;
    if (mult < 0)
        mult += modulus;
    if (!(0 < leader && leader < modulus) || gcd(mult, modulus) != 1) {
        PyErr_Format(PyExc_ValueError, "leader %lld under x%lld mod %lld is no closed orbit",
                     (long long)leader, (long long)mult, (long long)modulus);
        return;
    }
    char *slots = (char *)((PyListObject *)list)->ob_item;
    walk(slots, sizeof(PyObject *), sizeof(PyObject *), base, leader, mult, modulus);
}
#endif
