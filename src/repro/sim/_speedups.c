/* Compiled lane for the repro.sim kernel (REPRO_SIM_COMPILED=1).
 *
 * This module is a C transcription of the three hottest code paths of the
 * interpreted kernel, and of nothing else:
 *
 *   drain(env)        -- Environment.run()'s event loop (select, pop, timer
 *                        shots, callback dispatch with the inlined
 *                        Process-resume fast path, failure re-raise).
 *   make_timeout(...) -- Timeout.__init__'s flattened construction path.
 *   make_event(env)   -- Event.__init__.
 *
 * Everything else -- every event type, Timer._pop_shot, Process._resume,
 * Condition fan-in, the Store mailbox -- stays pure Python: the compiled
 * lane calls back into it.  The Python classes remain the single source
 * of truth for semantics; this file must mirror the loop in
 * sim/environment.py *exactly* (see the PERF comment there), because the
 * project's correctness bar is byte-identical golden renders between the
 * two lanes.
 *
 * Determinism notes:
 *  - Pop order is the same (time, priority, eid) total order.  Heap
 *    entries are compared by an inline double/long comparison with a
 *    PyObject_RichCompareBool fallback, which agrees with Python tuple
 *    comparison because times are floats, priorities are 0/1 ints, and
 *    eids are unique ints (the event in slot 3 is never compared).
 *  - eid consumption is identical: the factories bump env._eid exactly
 *    where the Python constructors do, and the negative-delay error path
 *    consumes no eid, like the interpreted Timeout.
 *  - The heap is the same Python list; interleaving C sift operations
 *    with heapq's (Timer.arm pushes from Python) preserves the invariant
 *    because both use the same ordering.
 *
 * Binding: the module has no import-time dependencies.  sim/environment.py
 * calls _bind(...) once, handing over the kernel classes, sentinels and
 * slot-bearing types; offsets of every hot slot are resolved from the
 * member descriptors so the loop reads fixed offsets instead of doing
 * attribute lookups.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* PyMemberDescrObject */

/* ---------------------------------------------------------------- state */

typedef struct {
    /* types (borrowed from the bind dict, immortal for our purposes:
     * we hold strong refs) */
    PyTypeObject *Environment;
    PyTypeObject *Event;
    PyTypeObject *Timeout;
    PyTypeObject *Process;
    PyTypeObject *Timer;
    PyObject *SimulationError;
    PyObject *pending;      /* events.PENDING sentinel */
    PyObject *normal_int;   /* the NORMAL==1 small int */
    PyObject *deque_popleft; /* unbound collections.deque.popleft */
    PyObject *deque_append;  /* unbound collections.deque.append */

    /* slot offsets */
    Py_ssize_t env_now, env_urgent, env_fifo, env_heap, env_eid, env_active;
    Py_ssize_t ev_env, ev_callbacks, ev_value, ev_ok, ev_defused;
    Py_ssize_t to_delay;
    Py_ssize_t pr_send, pr_target;

    /* interned strings */
    PyObject *s_pop_shot, *s_resume, *s_fail_nonevent, *s_callbacks,
        *s_value, *s_append, *s_is_timer;

    int bound;
} speedups_state;

/* Single static state: the kernel classes are process-global anyway. */
static speedups_state S;

#define SLOT(ob, off) (*(PyObject **)((char *)(ob) + (off)))

/* Store `v` (new reference is taken) into a slot, releasing the old value. */
static inline void
slot_store(PyObject *ob, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(ob, off);
    Py_INCREF(v);
    SLOT(ob, off) = v;
    Py_XDECREF(old);
}

/* Store stealing the reference to v. */
static inline void
slot_store_steal(PyObject *ob, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(ob, off);
    SLOT(ob, off) = v;
    Py_XDECREF(old);
}

/* ------------------------------------------------------- entry ordering */

/* a < b for queue entries (time, priority, eid, event).  Returns -1 on
 * error.  Fast path: exact float/int fields compared in C; fallback:
 * full tuple rich comparison (same total order). */
static int
entry_lt(PyObject *a, PyObject *b)
{
    PyObject *ta = PyTuple_GET_ITEM(a, 0);
    PyObject *tb = PyTuple_GET_ITEM(b, 0);
    if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
        double fa = PyFloat_AS_DOUBLE(ta), fb = PyFloat_AS_DOUBLE(tb);
        if (fa != fb)
            return fa < fb;
        PyObject *pa = PyTuple_GET_ITEM(a, 1), *pb = PyTuple_GET_ITEM(b, 1);
        if (PyLong_CheckExact(pa) && PyLong_CheckExact(pb)) {
            int oa = 0, ob = 0;
            long la = PyLong_AsLongAndOverflow(pa, &oa);
            long lb = PyLong_AsLongAndOverflow(pb, &ob);
            if (!oa && !ob) {
                if (la != lb)
                    return la < lb;
                PyObject *ea = PyTuple_GET_ITEM(a, 2);
                PyObject *eb = PyTuple_GET_ITEM(b, 2);
                if (PyLong_CheckExact(ea) && PyLong_CheckExact(eb)) {
                    long va = PyLong_AsLongAndOverflow(ea, &oa);
                    long vb = PyLong_AsLongAndOverflow(eb, &ob);
                    if (!oa && !ob)
                        return va < vb; /* eids unique: never equal here */
                }
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* ------------------------------------------------------------- the heap */

/* Bubble the freshly appended tail entry up.  Borrows `heap`. */
static int
heap_siftdown_from_tail(PyObject *heap)
{
    Py_ssize_t pos = PyList_GET_SIZE(heap) - 1;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        PyObject *p = PyList_GET_ITEM(heap, parent);
        int lt = entry_lt(newitem, p);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(p);
        PyList_SetItem(heap, pos, p); /* releases the stale dup at pos */
        pos = parent;
    }
    PyList_SetItem(heap, pos, newitem); /* steals our ref */
    return 0;
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return heap_siftdown_from_tail(heap);
}

/* Sift the root down.  Borrows `heap`. */
static int
heap_siftup_root(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    Py_ssize_t pos = 0, child;
    PyObject *item = PyList_GET_ITEM(heap, 0);
    Py_INCREF(item);
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n) {
            int lt = entry_lt(PyList_GET_ITEM(heap, child + 1),
                              PyList_GET_ITEM(heap, child));
            if (lt < 0)
                goto error;
            if (lt)
                child += 1;
        }
        int lt = entry_lt(PyList_GET_ITEM(heap, child), item);
        if (lt < 0)
            goto error;
        if (!lt)
            break;
        PyObject *c = PyList_GET_ITEM(heap, child);
        Py_INCREF(c);
        PyList_SetItem(heap, pos, c);
        pos = child;
    }
    PyList_SetItem(heap, pos, item);
    return 0;
error:
    Py_DECREF(item);
    return -1;
}

/* Pop the smallest entry.  Caller guarantees the heap is non-empty.
 * Returns a new reference (or NULL on error). */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *ret = PyList_GET_ITEM(heap, 0);
    Py_INCREF(ret);
    PyList_SetItem(heap, 0, last); /* releases the old root (we hold ret) */
    if (heap_siftup_root(heap) < 0) {
        Py_DECREF(ret);
        return NULL;
    }
    return ret;
}

/* ------------------------------------------------------------ utilities */

/* env._eid += 1; returns the new eid as a *new* PyLong ref, NULL on error. */
static PyObject *
bump_eid(PyObject *env)
{
    PyObject *cur = SLOT(env, S.env_eid);
    int overflow = 0;
    long v = PyLong_AsLongAndOverflow(cur, &overflow);
    if (overflow || (v == -1 && PyErr_Occurred())) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_OverflowError, "eid overflow");
        return NULL;
    }
    PyObject *nv = PyLong_FromLong(v + 1);
    if (nv == NULL)
        return NULL;
    slot_store(env, S.env_eid, nv);
    return nv;
}

/* Append (env._now, NORMAL, eid, ev) to the fifo lane (the completion
 * entry of a finished/failed process).  Mirrors the interpreted loop's
 * `fifo.append((self._now, NORMAL, eid, cb))`. */
static int
fifo_append_completion(PyObject *env, PyObject *fifo, PyObject *ev)
{
    PyObject *eid = bump_eid(env);
    if (eid == NULL)
        return -1;
    PyObject *entry = PyTuple_New(4);
    if (entry == NULL) {
        Py_DECREF(eid);
        return -1;
    }
    PyObject *now = SLOT(env, S.env_now);
    Py_INCREF(now);
    PyTuple_SET_ITEM(entry, 0, now);
    Py_INCREF(S.normal_int);
    PyTuple_SET_ITEM(entry, 1, S.normal_int);
    PyTuple_SET_ITEM(entry, 2, eid); /* stolen */
    Py_INCREF(ev);
    PyTuple_SET_ITEM(entry, 3, ev);
    PyObject *args[2] = {fifo, entry};
    PyObject *r = PyObject_Vectorcall(S.deque_append, args, 2, NULL);
    Py_DECREF(entry);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Is `event` a timer (the kernel pop-path discriminator)?  Exact-type
 * fast paths for the two dominant heap occupants, then the same class
 * attribute the interpreted loop reads. */
static int
event_is_timer(PyObject *event)
{
    PyTypeObject *tp = Py_TYPE(event);
    if (tp == S.Timeout || tp == S.Event || tp == S.Process)
        return 0;
    if (tp == S.Timer)
        return 1;
    PyObject *flag = PyObject_GetAttr(event, S.s_is_timer);
    if (flag == NULL)
        return -1;
    int truthy = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return truthy;
}

/* ------------------------------------------------- process resume paths */

/* The generator raised: classify StopIteration (normal completion) vs
 * everything else (process death), completing the process event either
 * way.  Mirrors the two `except` arms of the interpreted fast path. */
static int
complete_process(PyObject *env, PyObject *fifo, PyObject *proc)
{
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        PyErr_NormalizeException(&et, &ev, &tb);
        PyObject *value = PyObject_GetAttr(ev, S.s_value);
        Py_XDECREF(et);
        Py_XDECREF(ev);
        Py_XDECREF(tb);
        if (value == NULL)
            return -1;
        slot_store(proc, S.pr_target, Py_None);
        slot_store(proc, S.ev_ok, Py_True);
        slot_store_steal(proc, S.ev_value, value);
        return fifo_append_completion(env, fifo, proc);
    }
    /* `except BaseException as exc` -- capture the (normalized)
     * exception instance, traceback attached, as the failure value. */
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    PyErr_NormalizeException(&et, &ev, &tb);
    if (tb != NULL)
        PyException_SetTraceback(ev, tb);
    Py_XDECREF(et);
    Py_XDECREF(tb);
    slot_store(proc, S.pr_target, Py_None);
    slot_store(proc, S.ev_ok, Py_False);
    slot_store_steal(proc, S.ev_value, ev);
    return fifo_append_completion(env, fifo, proc);
}

/* The generator yielded `next_event`: register the process on it (or
 * fall through to the generic/error paths).  Mirrors the `else:` arm of
 * the interpreted fast path. */
static int
register_target(PyObject *proc, PyObject *next_event)
{
    PyObject *ncb;
    if (PyObject_TypeCheck(next_event, S.Event)) {
        ncb = SLOT(next_event, S.ev_callbacks);
        if (ncb == NULL)
            goto nonevent; /* unset slot == AttributeError semantics */
        Py_INCREF(ncb);
    }
    else {
        ncb = PyObject_GetAttr(next_event, S.s_callbacks);
        if (ncb == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return -1;
            PyErr_Clear();
            goto nonevent;
        }
    }
    if (ncb == Py_None) {
        /* Yielded event already processed: continue with its stored
         * outcome through the generic path. */
        Py_DECREF(ncb);
        PyObject *r =
            PyObject_CallMethodOneArg(proc, S.s_resume, next_event);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    /* Register + suspend. */
    int st;
    if (PyList_CheckExact(ncb)) {
        st = PyList_Append(ncb, proc);
    }
    else {
        PyObject *r = PyObject_CallMethodOneArg(ncb, S.s_append, proc);
        st = (r == NULL) ? -1 : 0;
        Py_XDECREF(r);
    }
    Py_DECREF(ncb);
    if (st < 0)
        return -1;
    slot_store(proc, S.pr_target, next_event);
    return 0;
nonevent:
    {
        PyObject *r =
            PyObject_CallMethodOneArg(proc, S.s_fail_nonevent, next_event);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
}

/* Dispatch one callback of a processed event. */
static int
run_callback(PyObject *env, PyObject *fifo, PyObject *cb, PyObject *event)
{
    if (Py_TYPE(cb) == S.Process) {
        PyObject *ok = SLOT(event, S.ev_ok);
        int truthy = (ok == Py_True) ? 1
                     : (ok == NULL)  ? 0
                                     : PyObject_IsTrue(ok);
        if (truthy < 0)
            return -1;
        if (truthy) {
            /* Inlined Process._resume success fast path. */
            slot_store(env, S.env_active, cb);
            PyObject *send = SLOT(cb, S.pr_send);
            PyObject *val = SLOT(event, S.ev_value);
            Py_INCREF(send);
            Py_XINCREF(val);
            PyObject *next_event =
                PyObject_CallOneArg(send, val ? val : Py_None);
            Py_DECREF(send);
            Py_XDECREF(val);
            int st;
            if (next_event == NULL)
                st = complete_process(env, fifo, cb);
            else {
                st = register_target(cb, next_event);
                Py_DECREF(next_event);
            }
            slot_store(env, S.env_active, Py_None);
            return st;
        }
    }
    PyObject *r = PyObject_CallOneArg(cb, event);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------ the drain */

/* Raise the un-defused failure of `event`, exactly like the interpreted
 * loop's `raise exc` tail.  Always returns -1. */
static int
raise_event_failure(PyObject *event)
{
    PyObject *exc = SLOT(event, S.ev_value);
    if (exc != NULL && PyExceptionInstance_Check(exc)) {
        Py_INCREF(exc);
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        Py_DECREF(exc);
    }
    else {
        PyErr_Format(S.SimulationError, "%R", exc ? exc : Py_None);
    }
    return -1;
}

static PyObject *
speedups_drain(PyObject *self, PyObject *env)
{
    (void)self;
    if (!S.bound) {
        PyErr_SetString(PyExc_RuntimeError, "_speedups not bound");
        return NULL;
    }
    if (!PyObject_TypeCheck(env, S.Environment)) {
        PyErr_SetString(PyExc_TypeError, "drain() expects an Environment");
        return NULL;
    }
    PyObject *urgent = SLOT(env, S.env_urgent);
    PyObject *fifo = SLOT(env, S.env_fifo);
    PyObject *heap = SLOT(env, S.env_heap);
    if (urgent == NULL || fifo == NULL || heap == NULL ||
        !PyList_CheckExact(heap)) {
        PyErr_SetString(PyExc_TypeError, "malformed Environment queues");
        return NULL;
    }
    /* The queue structures are never reassigned after __init__ (the
     * interpreted loop binds the same locals). */
    Py_INCREF(urgent);
    Py_INCREF(fifo);
    Py_INCREF(heap);

    unsigned long tick = 0;
    for (;;) {
        if (((++tick) & 0x3ff) == 0 && PyErr_CheckSignals() < 0)
            goto fail;

        /* -- select + pop the (time, priority, eid)-smallest entry. */
        Py_ssize_t ulen = PyObject_Size(urgent);
        if (ulen < 0)
            goto fail;
        Py_ssize_t flen = PyObject_Size(fifo);
        if (flen < 0)
            goto fail;
        PyObject *entry;
        int from_heap = 0;
        if (ulen == 0 && flen == 0) {
            if (PyList_GET_SIZE(heap) == 0)
                break; /* queue drained */
            entry = heap_pop(heap);
            from_heap = 1;
        }
        else {
            PyObject *uhead = NULL, *fhead = NULL, *best;
            int best_is_fifo = 0;
            if (ulen > 0) {
                uhead = PySequence_GetItem(urgent, 0);
                if (uhead == NULL)
                    goto fail;
                best = uhead;
            }
            else {
                best = NULL;
            }
            if (flen > 0) {
                fhead = PySequence_GetItem(fifo, 0);
                if (fhead == NULL) {
                    Py_XDECREF(uhead);
                    goto fail;
                }
                if (best == NULL) {
                    best = fhead;
                    best_is_fifo = 1;
                }
                else {
                    int lt = entry_lt(fhead, best);
                    if (lt < 0) {
                        Py_DECREF(uhead);
                        Py_DECREF(fhead);
                        goto fail;
                    }
                    if (lt) {
                        best = fhead;
                        best_is_fifo = 1;
                    }
                }
            }
            if (PyList_GET_SIZE(heap) > 0) {
                int lt = entry_lt(PyList_GET_ITEM(heap, 0), best);
                if (lt < 0) {
                    Py_XDECREF(uhead);
                    Py_XDECREF(fhead);
                    goto fail;
                }
                if (lt)
                    from_heap = 1;
            }
            Py_XDECREF(uhead);
            Py_XDECREF(fhead);
            if (from_heap) {
                entry = heap_pop(heap);
            }
            else {
                PyObject *lane = best_is_fifo ? fifo : urgent;
                PyObject *args[1] = {lane};
                entry = PyObject_Vectorcall(S.deque_popleft, args, 1, NULL);
            }
        }
        if (entry == NULL)
            goto fail;

        PyObject *event = PyTuple_GET_ITEM(entry, 3); /* borrowed via entry */

        /* -- timer shots (heap only; lanes never hold timers). */
        if (from_heap) {
            int is_timer = event_is_timer(event);
            if (is_timer < 0) {
                Py_DECREF(entry);
                goto fail;
            }
            if (is_timer) {
                PyObject *r =
                    PyObject_CallMethodOneArg(event, S.s_pop_shot, entry);
                Py_DECREF(entry);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
                continue;
            }
        }

        /* -- clock advance + callback swap. */
        slot_store(env, S.env_now, PyTuple_GET_ITEM(entry, 0));
        PyObject *callbacks = SLOT(event, S.ev_callbacks);
        if (callbacks == NULL || callbacks == Py_None) {
            /* Already processed (handed to schedule() twice): clock
             * advanced, nothing else to do. */
            Py_DECREF(entry);
            continue;
        }
        Py_INCREF(callbacks);
        slot_store(event, S.ev_callbacks, Py_None);

        /* -- run callbacks (list re-checked per step, like a Python
         * list iterator). */
        if (PyList_CheckExact(callbacks)) {
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
                PyObject *cb = PyList_GET_ITEM(callbacks, i);
                Py_INCREF(cb);
                int st = run_callback(env, fifo, cb, event);
                Py_DECREF(cb);
                if (st < 0) {
                    Py_DECREF(callbacks);
                    Py_DECREF(entry);
                    goto fail;
                }
            }
        }
        else {
            PyObject *it = PyObject_GetIter(callbacks);
            if (it == NULL) {
                Py_DECREF(callbacks);
                Py_DECREF(entry);
                goto fail;
            }
            PyObject *cb;
            while ((cb = PyIter_Next(it)) != NULL) {
                int st = run_callback(env, fifo, cb, event);
                Py_DECREF(cb);
                if (st < 0)
                    break;
            }
            Py_DECREF(it);
            if (PyErr_Occurred()) {
                Py_DECREF(callbacks);
                Py_DECREF(entry);
                goto fail;
            }
        }
        Py_DECREF(callbacks);

        /* -- un-defused failure: re-raise from run(). */
        PyObject *ok = SLOT(event, S.ev_ok);
        int ok_truthy = (ok == Py_True) ? 1
                        : (ok == NULL) ? 0
                                       : PyObject_IsTrue(ok);
        if (ok_truthy < 0) {
            Py_DECREF(entry);
            goto fail;
        }
        if (!ok_truthy) {
            PyObject *defused = SLOT(event, S.ev_defused);
            int d = (defused == NULL) ? 0 : PyObject_IsTrue(defused);
            if (d < 0) {
                Py_DECREF(entry);
                goto fail;
            }
            if (!d) {
                raise_event_failure(event);
                Py_DECREF(entry);
                goto fail;
            }
        }
        Py_DECREF(entry);
    }

    Py_DECREF(urgent);
    Py_DECREF(fifo);
    Py_DECREF(heap);
    Py_RETURN_NONE;
fail:
    Py_DECREF(urgent);
    Py_DECREF(fifo);
    Py_DECREF(heap);
    return NULL;
}

/* --------------------------------------------------------- constructors */

/* Allocate an instance of `tp` (a Python slots class) with GC tracking,
 * all slots NULL.  Caller fills the slots before anyone can see it. */
static PyObject *
alloc_instance(PyTypeObject *tp)
{
    return tp->tp_alloc(tp, 0);
}

static PyObject *
speedups_make_event(PyObject *self, PyObject *env)
{
    (void)self;
    if (!S.bound) {
        PyErr_SetString(PyExc_RuntimeError, "_speedups not bound");
        return NULL;
    }
    PyObject *ev = alloc_instance(S.Event);
    if (ev == NULL)
        return NULL;
    PyObject *cbs = PyList_New(0);
    if (cbs == NULL) {
        Py_DECREF(ev);
        return NULL;
    }
    Py_INCREF(env);
    SLOT(ev, S.ev_env) = env;
    SLOT(ev, S.ev_callbacks) = cbs;
    Py_INCREF(S.pending);
    SLOT(ev, S.ev_value) = S.pending;
    Py_INCREF(Py_True);
    SLOT(ev, S.ev_ok) = Py_True;
    Py_INCREF(Py_False);
    SLOT(ev, S.ev_defused) = Py_False;
    return ev;
}

static PyObject *
speedups_make_timeout(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                      PyObject *kwnames)
{
    (void)self;
    if (!S.bound) {
        PyErr_SetString(PyExc_RuntimeError, "_speedups not bound");
        return NULL;
    }
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "make_timeout(env, delay, value=None)");
        return NULL;
    }
    PyObject *env = args[0];
    PyObject *delay = args[1];
    PyObject *value = (nargs > 2) ? args[2] : NULL;
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            int is_value = PyUnicode_CompareWithASCIIString(name, "value") == 0;
            if (!is_value) {
                PyErr_Format(PyExc_TypeError,
                             "make_timeout() got an unexpected keyword "
                             "argument %R",
                             name);
                return NULL;
            }
            if (value != NULL) {
                PyErr_SetString(PyExc_TypeError,
                                "make_timeout() got multiple values for "
                                "'value'");
                return NULL;
            }
            value = args[nargs + i];
        }
    }
    if (value == NULL)
        value = Py_None;

    double d = PyFloat_AsDouble(delay);
    if (d == -1.0 && PyErr_Occurred())
        return NULL;
    /* Mirror Timeout.__init__: the else-branch (negative *or* NaN delay)
     * raises before any eid is consumed. */
    if (!(d > 0.0) && !(d == 0.0)) {
        PyErr_Format(PyExc_ValueError, "Negative delay %S", delay);
        return NULL;
    }

    PyObject *to = alloc_instance(S.Timeout);
    if (to == NULL)
        return NULL;
    PyObject *cbs = PyList_New(0);
    if (cbs == NULL) {
        Py_DECREF(to);
        return NULL;
    }
    Py_INCREF(env);
    SLOT(to, S.ev_env) = env;
    SLOT(to, S.ev_callbacks) = cbs;
    Py_INCREF(value);
    SLOT(to, S.ev_value) = value;
    Py_INCREF(Py_True);
    SLOT(to, S.ev_ok) = Py_True;
    Py_INCREF(delay);
    SLOT(to, S.to_delay) = delay;
    /* _defused intentionally left unset, like the interpreted Timeout. */

    PyObject *eid = bump_eid(env);
    if (eid == NULL) {
        Py_DECREF(to);
        return NULL;
    }
    PyObject *entry = PyTuple_New(4);
    if (entry == NULL) {
        Py_DECREF(eid);
        Py_DECREF(to);
        return NULL;
    }
    PyObject *now = SLOT(env, S.env_now);
    if (d > 0.0) {
        PyObject *at;
        if (PyFloat_CheckExact(now)) {
            at = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now) + d);
        }
        else {
            at = PyNumber_Add(now, delay);
        }
        if (at == NULL) {
            Py_DECREF(entry);
            Py_DECREF(eid);
            Py_DECREF(to);
            return NULL;
        }
        PyTuple_SET_ITEM(entry, 0, at);
    }
    else {
        Py_INCREF(now);
        PyTuple_SET_ITEM(entry, 0, now);
    }
    Py_INCREF(S.normal_int);
    PyTuple_SET_ITEM(entry, 1, S.normal_int);
    PyTuple_SET_ITEM(entry, 2, eid); /* stolen */
    Py_INCREF(to);
    PyTuple_SET_ITEM(entry, 3, to);

    int st;
    if (d > 0.0) {
        st = heap_push(SLOT(env, S.env_heap), entry);
    }
    else {
        PyObject *vargs[2] = {SLOT(env, S.env_fifo), entry};
        PyObject *r = PyObject_Vectorcall(S.deque_append, vargs, 2, NULL);
        st = (r == NULL) ? -1 : 0;
        Py_XDECREF(r);
    }
    Py_DECREF(entry);
    if (st < 0) {
        Py_DECREF(to);
        return NULL;
    }
    return to;
}

/* -------------------------------------------------------------- binding */

static Py_ssize_t
member_offset(PyTypeObject *tp, const char *name)
{
    PyObject *mro = tp->tp_mro;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(mro); i++) {
        PyTypeObject *base = (PyTypeObject *)PyTuple_GET_ITEM(mro, i);
        if (base->tp_dict == NULL)
            continue;
        PyObject *d = PyDict_GetItemString(base->tp_dict, name);
        if (d == NULL)
            continue;
        if (Py_TYPE(d) != &PyMemberDescr_Type) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a slot descriptor",
                         tp->tp_name, name);
            return -1;
        }
        return ((PyMemberDescrObject *)d)->d_member->offset;
    }
    PyErr_Format(PyExc_AttributeError, "%s has no slot %s", tp->tp_name,
                 name);
    return -1;
}

static PyObject *
bind_get(PyObject *ns, const char *name)
{
    PyObject *v = PyDict_GetItemString(ns, name);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "_bind namespace missing %s", name);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

static PyObject *
speedups_bind(PyObject *self, PyObject *ns)
{
    (void)self;
    if (!PyDict_Check(ns)) {
        PyErr_SetString(PyExc_TypeError, "_bind expects a dict");
        return NULL;
    }
#define GET(field, name)                                                      \
    do {                                                                      \
        PyObject *v = bind_get(ns, name);                                     \
        if (v == NULL)                                                        \
            return NULL;                                                      \
        S.field = (void *)v;                                                  \
    } while (0)
    GET(Environment, "Environment");
    GET(Event, "Event");
    GET(Timeout, "Timeout");
    GET(Process, "Process");
    GET(Timer, "Timer");
    GET(SimulationError, "SimulationError");
    GET(pending, "PENDING");
    GET(normal_int, "NORMAL");
#undef GET
    PyObject *deque_type = bind_get(ns, "deque");
    if (deque_type == NULL)
        return NULL;
    S.deque_popleft = PyObject_GetAttrString(deque_type, "popleft");
    S.deque_append = PyObject_GetAttrString(deque_type, "append");
    Py_DECREF(deque_type);
    if (S.deque_popleft == NULL || S.deque_append == NULL)
        return NULL;

#define OFF(field, tp, name)                                                  \
    do {                                                                      \
        Py_ssize_t o = member_offset(S.tp, name);                             \
        if (o < 0)                                                            \
            return NULL;                                                      \
        S.field = o;                                                          \
    } while (0)
    OFF(env_now, Environment, "_now");
    OFF(env_urgent, Environment, "_urgent");
    OFF(env_fifo, Environment, "_fifo");
    OFF(env_heap, Environment, "_heap");
    OFF(env_eid, Environment, "_eid");
    OFF(env_active, Environment, "_active_proc");
    OFF(ev_env, Event, "env");
    OFF(ev_callbacks, Event, "callbacks");
    OFF(ev_value, Event, "_value");
    OFF(ev_ok, Event, "_ok");
    OFF(ev_defused, Event, "_defused");
    OFF(to_delay, Timeout, "delay");
    OFF(pr_send, Process, "_send");
    OFF(pr_target, Process, "_target");
#undef OFF

#define INTERN(field, text)                                                   \
    do {                                                                      \
        S.field = PyUnicode_InternFromString(text);                           \
        if (S.field == NULL)                                                  \
            return NULL;                                                      \
    } while (0)
    INTERN(s_pop_shot, "_pop_shot");
    INTERN(s_resume, "_resume");
    INTERN(s_fail_nonevent, "_fail_nonevent");
    INTERN(s_callbacks, "callbacks");
    INTERN(s_value, "value");
    INTERN(s_append, "append");
    INTERN(s_is_timer, "_is_timer");
#undef INTERN

    S.bound = 1;
    Py_RETURN_NONE;
}

/* --------------------------------------------------------------- module */

static PyMethodDef speedups_methods[] = {
    {"drain", speedups_drain, METH_O,
     "drain(env) -- run the event loop until the queue empties.\n"
     "Exceptions (including StopSimulation) propagate to the caller."},
    {"make_event", speedups_make_event, METH_O,
     "make_event(env) -> Event (C construction path)."},
    {"make_timeout", (PyCFunction)(void (*)(void))speedups_make_timeout,
     METH_FASTCALL | METH_KEYWORDS,
     "make_timeout(env, delay, value=None) -> Timeout (C construction "
     "path)."},
    {"_bind", speedups_bind, METH_O,
     "_bind(namespace) -- hand the kernel classes to the compiled lane.\n"
     "Called once from repro.sim.environment at import time."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._speedups",
    "C hot loop + event factories for the repro.sim kernel "
    "(REPRO_SIM_COMPILED=1).",
    -1,
    speedups_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    memset(&S, 0, sizeof(S));
    return PyModule_Create(&speedups_module);
}
