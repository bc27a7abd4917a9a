"""Formula code recorded as a list of bound ufunc calls.

A stage kernel is written once, as numpy formula code, and runs at once
on arrays.  Inside record() the same code runs on stand-ins (Ref) of the
arrays: each ufunc call and item assignment is appended to a list, and a
public kernel reached through call() becomes one entry (kernel, (*inputs,
work)) whose work (out, calls) holds its formula's calls, which run()
replays.  place() puts every temporary in one flat scratch buffer:
- a result takes the slot of a same-shape operand whose last use is its
  call (the in-place pattern), else the lowest free slot;
- `dst[k] = expr` makes the call that formed expr write dst[k] when that
  call is the one just recorded and nothing uses its result afterwards;
  otherwise the assignment is recorded as a copy;
- a Python number becomes a cached read-only 0-d float64 array (const).
"""

from __future__ import annotations

import math
from functools import partial
from operator import is_

import numpy as np

_active = None  # the Recorder that formula code records into, if any
_CONSTS = {}
# numpy 2 deprecates a third positional argument of these: out is a keyword
_KEYWORD_OUT = (np.maximum, np.minimum)
_PREDICATES = (np.greater, np.greater_equal, np.less, np.less_equal)
_FLOAT, _FLAG = np.dtype(float), np.dtype(bool)
_STAND_IN = np.zeros(1)


def const(x) -> np.ndarray:
    """x as a cached read-only 0-d float64 array.  A ufunc call dispatches
    on it about 150 ns faster than on a Python float, with the same bits."""
    key = x if x else str(x)  # the text tells -0.0 from 0.0
    c = _CONSTS.get(key)
    if c is None:
        c = _CONSTS[key] = np.array(x, dtype=float)
        c.flags.writeable = False
    return c


def empty(*shape):
    """A new float array of shape, or a recorded temporary of it."""
    return np.empty(shape) if _active is None else _active.temp(shape)


def wrap(x):
    """x as formula code reads it: x, or its stand-in while recording."""
    return x if _active is None else _active.wrap(x)


def call(kernel, formula, *args):
    """kernel(*args) in formula code, args ending with the out that takes
    the result: called at once, or recorded as one entry whose work holds
    formula(*args)'s calls."""
    if _active is None:
        return kernel(*args)
    return _active.entry(kernel, formula, args[:-1], args[-1])


def run(work, formula, *args):
    """A kernel's result: work's calls replayed when work is bound (out,
    calls), else formula(*args, work), work being its out or None."""
    if type(work) is tuple:
        for f, a in work[1]:
            f(*a)
        return work[0]
    return formula(*args, work)


def record(formula, *args) -> Recorder:
    """The placed Recorder of formula(*args) on the stand-ins of args."""
    global _active
    rec, outer = Recorder(), _active
    _active = rec
    try:
        formula(*map(rec.wrap, args))
    finally:
        _active = outer
    rec.place()
    return rec


def moved(calls, move, same: set) -> list:
    """The bound calls with move applied to every operand, through a
    kernel's work (out, calls), and to the array that a copy (its
    __setitem__) or a partial's keywords are bound to; calls itself where
    move changes nothing.  same holds the ids of entries that move leaves
    alone, which it skips, and it adds those it finds."""
    out = []
    for entry in calls:
        if id(entry) not in same:
            f, a = entry
            if type(f) is partial:
                kw = {k: move(v) for k, v in f.keywords.items()}
                if any(kw[k] is not v for k, v in f.keywords.items()):
                    f = partial(f.func, **kw)
            elif (type(arr := getattr(f, "__self__", None)) is np.ndarray
                  and move(arr) is not arr):
                f = move(arr).__setitem__
            b = tuple(_moved_work(x, move, same)
                      if type(x) is tuple and type(x[-1]) is list else move(x)
                      for x in a)
            if f is entry[0] and all(map(is_, a, b)):
                same.add(id(entry))
            else:
                entry = f, b
        out.append(entry)
    return calls if all(map(is_, out, calls)) else out


def _moved_work(work, move, same):
    out, calls = move(work[0]), moved(work[1], move, same)
    return work if out is work[0] and calls is work[1] else (out, calls)


def _op(f, swap=False, inplace=False):
    if inplace:
        return lambda a, b: _active.ufunc(f, (a, b), a)
    return lambda a, b: _active.ufunc(f, (b, a) if swap else (a, b))


class Ref:
    """The stand-in of an array: an operand (root None, arr the array), a
    temporary (root itself) or a view of one (keys its indices, arr a
    zero-stride array of its shape).  subs holds its views, view the array
    that bind() gives it; a temporary also holds its dtype, the first and
    the last call that use it, and once placed its slot."""

    __slots__ = ("root", "keys", "arr", "shape", "subs", "view", "dtype",
                 "first", "last", "slot")

    def __init__(self, root, keys, arr, shape):
        self.root, self.keys, self.arr, self.shape = root, keys, arr, shape
        self.subs = self.view = self.slot = None

    def __iter__(self):
        return (self[k] for k in range(self.shape[0]))

    def __getitem__(self, key):
        return _active.sub(self, key)

    def __setitem__(self, key, value):
        _active.store(_active.sub(self, key), value)

    def __array_ufunc__(self, f, method, *inputs, out=None, where=True, **kw):
        if method != "__call__" or kw:
            return NotImplemented
        return _active.ufunc(f, inputs, out and out[0],
                             None if where is True else where)

    def __neg__(self):
        return _active.ufunc(np.negative, (self,))

    def __abs__(self):
        return _active.ufunc(np.absolute, (self,))

    __ge__, __gt__ = _op(np.greater_equal), _op(np.greater)
    __le__, __lt__ = _op(np.less_equal), _op(np.less)


# a + b, b + a and a += b of each arithmetic ufunc
for _f, _name in ((np.add, "add"), (np.subtract, "sub"),
                  (np.multiply, "mul"), (np.divide, "truediv")):
    for _pre, _k in (("", ()), ("r", (True,)), ("i", (False, True))):
        setattr(Ref, f"__{_pre}{_name}__", _op(_f, *_k))


class Recorder:
    """The calls of formula code run on stand-ins, in order: calls holds
    [func, operands, out, where] (func None for a copy), and lists the
    list being recorded, innermost last, of call indices and entries
    (kernel, inputs, out, list); place() sets size."""

    def __init__(self):
        self.calls, self.temps, self.stores, self.lists = [], [], [], [[]]
        self.copies, self.real = {}, {}
        self.size = 0

    def wrap(self, x):
        """x's stand-in: a Ref of an array, a tuple of stand-ins, or one
        copy per object that makes one (_recorded), else x."""
        if isinstance(x, np.ndarray):
            return Ref(None, (), x, x.shape)
        if type(x) is tuple:
            return tuple(map(self.wrap, x))
        if not hasattr(x, "_recorded"):
            return x
        if id(x) not in self.copies:
            self.copies[id(x)] = w = x._recorded(self.wrap)
            self.real[id(w)] = x
        return self.copies[id(x)]

    def temp(self, shape, dtype=_FLOAT):
        t = Ref(None, (), None, shape)
        t.root, t.dtype, t.first = t, dtype, len(self.calls)
        t.last = t.first
        self.temps.append(t)
        return t

    def sub(self, ref: Ref, key) -> Ref:
        """ref[key], one Ref per view, so that a call that writes a view
        it reads is bound to one array for both: numpy checks two arrays
        of one memory for overlap, at ~0.3 us a call."""
        if ref.subs is None:
            ref.subs = {}
        # slices are unhashable before Python 3.12
        k = key if type(key) is int else repr(key)
        v = ref.subs.get(k)
        if v is None:
            arr, t = ref.arr, ref.root
            if arr is None:
                arr = np.ndarray(t.shape, t.dtype, _STAND_IN,
                                 strides=(0,) * len(t.shape))
            arr = arr[key]
            v = ref.subs[k] = Ref(t, ref.keys + (key,), arr, arr.shape)
        return v

    @staticmethod
    def _use(i, *refs):
        """Mark the temporaries that refs view as used by call i."""
        for x in refs:
            if type(x) is Ref and x.root is not None and x.root.last < i:
                x.root.last = i

    def ufunc(self, f, inputs, out=None, where=None):
        i = len(self.calls)
        operands = tuple([x if type(x) is Ref or type(x) is np.ndarray
                          else const(x) for x in inputs])
        if out is None:
            shape = None
            for x in operands:
                if x.shape != shape:
                    shape = (x.shape if shape is None or not shape
                             else shape if not x.shape
                             else np.broadcast_shapes(shape, x.shape))
            out = self.temp(shape, _FLAG if f in _PREDICATES else _FLOAT)
        elif type(out) is not Ref:
            out = self.wrap(out)
        self._use(i, out, where, *operands)
        self.calls.append([f, operands, out, where])
        self.lists[-1].append(i)
        return out

    def store(self, dst: Ref, src):
        """dst[...] = src: nothing for x[k] op= y's store of x[k] into
        itself, else a copy, which place() may turn into a retarget."""
        if src is dst:
            return
        if type(src) is not Ref:
            src = self.wrap(src if type(src) is np.ndarray else const(src))
        i, t = len(self.calls), src.root
        last = self.calls[-1] if i else None
        self.calls.append([None, (src,), dst, None])
        self.lists[-1].append(i)
        self._use(i, src, dst)
        if (t is src and t.first == i - 1 and last[0] is not None
                and last[2] is src and t.shape == dst.shape
                and t.dtype == dst.arr.dtype):
            self.stores.append(i)

    def entry(self, kernel, formula, inputs, out):
        sub = []
        self.lists[-1].append((kernel, inputs, out, sub))
        self.lists.append(sub)
        formula(*inputs, out)
        self.lists.pop()
        # what the kernel is passed lives through its calls
        self._use(len(self.calls) - 1, out, *inputs)
        return out

    def place(self):
        """Retarget the stores that can be, then give each temporary its
        slot (the rules of the module docstring) and find size."""
        calls = self.calls
        for i in self.stores:
            src, dst = calls[i][1][0], calls[i][2]
            if src.last == i:
                calls[i - 1][2], calls[i], src.first = dst, None, -1
                if dst.root is not None:
                    dst.root.first = min(dst.root.first, i - 1)
        born, dying, live = {}, {}, {}
        for t in self.temps:
            if t.first >= 0:
                born.setdefault(t.first, []).append(t)
                dying.setdefault(t.last, []).append(t)
        for i, c in enumerate(calls):
            for t in born.get(i, ()):
                # a donor: a same-shape operand whose last use is this call
                donor = next((x for x in c[1] if c[2] is t and type(x) is Ref
                              and x.root is x and x in live and x.last == i
                              and x.shape == t.shape and x.dtype is t.dtype),
                             None) if c is not None else None
                if donor is not None:
                    live[t] = live.pop(donor)
                else:
                    # the lowest span clear of the live ones; flags are
                    # packed eight to a float
                    n = math.prod(t.shape)
                    n = n if t.dtype is _FLOAT else -(-n // 8)
                    at = 0
                    for a, b in sorted(live.values()):
                        if a - at >= n:
                            break
                        at = max(at, b)
                    live[t] = at, at + n
                t.slot = live[t][0]
                self.size = max(self.size, live[t][1])
            for t in dying.get(i, ()):
                live.pop(t, None)

    def bind(self, scratch: np.ndarray) -> list:
        """The recorded list, its temporaries placed in scratch; those of
        one slot and shape share one view, as views of one Ref do (sub)."""
        whole = {}
        for t in self.temps:
            if t.slot is not None:
                key = t.slot, t.shape, t.dtype
                if key not in whole:
                    n = math.prod(t.shape)
                    v = scratch[t.slot:]
                    v = v[:n] if t.dtype is _FLOAT else v.view(bool)[:n]
                    whole[key] = v.reshape(t.shape)
                t.view = whole[key]
        bound = self._bound(self.lists[0])
        # a temporary is its own root and holds its views: without the
        # cycle, the stand-ins go with the recorder, and not at a later
        # collection that would find the scratch of a dropped workspace
        for t in self.temps:
            t.root = t.subs = None
        return bound

    @staticmethod
    def _array(x):
        if type(x) is not Ref:
            return x
        if x.view is None:
            x.view = x.arr if x.root is None else x.root.view
            for k in () if x.root is None else x.keys:
                x.view = x.view[k]
        return x.view

    def _bound(self, items):
        bound = []
        for item in items:
            if type(item) is not int:
                kernel, inputs, out, sub = item
                work = self._array(out), self._bound(sub)
                inputs = [const(x) if type(x) in (float, int)
                          else self.real.get(id(x), self._array(x))
                          for x in inputs]
                bound.append((kernel, (*inputs, work)))
            elif self.calls[item] is not None:
                f, operands, out, where = self.calls[item]
                a, out = tuple(map(self._array, operands)), self._array(out)
                if f is None:
                    f, a, out = out.__setitem__, (Ellipsis, a[0]), None
                elif f in _KEYWORD_OUT:
                    f, out = partial(f, out=out), None
                if where is not None:
                    f = partial(f, where=self._array(where))
                bound.append((f, a if out is None else a + (out,)))
        return bound
