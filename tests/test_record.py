"""The recorder (kepes.record) against eager numpy: random formula programs
over the ufuncs of the stage kernels, with Python-number operands, views,
in-place operations, item assignments (of the result just formed, which
may be retargeted, and of an older one, which is copied) and where=, give
bitwise the same arrays when replayed from their recorded calls as when
run at once, and so do they when bound again with a move to a second
set of inputs; every operand of a recorded ufunc call is an array; and
no two temporaries that are live at once share memory."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kepes.record import empty, record

N = 5
BINARY = ("+", "-", "*", "/")
UNARY = (np.negative, np.absolute, np.sign, lambda v: np.sqrt(abs(v)))
UFUNCS = (np.minimum, np.maximum, np.fmax, np.copysign)
KINDS = ("binary", "number", "unary", "ufunc", "view", "inplace", "store",
         "where", "block")

step = st.tuples(st.sampled_from(KINDS), st.integers(0, 10 ** 6),
                 st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                 st.sampled_from((0.5, -2.0, 3.0, 1e-12, 0.0)))


def binary(op, a, b):
    return (a + b if op == "+" else a - b if op == "-" else a * b
            if op == "*" else a / b)


def program(steps):
    """The formula of steps on the inputs x (3, N) and y (N,), writing
    into out (3, N); each step reads earlier values by index (taken
    modulo their count)."""

    def formula(x, y, out):
        pool = [x, y, x[0], x[2]]
        for kind, i, j, k, c in steps:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            if kind == "binary":
                pool.append(binary(BINARY[k % 4], a, b))
            elif kind == "number":
                pool.append(binary(BINARY[k % 4], *((c, a) if k % 8 < 4
                                                    else (a, c))))
            elif kind == "unary":
                pool.append(UNARY[k % len(UNARY)](a))
            elif kind == "ufunc":
                pool.append(UFUNCS[k % len(UFUNCS)](a, b))
            elif kind == "view" and len(a.shape) == 2:
                pool.append(a[k % 3])
            elif kind == "inplace" and len(a.shape) >= len(b.shape):
                if k % 2:
                    a *= b
                else:
                    a -= b
            elif kind == "store":
                if len(a.shape) == 2:
                    out[...] = a
                else:
                    out[k % 3] = a
            elif kind == "where":
                target = pool[k % len(pool)]
                if len(target.shape) >= max(len(a.shape), len(b.shape)):
                    np.divide(a, b, out=target, where=b >= c)
            elif kind == "block":
                # a temporary formed row by row, then read whole
                a, b = (v if len(v.shape) == 1 else v[1] for v in (a, b))
                block = empty(3, N)
                block[0] = a * c
                block[1:] = x[1:]
                block[2] = b
                pool.append(block)
        out += pool[-1]
        return out

    return formula


def inputs():
    rng = np.random.default_rng(0)
    return rng.uniform(-2, 2, (3, N)), rng.uniform(0.5, 2, N), np.zeros((3, N))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def moved_to(arrays, others):
    """The move (Recorder.bind) that takes a view of one of arrays to the
    same view of the array of others in its place, and leaves the rest."""

    def move(x):
        for a, b in zip(arrays, others):
            at = (x.__array_interface__["data"][0]
                  - a.__array_interface__["data"][0])
            if 0 <= at < a.nbytes:
                return np.ndarray(x.shape, x.dtype, b, at, x.strides)
        return x
    return move


@settings(max_examples=200, deadline=None)
@given(st.lists(step, min_size=1, max_size=25))
def test_replay_equals_eager(steps):
    formula = program(steps)
    with np.errstate(all="ignore"):
        want = inputs()
        formula(*want)
        got = inputs()
        rec = record(formula, *got)
        # garbage in the scratch shows a temporary read before it is
        # written
        scratch = np.full(rec.size, np.nan)
        calls = rec.bind(scratch)
        for f, a in calls:
            f(*a)
    for name, g, w in zip(("x", "y", "out"), got, want):
        assert np.array_equal(bits(g), bits(w)), name
    # the recording bound again, to the same scratch, with a move that
    # takes each view of x, y and out to the same view of a second set:
    # its calls leave the first set as it is and make the second eager's
    with np.errstate(all="ignore"):
        done = [bits(g).copy() for g in got]
        other = inputs()
        for f, a in rec.bind(scratch, moved_to(got, other)):
            f(*a)
    for name, g, d, o, w in zip(("x", "y", "out"), got, done, other, want):
        assert np.array_equal(bits(g), d), name
        assert np.array_equal(bits(o), bits(w)), f"moved {name}"
    for f, a in calls:
        if isinstance(getattr(f, "func", f), np.ufunc):
            assert all(isinstance(x, np.ndarray) for x in a), f
    placed = [t for t in rec.temps if t.slot is not None]
    for s, t in itertools.combinations(placed, 2):
        # a donor dies at the call where the result that takes its slot
        # is born
        live_together = (s.first == t.first
                         or (s.first < t.last and t.first < s.last))
        assert not (live_together and np.shares_memory(s.view, t.view))


def test_store_of_the_last_result_is_retargeted():
    # out[0] = a * b writes out[0] at once; out[1] = t, t read after, is
    # a copy
    def formula(x, y, out):
        out[0] = x[0] * y
        t = x[1] + y
        out[1] = t
        out[2] = t * 2
        return out

    rec = record(formula, *inputs())
    calls = rec.bind(np.empty(rec.size))
    names = [f.__name__ for f, _ in calls]
    assert names == ["multiply", "add", "__setitem__", "multiply"]
    assert rec.size == N
