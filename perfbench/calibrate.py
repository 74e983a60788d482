"""A fixed slice of reference work that measures the machine's current speed.

The host this benchmark was written on changes speed by up to 1.9x for
minutes at a time (see README.md), so the same pass takes very different
wall times in different minutes.  reference_work() imitates the three kinds
of interpreter work helikon spends its time on -- theta q-series with
complex powers and sines, isinstance-dispatched expression-tree walking,
and heap-driven Dijkstra over adjacency lists -- in code of its own that no
change to helikon can touch.  Timing it beside the work gives the speed
the work ran at.
"""

import cmath
import heapq
import signal
import time

# the time of one reference_work() call in the host's fast state when the
# benchmark was written: the speed that scaled times are expressed at
REFERENCE_SLICE_S = 0.0027


class _Node:
    __slots__ = ()


class _Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Var(_Node):
    __slots__ = ()


class _Add(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class _Mul(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class _Exp(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


def _walk(node, u):
    if isinstance(node, _Const):
        return node.value
    if isinstance(node, _Var):
        return u
    if isinstance(node, _Add):
        return _walk(node.a, u) + _walk(node.b, u)
    if isinstance(node, _Mul):
        return _walk(node.a, u) * _walk(node.b, u)
    if isinstance(node, _Exp):
        return cmath.exp(_walk(node.arg, u))
    raise TypeError(node)


# 0.5 * (exp(-i u) - exp(i u)) * (1 + u): the shape of a plane integrand
_TREE = _Mul(
    _Mul(_Const(0.5), _Add(_Exp(_Mul(_Const(-1j), _Var())),
                           _Mul(_Const(-1.0), _Exp(_Mul(_Const(1j), _Var()))))),
    _Add(_Const(1.0), _Var()),
)


def _theta1(v, q, terms=12):
    total = 0j
    sign = 1.0
    for n in range(terms):
        half = n + 0.5
        total += sign * (q ** (half * half)) * cmath.sin((2 * n + 1) * v)
        sign = -sign
    return 2.0 * total


def _dijkstra(adjacency, source):
    dist = [float("inf")] * len(adjacency)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, length in adjacency[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _grid(n):
    adjacency = [[] for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            k = i * n + j
            for a, b in ((i + 1, j), (i, j + 1)):
                if a < n and b < n:
                    length = 1.0 + 0.1 * ((k * 7919) % 13)
                    adjacency[k].append((a * n + b, length))
                    adjacency[a * n + b].append((k, length))
    return adjacency


_GRID = _grid(24)
_Q = cmath.exp(-cmath.pi * 0.8 + 0.3j * cmath.pi)


def reference_work():
    """One slice of fixed work; returns a checksum so none of it is skipped."""
    acc = 0j
    for k in range(160):
        u = complex(0.01 * k - 0.8, 0.005 * k - 0.4)
        acc += _theta1(cmath.pi * u, _Q)
        acc += _walk(_TREE, u)
    acc += sum(_dijkstra(_GRID, s)[-1] for s in (0, 17, 288))
    return acc


def scaled(wall, slice_before, slice_after):
    """wall seconds expressed at the reference speed, the machine's speed
    taken as the mean of the slices timed just before and just after."""
    return wall * REFERENCE_SLICE_S / (0.5 * (slice_before + slice_after))


class SpeedClock:
    """Samples the machine's speed every interval seconds while running.

    A SIGALRM handler times one slice between two bytecodes of whatever
    runs, so a single long call is sampled throughout.  seconds(t0, t1)
    gives the wall time of [t0, t1] without the slices in it, and the same
    time at the reference speed, each gap between two slices taken at the
    mean speed of the two.
    """

    def __init__(self, interval=0.2):
        self.interval = interval
        self.ticks = []  # (start, end, slice seconds)

    def _tick(self, *_):
        t0 = time.perf_counter()
        d = timed_slice(repeats=2)
        self.ticks.append((t0, time.perf_counter(), d))

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def seconds(self, t0, t1):
        """(wall seconds, seconds at the reference speed) spent in [t0, t1]."""
        wall = at_ref = 0.0
        for (_, a, d0), (b, _, d1) in zip(self.ticks, self.ticks[1:]):
            overlap = min(b, t1) - max(a, t0)
            if overlap > 0:
                wall += overlap
                at_ref += overlap * REFERENCE_SLICE_S / (0.5 * (d0 + d1))
        return wall, at_ref


def timed_slice(repeats):
    """Fastest wall seconds of repeated reference_work() calls.

    The minimum drops an interrupt that lands in one call; a change of the
    machine's speed lasts far longer than the calls and so is kept.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best
