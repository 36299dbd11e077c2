"""Brute-force helpers for the test suite.

These reimplement checks at element granularity, independently of the
library's interval-based machinery, so the two can be compared.  The
quadratic conflict checker, the heap-based Kahn pass, the queue-scanning
virtual replay, the row/column loops of the LU kernels, the one-line GEMM
expression, the one-expression dominant matrix, the flop formulas of
the overlay's old run adapters, and the tensordot convolution and
axis-reduce pool of the CNN kernels, all once used by the library, are kept
here as the references for their replacements.  reference_split_lu writes
the LU kernels' current split out again, to pin their bits on any BLAS.
"""

import heapq
import itertools

import numpy as np

from overlaysim.errors import ShapeError, SingularPivotError
from overlaysim.kernels import BLOCK, pivot_epsilon
from overlaysim.overlay import IpDescriptor, Overlay, command
from overlaysim.runtime import VIRTUAL_TIME_DIVISOR, Conflict, TraceRecord


def element_footprint(acc):
    """Expand an access set into (reads, writes) sets of (buffer, coord) pairs."""
    coords = set(itertools.product(*(range(lo, hi) for lo, hi in acc.ranges)))
    tagged = {(acc.buffer_id, c) for c in coords}
    reads = tagged if acc.mode in ("read", "read_write") else set()
    writes = tagged if acc.mode in ("write", "read_write") else set()
    return reads, writes


def task_footprint(task):
    reads, writes = set(), set()
    for acc in task.access_sets:
        r, w = element_footprint(acc)
        reads |= r
        writes |= w
    return reads, writes


def ordered_pairs(graph):
    """Happens-before closure computed by plain BFS over the edge pairs."""
    succs = {t.id: set() for t in graph.tasks}
    for pre, dep in graph.edge_pairs():
        succs[pre].add(dep)
    closure = {}
    for t in graph.tasks:
        seen = set()
        stack = list(succs[t.id])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succs[node])
        closure[t.id] = seen
    return closure


def element_level_races(graph):
    """All unordered task pairs that touch a common element with a write."""
    closure = ordered_pairs(graph)
    feet = {t.id: task_footprint(t) for t in graph.tasks}
    races = set()
    tasks = sorted(graph.tasks, key=lambda t: t.id)
    for i, t1 in enumerate(tasks):
        for t2 in tasks[i + 1:]:
            if t2.id in closure[t1.id] or t1.id in closure[t2.id]:
                continue
            r1, w1 = feet[t1.id]
            r2, w2 = feet[t2.id]
            if (w1 & (r2 | w2)) or (w2 & (r1 | w1)):
                races.add((t1.id, t2.id))
    return races


def reference_conflicts(graph):
    """The quadratic conflict checker: every task pair, probed against per-task closures.

    The reference for runtime.check_dependence_sufficiency, which must return
    the same list in the same order.
    """
    closure = ordered_pairs(graph)
    order = sorted(graph.tasks, key=lambda t: t.id)
    conflicts = []
    for i, t1 in enumerate(order):
        for t2 in order[i + 1:]:
            if t2.id in closure[t1.id] or t1.id in closure[t2.id]:
                continue
            seen = set()
            for s1 in t1.access_sets:
                for s2 in t2.access_sets:
                    overlap = s1.conflict(s2)
                    if overlap is None:
                        continue
                    key = (s1.buffer_id, overlap, s1.mode, s2.mode)
                    if key in seen:
                        continue
                    seen.add(key)
                    conflicts.append(Conflict(t1.id, t2.id, s1.buffer_id,
                                              overlap, (s1.mode, s2.mode)))
    return conflicts


def reference_topological_order(ids, edges):
    """Kahn's algorithm on a min-heap of ready ids, the pass TaskGraph ran for
    every graph before it took the sorted ids of a forward-only one.

    Takes the task ids and the (pre, dep) edges, repeats allowed.  Returns
    the lowest-id topological order, or the shorter prefix peeled off before
    the tasks left all sit on or behind a cycle.
    """
    succs = {tid: set() for tid in ids}
    for pre, dep in set(edges):
        succs[pre].add(dep)
    waiting = {tid: 0 for tid in ids}
    for deps in succs.values():
        for dep in deps:
            waiting[dep] += 1
    ready = [tid for tid, d in waiting.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        for nxt in succs[tid]:
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order


def reference_virtual_schedule(graph, flops, worker_count):
    """The queue-scanning replay: a task is eligible when it heads its queue,
    has not started and all its predecessors are done.

    With the flops each task's body returns, the reference for runtime.run,
    which must return the same records in the same order.
    """
    queues = {}
    for t in sorted(graph.tasks, key=lambda t: t.id):
        queues.setdefault(t.queue_no, []).append(t)
    queue_pos = {q: 0 for q in queues}
    duration = {tid: max(1, flops.get(tid, 0) // VIRTUAL_TIME_DIVISOR)
                for tid in graph.by_id}
    done = set()
    started = set()
    free = list(range(worker_count))
    heapq.heapify(free)
    running = []  # (end, slot, task id)
    records = []
    clock = 0

    def eligible():
        out = []
        for q, fifo in queues.items():
            pos = queue_pos[q]
            if pos < len(fifo):
                head = fifo[pos]
                if head.id not in started and graph.preds[head.id] <= done:
                    out.append(head)
        return sorted(out, key=lambda t: t.id)

    while len(done) < len(graph.tasks):
        for t in eligible():
            if not free:
                break
            slot = heapq.heappop(free)
            end = clock + duration[t.id]
            records.append(TraceRecord(t.id, t.kind, t.iteration, t.queue_no,
                                       clock, end, slot))
            heapq.heappush(running, (end, slot, t.id))
            started.add(t.id)
        end, slot, tid = heapq.heappop(running)
        clock = end
        batch = [(slot, tid)]
        while running and running[0][0] == clock:
            _, s2, t2 = heapq.heappop(running)
            batch.append((s2, t2))
        for s, t in batch:
            heapq.heappush(free, s)
            done.add(t)
            queue_pos[graph.by_id[t].queue_no] += 1
    records.sort(key=lambda r: (r.vstart, r.id))
    return records


def reference_dominant_matrix(n, m, seed, dtype):
    """apps.dominant_matrix as one expression, with the identity, the scaled
    identity, the sum and the converted copy it once allocated."""
    size = n * m
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1.0, 1.0, (size, size)) + size * np.eye(size)).astype(dtype)


def reference_lu_factor_block(a):
    """The rank-1 loop kernels.lu_factor_block once ran, in place on an array."""
    m = a.shape[0]
    eps = pivot_epsilon(a.dtype)
    for k in range(m):
        pivot = a[k, k]
        if abs(pivot) < eps:
            raise SingularPivotError(k, float(pivot))
        a[k + 1:, k] /= pivot
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])


def reference_split_lu(a, n, m):
    """Blocked LU of the (n*m)-square array a in place, for m above BLOCK.

    The steps of apps.lu (factor, row panel, column panel, trailing update),
    with the kernels' recursion written out again: every triangular solve
    and every factor halves down to order BLOCK, a solve leaf is one matmul
    by the inverse of its triangle, a factor leaf runs the rank-1 loop, and
    each product is formed in the memory order of the array it updates.  On
    any BLAS, the kernels give this function's bits exactly as long as they
    run the same split.  Pivots are not checked.
    """
    assert m > BLOCK

    def solve(lower, x, unit):
        order = lower.shape[0]
        if order > BLOCK:
            h = order // 2
            solve(lower[:h, :h], x[:h], unit)
            x[h:] -= np.matmul(lower[h:, :h], x[:h], out=np.empty_like(x[h:]))
            solve(lower[h:, h:], x[h:], unit)
            return
        tri = np.tril(lower, -1 if unit else 0)
        if unit:
            np.fill_diagonal(tri, 1)
        x[...] = np.matmul(np.linalg.inv(tri), x, out=np.empty_like(x))

    def factor(b):
        order = b.shape[0]
        if order > BLOCK:
            h = order // 2
            factor(b[:h, :h])
            solve(b[:h, :h], b[:h, h:], unit=True)
            solve(b[:h, :h].T, b[h:, :h].T, unit=False)  # X U = T as U^T X^T = T^T
            b[h:, h:] -= b[h:, :h] @ b[:h, h:]
            factor(b[h:, h:])
            return
        for k in range(order):
            col = b[k + 1:, k]
            col /= b[k, k]
            b[k + 1:, k + 1:] -= col[:, None] * b[k, k + 1:]

    for i in range(n):
        head, tail = slice(i * m, (i + 1) * m), slice((i + 1) * m, n * m)
        factor(a[head, head])
        if i < n - 1:
            solve(a[head, head], a[head, tail], unit=True)
            solve(a[head, head].T, a[tail, head].T, unit=False)
            # gemm with alpha 1, beta -1, gamma 1: gamma scales a copy of B
            a[tail, tail] -= a[tail, head] @ (1.0 * a[head, tail])


def reference_transform_row_panel(a):
    """The row loop kernels.transform_row_panel once ran, in place on an m x (k*m) array."""
    m = a.shape[0]
    lower = a[:, :m]
    trailing = a[:, m:]
    # forward substitution with unit diagonal, all trailing columns at once
    for r in range(1, m):
        trailing[r, :] -= lower[r, :r] @ trailing[:r, :]


def reference_transform_column_panel(a):
    """The column loop kernels.transform_column_panel once ran, in place on a (k*m) x m array."""
    m = a.shape[1]
    upper = a[:m, :]
    trailing = a[m:, :]
    eps = pivot_epsilon(a.dtype)
    for c in range(m):
        diag = upper[c, c]
        if abs(diag) < eps:
            raise SingularPivotError(c, float(diag))
        if c:
            trailing[:, c] -= trailing[:, :c] @ upper[:c, c]
        trailing[:, c] /= diag


def reference_gemm(cm, am, bm, alpha, beta, gamma):
    """The one expression kernels.gemm once ran, in place on C's array."""
    cm[...] = alpha * cm + beta * (am @ (gamma * bm))


def reference_conv2d_same(arr, wt):
    """The np.tensordot tap loop kernels._conv2d_same once ran."""
    h, w, cin = arr.shape
    kh, kw, wcin, cout = wt.shape
    if wcin != cin:
        raise ShapeError(f"convolution: input has {cin} channels, weights expect {wcin}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, cin), dtype=np.result_type(arr, wt))
    padded[ph:ph + h, pw:pw + w, :] = arr
    out = np.zeros((h, w, cout), dtype=padded.dtype)
    for u in range(kh):
        for v in range(kw):
            out += np.tensordot(padded[u:u + h, v:v + w, :], wt[u, v], axes=([2], [0]))
    return out


def reference_conv2d_taps(arr, wt):
    """The per-tap loop kernels._conv2d_same once ran: one `@` per tap on a
    window of the padded map, added in tap order into a zeroed output."""
    h, w, cin = arr.shape
    kh, kw, wcin, cout = wt.shape
    if wcin != cin:
        raise ShapeError(f"convolution: input has {cin} channels, weights expect {wcin}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, cin), dtype=np.result_type(arr, wt))
    padded[ph:ph + h, pw:pw + w, :] = arr
    out = np.zeros((h, w, cout), dtype=padded.dtype)
    for u in range(kh):
        for v in range(kw):
            out += padded[u:u + h, v:v + w, :] @ wt[u, v]
    return out


def reference_maxpool(arr):
    """The reshape-and-reduce 2x2 pool kernels.maxpool once ran on an H x W x C map."""
    h, w, c = arr.shape
    return arr.reshape(h // 2, 2, w // 2, 2, c).max(axis=(1, 3))


def reference_flops(ip_name, args, fb):
    """The flop estimate the overlay's run adapter for ip_name once computed
    from a task's arguments and the feature buffer, before the kernel ran."""
    if ip_name == "LU":
        m = args[0].shape[0]
        return (2 * m ** 3) // 3
    if ip_name == "TransformRowPanel":
        m, width = args[0].shape
        return m * m * (width - m)
    if ip_name == "TransformColumnPanel":
        height, m = args[0].shape
        return m * m * (height - m)
    if ip_name == "GEMM":
        _c, a, b = args[:3]
        return 2 * a.shape[0] * a.shape[1] * b.shape[1]
    if ip_name == "Convolution":
        x, _y, w, read_fb, _store_fb, _with_relu, is_fc = args
        if read_fb and fb is not None and fb.slot is not None:
            in_shape = fb.slot.shape
        else:
            in_shape = x.shape
        weight_work = int(np.prod(w.shape))
        if is_fc:
            return 2 * weight_work
        return 2 * in_shape[0] * in_shape[1] * weight_work
    if ip_name == "Maxpool":
        if fb is not None and fb.slot is not None:
            return int(np.prod(fb.slot.shape))
        return 0
    raise KeyError(ip_name)


def noop_overlay(n_queues):
    """An overlay of do-nothing kernels, one per queue, for scheduler tests."""
    interfaces = []
    for q in range(n_queues):
        ip = IpDescriptor(
            name=f"Noop{q}",
            signature=(),
            run=lambda args, fb: 1,
            access_sets=lambda args, fb: (),
        )
        interfaces.append(command(ip, q))
    return Overlay(f"noop{n_queues}", interfaces)
