"""Exact minimum-weight perfect matching of a complete graph, on int lists.

A port of NetworkX 3.6.1's ``max_weight_matching(G, maxcardinality=True)``
(Galil's O(n^3) primal-dual blossom algorithm, after Van Rantwijk) for the
one graph the decoder builds: nodes ``0..n-1``, every pair an edge of weight
``-dist[i][j]``, neighbours in ascending order.  It returns NetworkX's
matching, equal-weight tie choices included, because it keeps NetworkX's
order of work: the same queue, the same ascending neighbour scan, the same
strict ``<`` comparisons and the same order of the delta2, delta3 and
delta4 candidates.  Only the representation differs:

* ``G[v][w]`` reads become reads of ``dist2``, the weights doubled once per
  call; blossoms are ints ``>= n`` (numbered in creation order, which is
  NetworkX's dict order); per-vertex state lives in lists; the trampolines
  are plain recursion; the branches for ``maxcardinality=False`` and
  non-integer weights are gone.
* A tight edge is stamped with its stage (``allowed[v][w] == stage``), so a
  stage starts without clearing an n x n table.
* ``bestslack`` holds the slack of each ``bestedge``, written with it and
  refreshed after each dual update, the only place where duals move; a scan
  compares against it instead of recomputing the incumbent's slack.
  ``add_blossom`` keeps the slack of each least-slack edge it collects.
* At a stage's start, a free vertex that is its own blossom is labelled S
  and queued directly.
* With every weight off the diagonal positive, stage 1 runs in bulk: its
  first substage only records each vertex's first least-weight partner, so
  ``min`` and ``index`` per row give its outcome (see ``_solve``).

The optimality check runs on every call.

Adapted from NetworkX's algorithms/matching.py, which carries this notice:

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from itertools import chain

_INF = float("inf")  # the incumbent slack while a blossom has no least-slack edge


def min_weight_perfect_matching(dist: list[list[int]]) -> list[int]:
    """Partner of each vertex in a minimum-weight perfect matching of the
    complete graph on an even number of vertices with symmetric non-negative
    int edge weights ``dist``; raises if the result fails the optimality
    check.  The empty graph's matching is empty."""
    if not dist:
        return []
    state = _solve(dist)
    _check_optimum(dist, *state)
    return state[0]


def _solve(dist: list[list[int]]):
    """The blossom algorithm; returns ``(mate, dualvar, blossomparent,
    blossomdual, edges)``, the state that ``_check_optimum`` reads.

    Vertex and blossom ids index ``label`` (0 free, 1 S, 2 T, 5 breadcrumb),
    ``labeledge``, ``bestedge``, ``bestslack``, ``blossomparent`` and
    ``blossombase``; -1 is "no vertex".  ``dualvar`` holds 2u(v), starting at
    the largest weight, which is 0 because every weight -dist is at most 0.
    ``dist2`` holds the doubled weights; its diagonal, never an edge, holds a
    value above every weight.  ``allowed[v][w] == stage`` marks an edge found
    tight in the current stage.  ``bestslack[b]`` is the slack of
    ``bestedge[b]`` while that is set: it is written with it and refreshed
    after each dual update, the only place where duals move."""
    n = len(dist)
    dist2 = [[x + x for x in row] for row in dist]
    top = max(map(max, dist2)) + 1
    for v, row in enumerate(dist2):
        row[v] = top
    mate = [-1] * n
    label: list[int] = [0] * n
    labeledge: list = [None] * n
    bestedge: list = [None] * n
    bestslack = [0] * n
    inblossom = list(range(n))
    blossomparent = [-1] * n
    blossombase = list(range(n))
    childs: list = [None] * n  # sub-blossoms, base first, going round
    edges: list = [None] * n  # edges[b][i] joins childs[b][i] and childs[b][i+1]
    mybestedges: list = [None] * n  # least-slack edges to other S-blossoms
    dualvar = [0] * n
    blossomdual: dict[int, int] = {}  # live blossoms in creation order
    allowed = [[0] * n for _ in range(n)]
    queue: list[int] = []

    def leaves(b):
        stack, out = [*childs[b]], []
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w, t, v):
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v == -1 else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        else:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        """Base of the new blossom through S-vertices v and w, or -1 for an
        augmenting path."""
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                v = labeledge[b][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = len(blossombase)
        for state, value in ((label, 0), (labeledge, None), (bestedge, None), (bestslack, 0),
                             (blossomparent, -1), (blossombase, base), (mybestedges, None)):
            state.append(value)
        blossomparent[bb] = b
        path = []
        edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        childs.append(path)
        edges.append(edgs)
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        bestedgeto: dict = {}  # S-blossom -> (least-slack edge to it, that slack)
        for bv in path:
            if bv >= n and mybestedges[bv] is not None:
                for k in mybestedges[bv]:
                    i, j = k
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if bj != b and label[bj] == 1:
                        s = dualvar[i] + dualvar[j] + dist2[i][j]
                        hit = bestedgeto.get(bj)
                        if hit is None or s < hit[1]:
                            bestedgeto[bj] = (k, s)
                mybestedges[bv] = None
            else:  # every edge from the sub-blossom's vertices, neighbours ascending
                for i in leaves(bv) if bv >= n else (bv,):
                    di = dualvar[i]
                    for j, bj, dj, d2 in zip(range(n), inblossom, dualvar, dist2[i]):
                        if bj != b and label[bj] == 1:
                            s = di + dj + d2
                            hit = bestedgeto.get(bj)
                            if hit is None or s < hit[1]:
                                bestedgeto[bj] = ((i, j), s)
            bestedge[bv] = None
        mybestedges[b] = [k for k, _ in bestedgeto.values()]
        mybestedge = None
        for k, kslack in bestedgeto.values():
            if mybestedge is None or kslack < mybestslack:
                mybestedge, mybestslack = k, kslack
        if mybestedge is not None:
            bestedge[b], bestslack[b] = mybestedge, mybestslack

    def expand_blossom(b, endstage):
        for s in childs[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and blossomdual[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in leaves(s):
                    inblossom[v] = s
        if not endstage and label[b] == 2:
            # relabel the sub-blossoms from the one the T-label came through
            ch, ed = childs[b], edges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = ch.index(entrychild)
            if j & 1:
                j -= len(ch)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = ed[j]
                else:
                    q, p = ed[j - 1]
                label[w] = label[q] = 0
                assign_label(w, 2, v)
                allowed[p][q] = allowed[q][p] = stage
                j += jstep
                if jstep == 1:
                    v, w = ed[j]
                else:
                    w, v = ed[j - 1]
                allowed[v][w] = allowed[w][v] = stage
                j += jstep
            bw = ch[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while ch[j] != entrychild:
                bv = ch[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                if bv >= n:
                    for v in leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = label[mate[blossombase[bv]]] = 0
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label[b] = 0
        labeledge[b] = bestedge[b] = None
        del blossomdual[b]

    def augment_blossom(b, v):
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        ch, ed = childs[b], edges[b]
        i = j = ch.index(t)
        if i & 1:
            j -= len(ch)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = ch[j]
            if jstep == 1:
                w, x = ed[j]
            else:
                x, w = ed[j - 1]
            if t >= n:
                augment_blossom(t, w)
            j += jstep
            t = ch[j]
            if t >= n:
                augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        childs[b] = ch[i:] + ch[:i]
        edges[b] = ed[i:] + ed[:i]
        blossombase[b] = blossombase[childs[b][0]]

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    lows = list(map(min, dist2))  # each vertex's least doubled weight
    low = min(lows)
    stage = 0
    if low > 0:
        # Stage 1 in bulk.  Every vertex is a lone free S-vertex with zero
        # dual and no edge is tight, so its first substage only records each
        # vertex's first least-weight partner; delta3 then picks the first
        # vertex v with the least of these, every dual drops by half of it,
        # and the rescan of v augments along its partner edge, the first
        # tight edge it meets.
        v = lows.index(low)
        w = dist2[v].index(low)
        mate[v], mate[w] = w, v
        dualvar[:] = [-(low // 2)] * n
        stage = 1

    while True:  # each stage augments the matching by one edge
        stage += 1
        m = len(label)
        label[:] = [0] * m
        labeledge[:] = [None] * m
        bestedge[:] = [None] * m
        for b in blossomdual:
            mybestedges[b] = None
        queue.clear()
        for v in range(n):
            if mate[v] == -1:
                if inblossom[v] == v:  # a lone free vertex: S, with nothing else to reset
                    label[v] = 1
                    queue.append(v)
                elif label[inblossom[v]] == 0:
                    assign_label(v, 1, -1)
        augmented = False
        while True:  # each substage labels what it can, then moves the duals
            while queue and not augmented:
                v = queue.pop()
                bv, dv, allow = inblossom[v], dualvar[v], allowed[v]
                best = bestslack[bv] if bestedge[bv] is not None else _INF
                # live lists: only inblossom and allow[w] change during the scan
                for w, bw, dw, d2, a in zip(range(n), inblossom, dualvar, dist2[v], allow):
                    if a != stage:
                        kslack = dv + dw + d2
                        if kslack > 0:  # track the least-slack edges instead
                            if label[bw] == 1:
                                if kslack < best and bw != bv:
                                    bestedge[bv], bestslack[bv] = (v, w), kslack
                                    best = kslack
                            elif label[w] == 0:  # bestedge[w] is (u, w) for some S-vertex u
                                if bestedge[w] is None or kslack < bestslack[w]:
                                    bestedge[w], bestslack[w] = (v, w), kslack
                            continue
                        if bw == bv:
                            continue
                        allow[w] = allowed[w][v] = stage
                    elif bw == bv:
                        continue  # w == v, or the edge is inside a blossom
                    lab = label[bw]
                    if lab == 0:
                        assign_label(w, 2, v)
                    elif lab == 1:
                        base = scan_blossom(v, w)
                        if base == -1:
                            augment_matching(v, w)
                            augmented = True
                            break
                        add_blossom(base, v, w)
                        # of the actions, only a new blossom changes bv and its incumbent
                        bv = inblossom[v]
                        best = bestslack[bv] if bestedge[bv] is not None else _INF
                    elif label[w] == 0:
                        label[w] = 2
                        labeledge[w] = (v, w)
            if augmented:
                break

            deltatype = -1
            delta = deltaedge = deltablossom = None
            for v, e, bv in zip(range(n), bestedge, inblossom):  # delta2: S to free vertex
                if e is not None and label[bv] == 0:
                    d = bestslack[v]
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 2, e
            for b in chain(range(n), blossomdual):  # delta3: half the least S-S slack
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                    d = bestslack[b] // 2
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 3, bestedge[b]
            for b, z in blossomdual.items():  # delta4: least dual of a T-blossom
                if blossomparent[b] == -1 and label[b] == 2 and (deltatype == -1 or z < delta):
                    delta, deltatype, deltablossom = z, 4, b
            if deltatype == -1:  # maximum cardinality reached; make it verifiable
                deltatype = 1
                delta = max(0, min(dualvar))

            shift = (0, -delta, delta)  # by the label of the top-level blossom
            dualvar[:] = [y + shift[label[b]] for y, b in zip(dualvar, inblossom)]
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            for x, e in enumerate(bestedge):
                if e is not None:
                    v, w = e
                    bestslack[x] = dualvar[v] + dualvar[w] + dist2[v][w]
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                v, w = deltaedge
                allowed[v][w] = allowed[w][v] = stage
                queue.append(v)

        if not augmented:
            break
        for b in list(blossomdual):  # expand the S-blossoms left with zero dual
            if (b in blossomdual and blossomparent[b] == -1 and label[b] == 1
                    and blossomdual[b] == 0):
                expand_blossom(b, True)

    return mate, dualvar, blossomparent, blossomdual, edges


def _check_optimum(dist, mate, dualvar, blossomparent, blossomdual, edges) -> None:
    """NetworkX's ``verifyOptimum``: raise unless the matching is perfect,
    every edge has non-negative slack, every matched edge is tight and every
    blossom with a positive dual is full.  (A perfect matching leaves no
    single vertex, so the check on their duals has nothing to read.)

    An edge's slack is its raw slack ``dualvar[i] + dualvar[j] + 2*dist[i][j]``
    plus twice the dual of each blossom holding both ends.  Those duals are
    checked non-negative first, so an unmatched edge with a non-negative raw
    slack cannot fail; the blossom nest is walked only for the other edges.
    Edges are read in (i, j) order, so the first failing edge is the one that
    a walk over every edge would report."""
    n = len(dist)
    if -1 in mate or any(mate[mate[v]] != v for v in range(n)):
        raise RuntimeError("blossom: the matching is not perfect")
    if any(z < 0 for z in blossomdual.values()):
        raise RuntimeError("blossom: a blossom dual is negative")
    for i in range(n):
        di, k, row = dualvar[i], mate[i], dist[i]
        for j in range(i + 1, n):
            s = di + dualvar[j] + 2 * row[j]
            if s < 0 or j == k:
                b = blossomparent[i]
                if b != -1 and blossomparent[j] != -1:
                    holding_i = set()
                    while b != -1:
                        holding_i.add(b)
                        b = blossomparent[b]
                    b = blossomparent[j]
                    while b != -1:
                        if b in holding_i:
                            s += 2 * blossomdual[b]
                        b = blossomparent[b]
                if s < 0:
                    raise RuntimeError(f"blossom: edge ({i}, {j}) has negative slack")
                if j == k and s != 0:
                    raise RuntimeError(f"blossom: matched edge ({i}, {j}) is not tight")
    for b, z in blossomdual.items():
        if z > 0 and (len(edges[b]) % 2 != 1
                      or any(mate[i] != j or mate[j] != i for i, j in edges[b][1::2])):
            raise RuntimeError(f"blossom: blossom {b} has a positive dual but is not full")
