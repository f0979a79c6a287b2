"""Exact minimum-weight perfect matching of a complete graph, on int lists.

A port of NetworkX 3.6.1's ``max_weight_matching(G, maxcardinality=True)``
(Galil's O(n^3) primal-dual blossom algorithm, after Van Rantwijk) for the
one graph the decoder builds: nodes ``0..n-1``, every pair an edge of weight
``-dist[i][j]``, neighbours in ascending order.  Statement for statement it
takes the same steps, so it returns NetworkX's matching, equal-weight tie
choices included.  What changed: ``G[v][w]`` reads become ``dist`` reads,
blossoms are ints ``>= n`` (numbered in creation order, which is NetworkX's
dict order), per-vertex state lives in lists, the trampolines are plain
recursion, and the branches for ``maxcardinality=False`` and non-integer
weights are gone.  The optimality check runs on every call.

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


def min_weight_perfect_matching(dist: list[list[int]]) -> list[int]:
    """Partner of each vertex in a minimum-weight perfect matching of the
    complete graph on an even number of vertices with symmetric non-negative
    int edge weights ``dist``; raises if the result fails the optimality
    check."""
    state = _solve(dist)
    _check_optimum(dist, *state)
    return state[0]


def _solve(dist: list[list[int]]):
    """The blossom algorithm; returns ``(mate, dualvar, blossomparent,
    blossomdual, edges)``, the state that ``_check_optimum`` reads.

    Vertex and blossom ids index ``label`` (0 free, 1 S, 2 T, 5 breadcrumb),
    ``labeledge``, ``bestedge``, ``blossomparent`` and ``blossombase``; -1 is
    "no vertex".  ``dualvar`` holds 2u(v), starting at the largest weight,
    which is 0 because every weight -dist is at most 0."""
    n = len(dist)
    mate = [-1] * n
    label: list[int] = [0] * n
    labeledge: list = [None] * n
    bestedge: list = [None] * n
    inblossom = list(range(n))
    blossomparent = [-1] * n
    blossombase = list(range(n))
    childs: list = [None] * n  # sub-blossoms, base first, going round
    edges: list = [None] * n  # edges[b][i] joins childs[b][i] and childs[b][i+1]
    mybestedges: list = [None] * n  # least-slack edges to other S-blossoms
    dualvar = [0] * n
    blossomdual: dict[int, int] = {}  # live blossoms in creation order
    allowed = [bytearray(n) for _ in range(n)]  # edges known to have zero slack
    queue: list[int] = []

    def slack(v, w):  # 2 * slack of edge (v, w); not inside blossoms
        return dualvar[v] + dualvar[w] + 2 * dist[v][w]

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
        for state, value in ((label, 0), (labeledge, None), (bestedge, None), (blossomparent, -1),
                             (blossombase, base), (mybestedges, None)):
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
        bestedgeto: dict = {}
        for bv in path:
            if bv < n:
                nblist = [(bv, w) for w in range(n) if bv != w]
            elif mybestedges[bv] is not None:
                nblist, mybestedges[bv] = mybestedges[bv], None
            else:
                nblist = [(v, w) for v in leaves(bv) for w in range(n) if v != w]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (bj != b and label[bj] == 1
                        and (bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge, mybestslack = k, kslack
        bestedge[b] = mybestedge

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
                allowed[p][q] = allowed[q][p] = 1
                j += jstep
                if jstep == 1:
                    v, w = ed[j]
                else:
                    w, v = ed[j - 1]
                allowed[v][w] = allowed[w][v] = 1
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

    while True:  # each stage augments the matching by one edge
        m = len(label)
        label[:] = [0] * m
        labeledge[:] = [None] * m
        bestedge[:] = [None] * m
        for b in blossomdual:
            mybestedges[b] = None
        for row in allowed:
            row[:] = bytes(n)
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:  # each substage labels what it can, then moves the duals
            while queue and not augmented:
                v = queue.pop()
                bv, dv, row, allow = inblossom[v], dualvar[v], dist[v], allowed[v]
                for w in range(n):
                    bw = inblossom[w]
                    if bw == bv:
                        continue  # w == v, or the edge is inside a blossom
                    if not allow[w]:
                        kslack = dv + dualvar[w] + 2 * row[w]
                        if kslack > 0:  # track the least-slack edges instead
                            if label[bw] == 1:
                                e = bestedge[bv]
                                if e is None or kslack < dualvar[e[0]] + dualvar[e[1]] + 2 * dist[e[0]][e[1]]:
                                    bestedge[bv] = (v, w)
                            elif label[w] == 0:
                                e = bestedge[w]  # (u, w) for some S-vertex u
                                if e is None or kslack < dualvar[e[0]] + dualvar[w] + 2 * dist[e[0]][w]:
                                    bestedge[w] = (v, w)
                            continue
                        allow[w] = allowed[w][v] = 1
                    if label[bw] == 0:
                        assign_label(w, 2, v)
                    elif label[bw] == 1:
                        base = scan_blossom(v, w)
                        if base == -1:
                            augment_matching(v, w)
                            augmented = True
                            break
                        add_blossom(base, v, w)
                        bv = inblossom[v]
                    elif label[w] == 0:
                        label[w] = 2
                        labeledge[w] = (v, w)
            if augmented:
                break

            deltatype = -1
            delta = deltaedge = deltablossom = None
            for v in range(n):  # delta2: least slack from an S-vertex to a free one
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 2, bestedge[v]
            for b in chain(range(n), blossomdual):  # delta3: half the least S-S slack
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                    d = slack(*bestedge[b]) // 2
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 3, bestedge[b]
            for b, z in blossomdual.items():  # delta4: least dual of a T-blossom
                if blossomparent[b] == -1 and label[b] == 2 and (deltatype == -1 or z < delta):
                    delta, deltatype, deltablossom = z, 4, b
            if deltatype == -1:  # maximum cardinality reached; make it verifiable
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                lab = label[inblossom[v]]
                if lab == 1:
                    dualvar[v] -= delta
                elif lab == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                v, w = deltaedge
                allowed[v][w] = allowed[w][v] = 1
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
    single vertex, so the check on their duals has nothing to read.)"""
    n = len(dist)
    if -1 in mate or any(mate[mate[v]] != v for v in range(n)):
        raise RuntimeError("blossom: the matching is not perfect")
    if any(z < 0 for z in blossomdual.values()):
        raise RuntimeError("blossom: a blossom dual is negative")
    # each vertex's nested blossoms, outermost first
    nest = []
    for v in range(n):
        up = [v]
        while blossomparent[up[-1]] != -1:
            up.append(blossomparent[up[-1]])
        nest.append(up[::-1])
    for i in range(n):
        for j in range(i + 1, n):
            s = dualvar[i] + dualvar[j] + 2 * dist[i][j]
            if nest[i][0] == nest[j][0]:
                for bi, bj in zip(nest[i], nest[j]):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
            if s < 0:
                raise RuntimeError(f"blossom: edge ({i}, {j}) has negative slack")
            if mate[i] == j and s != 0:
                raise RuntimeError(f"blossom: matched edge ({i}, {j}) is not tight")
    for b, z in blossomdual.items():
        if z > 0 and (len(edges[b]) % 2 != 1
                      or any(mate[i] != j or mate[j] != i for i, j in edges[b][1::2])):
            raise RuntimeError(f"blossom: blossom {b} has a positive dual but is not full")
