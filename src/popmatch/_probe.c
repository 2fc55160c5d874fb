/* Batched per-edge probe: the compiled twin of probe_edges_python in _gs.py.
 *
 * Input is the instance's own CSR, as compile_view in _gs.py builds it:
 * nA proposers (side A), nB responders (side B), off[nA+1], adj[m] and
 * crossrank[m], and the scan order: order[e] is the CSR slot of the e-th
 * edge of the instance.  The kernel checks that these fit together before
 * it reads anything by index: off runs from 0 to m without falling, every
 * adj entry names a responder, every crossrank lies below its responder's
 * degree, and every order entry is a slot.  Input that does not fit returns
 * -2 and leaves the run state and expansion regions of work untouched.
 *
 * For each edge (a, b) in scan order it runs one constrained proposal round
 * on the three-copy expansion (a+ starts just below b, b- accepts only
 * proposers of crossrank 0) and applies the acceptance checks:
 *
 *   - a- is matched to d(a) or unmatched,
 *   - b+ holds a neighbor strictly worse than a, and not d(b),
 *   - a+ sits strictly below b,
 *   - the output is stable against the full expansion.
 *
 * The checks are conjunctive, so testing the three O(1) ones before the
 * O(m) stability scan leaves the first accepting edge unchanged.  An edge
 * where a is last on b's list (crossrank + 1 >= deg(b)) is skipped without
 * a run: the b+ check asks for a rank strictly between the two, and both
 * are fixed before the run starts.  The per-edge copy ids come from the
 * edge's slot by the copy numbering of engine.py.
 *
 * The expansion is built into work, by the same arithmetic as
 * expansion_view in _gs.py, when the first edge that needs a run comes up;
 * a scan that skips every edge never builds it.
 *
 * Free proposers wait on a LIFO stack.  The reference processes them lowest
 * id first; for an unseeded run the proposer-optimal output, and with it
 * every accepted slot and partner, does not depend on that order (McVitie &
 * Wilson, 1971), so both return the same edge and the same run.
 *
 * Every array holds int64.  With P = 2nA + nB expansion proposers, R = 2nB +
 * nA responders and X = 2(m + nA + nB) expansion slots, work is laid out as
 *
 *   run state:  prop_partner, nxt, accept_pos, stack [P each],
 *               resp_partner, cur_rank [R each]
 *   expansion:  xoff [P+1], xadj [X], xcr [X]
 *   input:      deg [nB], owner [m] (the proposer each slot belongs to)
 *
 * Returns the index in order of the first accepting edge, with that run's
 * prop_partner left at the start of work; -1 when no edge accepts; -2 when
 * the input does not fit.
 */
#include <stdint.h>

#define BIG ((int64_t)1 << 30)

static void build_expansion(
    int64_t nA, int64_t nB,
    const int64_t *off, const int64_t *adj, const int64_t *crossrank,
    const int64_t *deg, int64_t *xoff, int64_t *xadj, int64_t *xcr)
{
    int64_t k = 0;
    for (int64_t i = 0; i < nA; i++) {
        const int64_t da = 2 * nB + i;
        /* a+ ranks b- in a's order, then d(a); a- ranks d(a) first, then b+ */
        xoff[2 * i] = k;
        for (int64_t s = off[i]; s < off[i + 1]; s++) {
            xadj[k] = 2 * adj[s] + 1;
            xcr[k++] = crossrank[s] + 1;
        }
        xadj[k] = da;
        xcr[k++] = 0;
        xoff[2 * i + 1] = k;
        xadj[k] = da;
        xcr[k++] = 1;
        for (int64_t s = off[i]; s < off[i + 1]; s++) {
            xadj[k] = 2 * adj[s];
            xcr[k++] = crossrank[s];
        }
    }
    for (int64_t j = 0; j < nB; j++) {
        /* d(b) ranks b+ (where it is last) before b- (where it is first) */
        xoff[2 * nA + j] = k;
        xadj[k] = 2 * j;
        xcr[k++] = deg[j];
        xadj[k] = 2 * j + 1;
        xcr[k++] = 0;
    }
    xoff[2 * nA + nB] = k;
}

int64_t popmatch_probe_edges(
    int64_t nA, int64_t nB, int64_t m,
    const int64_t *off, const int64_t *adj, const int64_t *crossrank,
    int64_t n_edges, const int64_t *order,
    int64_t *work)
{
    const int64_t P = 2 * nA + nB;
    const int64_t R = 2 * nB + nA;
    const int64_t X = 2 * (m + nA + nB);
    int64_t *prop_partner = work;
    int64_t *nxt = prop_partner + P;
    int64_t *accept_pos = nxt + P;
    int64_t *stack = accept_pos + P;
    int64_t *resp_partner = stack + P;
    int64_t *cur_rank = resp_partner + R;
    int64_t *xoff = cur_rank + R;
    int64_t *xadj = xoff + P + 1;
    int64_t *xcr = xadj + X;
    int64_t *deg = xcr + X;
    int64_t *owner = deg + nB;

    /* the input check: off first, so that every slot below is in [0, m) */
    if (nA < 0 || nB < 0 || m < 0 || n_edges < 0 || off[0] != 0 || off[nA] != m)
        return -2;
    for (int64_t i = 0; i < nA; i++)
        if (off[i + 1] < off[i])
            return -2;
    for (int64_t j = 0; j < nB; j++)
        deg[j] = 0;
    for (int64_t i = 0; i < nA; i++)
        for (int64_t s = off[i]; s < off[i + 1]; s++) {
            if (adj[s] < 0 || adj[s] >= nB)
                return -2;
            deg[adj[s]]++;
            owner[s] = i;
        }
    for (int64_t s = 0; s < m; s++)
        if (crossrank[s] < 0 || crossrank[s] >= deg[adj[s]])
            return -2;
    for (int64_t e = 0; e < n_edges; e++)
        if (order[e] < 0 || order[e] >= m)
            return -2;

    int built = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        const int64_t s = order[e];
        const int64_t j = adj[s];
        const int64_t posb = crossrank[s];  /* a's 0-based rank on b's list */
        if (posb + 1 >= deg[j])
            continue;  /* no rank fits strictly between them: b+ must fail */
        if (!built) {
            build_expansion(nA, nB, off, adj, crossrank, deg, xoff, xadj, xcr);
            built = 1;
        }
        const int64_t i = owner[s];
        const int64_t ap = 2 * i, bm = 2 * j + 1;
        const int64_t start = s - off[i] + 1;  /* a+ skips b and every better choice */

        /* reset state; proposer 0 ends on top of the stack */
        int64_t top = 0;
        for (int64_t p = 0; p < P; p++) {
            prop_partner[p] = -1;
            nxt[p] = xoff[p];
            accept_pos[p] = xoff[p + 1];
            stack[top++] = P - 1 - p;
        }
        for (int64_t r = 0; r < R; r++) {
            resp_partner[r] = -1;
            cur_rank[r] = BIG;
        }
        nxt[ap] = xoff[ap] + start;

        /* a proposer is on the stack only while free, so P slots suffice */
        while (top > 0) {
            const int64_t p = stack[--top];
            const int64_t end = xoff[p + 1];
            int64_t pos = nxt[p];
            for (; pos < end; pos++) {
                const int64_t r = xadj[pos];
                const int64_t cr = xcr[pos];
                if ((r == bm && cr >= 1) || cr >= cur_rank[r])
                    continue;
                const int64_t old = resp_partner[r];
                if (old >= 0) {
                    prop_partner[old] = -1;
                    accept_pos[old] = xoff[old + 1];
                    stack[top++] = old;
                }
                resp_partner[r] = p;
                cur_rank[r] = cr;
                prop_partner[p] = r;
                accept_pos[p] = pos;
                break;
            }
            nxt[p] = pos;
            if (pos >= end) {
                prop_partner[p] = -1;
                accept_pos[p] = end;
            }
        }

        /* acceptance checks, the O(1) ones first */
        const int64_t amm = prop_partner[ap + 1];
        if (amm >= 0 && amm != 2 * nB + i)
            continue;
        const int64_t brank = cur_rank[2 * j];
        if (brank <= posb || brank >= deg[j])
            continue;
        if (prop_partner[ap] >= 0 && accept_pos[ap] - xoff[ap] <= start - 1)
            continue;
        int stable = 1;
        for (int64_t p = 0; p < P && stable; p++)
            for (int64_t pos = xoff[p]; pos < accept_pos[p]; pos++)
                if (xcr[pos] < cur_rank[xadj[pos]]) {
                    stable = 0;
                    break;
                }
        if (stable)
            return e;
    }
    return -1;
}
