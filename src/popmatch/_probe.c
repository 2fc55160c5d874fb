/* Batched per-edge probe: the compiled twin of probe_edges_python in _gs.py.
 *
 * For each probed edge i it runs one constrained proposal round on the
 * compiled expansion view (a+ starts at slot e_start[i], b- accepts only
 * proposers of crossrank 0) and applies the acceptance checks:
 *
 *   - a- is matched to d(a) or unmatched,
 *   - b+ holds a neighbor strictly worse than a, and not d(b),
 *   - a+ sits strictly below b,
 *   - the output is stable against the full expansion.
 *
 * The checks are conjunctive, so testing the three O(1) ones before the
 * O(m) stability scan leaves the first accepting edge unchanged.  An edge
 * where a is last on b's list (e_posb[i] + 1 >= e_degb[i]) is skipped
 * without a run: the b+ check asks for a rank strictly between the two,
 * and both are fixed before the run starts.
 *
 * Free proposers wait on a LIFO stack.  The reference processes them lowest
 * id first; for an unseeded run the proposer-optimal output, and with it
 * every accepted slot, does not depend on that order (McVitie & Wilson,
 * 1971), so both return the same edge.
 *
 * Every array holds int64.  work must have room for 4*P + 2*R entries; the
 * caller validates all sizes and index ranges.  Returns the first accepting
 * edge index, or -1.
 */
#include <stdint.h>

#define BIG ((int64_t)1 << 30)

int64_t popmatch_probe_edges(
    int64_t P, int64_t R,
    const int64_t *off, const int64_t *adj, const int64_t *crossrank,
    int64_t n_edges,
    const int64_t *e_aplus, const int64_t *e_aminus, const int64_t *e_dbresp,
    const int64_t *e_bplus, const int64_t *e_bminus, const int64_t *e_start,
    const int64_t *e_posb, const int64_t *e_degb,
    int64_t *work)
{
    int64_t *prop_partner = work;
    int64_t *nxt = prop_partner + P;
    int64_t *accept_pos = nxt + P;
    int64_t *stack = accept_pos + P;
    int64_t *resp_partner = stack + P;
    int64_t *cur_rank = resp_partner + R;

    for (int64_t i = 0; i < n_edges; i++) {
        const int64_t ap = e_aplus[i];
        const int64_t bm = e_bminus[i];

        if (e_posb[i] + 1 >= e_degb[i])
            continue;  /* no rank fits strictly between them: b+ must fail */

        /* reset state; proposer 0 ends on top of the stack */
        int64_t top = 0;
        for (int64_t p = 0; p < P; p++) {
            prop_partner[p] = -1;
            nxt[p] = off[p];
            accept_pos[p] = off[p + 1];
            stack[top++] = P - 1 - p;
        }
        for (int64_t r = 0; r < R; r++) {
            resp_partner[r] = -1;
            cur_rank[r] = BIG;
        }
        nxt[ap] = off[ap] + e_start[i];

        /* a proposer is on the stack only while free, so P slots suffice */
        while (top > 0) {
            const int64_t p = stack[--top];
            const int64_t end = off[p + 1];
            int64_t pos = nxt[p];
            for (; pos < end; pos++) {
                const int64_t r = adj[pos];
                const int64_t cr = crossrank[pos];
                if ((r == bm && cr >= 1) || cr >= cur_rank[r])
                    continue;
                const int64_t old = resp_partner[r];
                if (old >= 0) {
                    prop_partner[old] = -1;
                    accept_pos[old] = off[old + 1];
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
        const int64_t amm = prop_partner[e_aminus[i]];
        if (amm >= 0 && amm != e_dbresp[i])
            continue;
        const int64_t brank = cur_rank[e_bplus[i]];
        if (brank <= e_posb[i] || brank >= e_degb[i])
            continue;
        if (prop_partner[ap] >= 0 && accept_pos[ap] - off[ap] <= e_start[i] - 1)
            continue;
        int stable = 1;
        for (int64_t p = 0; p < P && stable; p++)
            for (int64_t pos = off[p]; pos < accept_pos[p]; pos++)
                if (crossrank[pos] < cur_rank[adj[pos]]) {
                    stable = 0;
                    break;
                }
        if (stable)
            return i;
    }
    return -1;
}
