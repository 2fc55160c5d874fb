"""Int-array proposal kernel shared by the solvers.

A marriage instance is compiled once into CSR-style arrays: proposers are the
A-side vertices, responders the B-side.  ``adj`` holds each proposer's
choices in preference order and ``crossrank`` the proposer's 0-based rank in
the responder's own list, so acceptance is a single integer comparison.

Free proposers are processed lowest id first (a priority queue), each walking
down its list until accepted or exhausted.  Runs support

  * responder cutoffs (only proposers ranked strictly better than the cutoff
    are acceptable),
  * start offsets (a proposer begins partway down its list), and
  * a seed matching (seeded pairs start matched; a dumped seeded proposer
    restarts from the top of its list).

``compile_view`` compiles a marriage instance by its names;
``expansion_view`` compiles its three-copy expansion straight from the
instance's rank table by index arithmetic, and ``expansion_probes`` and
``project_expansion`` are the same arithmetic for the probe's per-edge
arrays and for the way back to the original instance.

The pure-Python functions are the reference semantics.  ``probe_edges``
additionally has a compiled twin, the C kernel in ``_probe.c`` (one batched
sweep, state reset in-kernel, free proposers on a LIFO stack), which the
classifier runs on every input it can load the kernel for; the two are
differentially tested.  The kernel is built on first use with the system C
compiler into the user cache directory and loaded through ``ctypes``.
Only that cold build imports ``subprocess``; a warm start finds the library
by its sha256 name, so ``hashlib`` stays a module-level import
(``build_probe``).  The records here are ``NamedTuple``s, so importing the
module loads no ``dataclasses``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import heapq
import os
import shutil
import tempfile
from array import array
from pathlib import Path
from typing import NamedTuple

from .model import Instance, Matching

BIG = 1 << 30


class BipartiteView(NamedTuple):
    """Compiled CSR form of a marriage instance (proposers = side A).

    Proposer p and responder r are the p-th A-side and r-th B-side vertex
    of the compiled instance, in vertex order.
    """

    off: list[int]          # len P+1, slice bounds into adj
    adj: list[int]          # responder ids, preference order per proposer
    crossrank: list[int]    # proposer's 0-based rank in the responder's list
    n_prop: int
    n_resp: int


def side_index(inst: Instance) -> dict[str, int]:
    """Each vertex's position on its own side, in vertex order: its compiled id."""
    return {v: i for side in (inst.side_a(), inst.side_b()) for i, v in enumerate(side)}


def compile_view(inst: Instance) -> BipartiteView:
    inst.require_marriage("the proposal engine")
    cached = getattr(inst, "_prop_view", None)
    if cached is not None:
        return cached
    side_a = inst.side_a()
    slot = side_index(inst)
    rank = inst.rank
    off = [0]
    adj: list[int] = []
    crossrank: list[int] = []
    for p in side_a:
        for r in inst.prefs[p]:
            adj.append(slot[r])
            crossrank.append(rank[r][p] - 1)
        off.append(len(adj))
    view = BipartiteView(off, adj, crossrank, len(side_a), len(inst.vertices) - len(side_a))
    inst._prop_view = view  # instances are immutable, so the view is too
    return view


# -- the three-copy expansion ----------------------------------------------
#
# ``engine`` describes G' and numbers its copies: for the i-th vertex a of
# side A and the j-th vertex b of side B, the proposers a+ = 2i, a- = 2i+1,
# d(b) = 2|A|+j and the responders b+ = 2j, b- = 2j+1, d(a) = 2|B|+i.


def expansion_view(inst: Instance) -> BipartiteView:
    """The compiled expansion of a marriage instance (cached on the instance)."""
    inst.require_marriage("the expansion")
    cached = getattr(inst, "_expansion_view", None)
    if cached is not None:
        return cached
    side_a, side_b = inst.side_a(), inst.side_b()
    slot = side_index(inst)
    prefs, rank = inst.prefs, inst.rank
    nb2 = 2 * len(side_b)
    off = [0]
    adj: list[int] = []
    crossrank: list[int] = []
    for i, a in enumerate(side_a):
        b_plus = [2 * slot[b] for b in prefs[a]]
        ranks = [rank[b][a] for b in prefs[a]]
        # a+ ranks b- in a's order, then d(a); a- ranks d(a) first, then b+
        adj += [r + 1 for r in b_plus] + [nb2 + i, nb2 + i] + b_plus
        crossrank += ranks + [0, 1] + [k - 1 for k in ranks]
        off += [off[-1] + len(ranks) + 1, off[-1] + 2 * len(ranks) + 2]
    for j, b in enumerate(side_b):
        # d(b) ranks b+ (where it is last) before b- (where it is first)
        adj += [2 * j, 2 * j + 1]
        crossrank += [len(prefs[b]), 0]
        off.append(off[-1] + 2)
    view = BipartiteView(off, adj, crossrank, 2 * len(side_a) + len(side_b), nb2 + len(side_a))
    inst._expansion_view = view
    return view


class ExpansionProbes(NamedTuple):
    """The probe's per-edge arrays (see below), one entry per edge of ``inst``."""

    aplus: list[int]
    aminus: list[int]
    dbresp: list[int]
    bplus: list[int]
    bminus: list[int]
    start: list[int]
    posb: list[int]
    degb: list[int]


def expansion_probes(inst: Instance) -> ExpansionProbes:
    """The eight probe arrays for every edge of ``inst``, in edge order."""
    slot = side_index(inst)
    rank = inst.rank
    nb2 = 2 * len(inst.side_b())
    ia = [slot[a] for a, _ in inst.edges]
    jb = [slot[b] for _, b in inst.edges]
    return ExpansionProbes(
        [2 * i for i in ia],
        [2 * i + 1 for i in ia],
        [nb2 + i for i in ia],
        [2 * j for j in jb],
        [2 * j + 1 for j in jb],
        [rank[a][b] for a, b in inst.edges],
        [rank[b][a] - 1 for a, b in inst.edges],
        [len(inst.prefs[b]) for _, b in inst.edges],
    )


def project_expansion(inst: Instance, prop_partner: list[int]) -> tuple[Matching, dict[str, int]]:
    """The matching of ``inst`` an expansion matching encodes, and its witness.

    Each a-copy matched to a b-copy gives the pair (a, b); a vertex's witness
    value is +1 when its + copy holds a partner other than its dummy, else
    -1 when its - copy does, else 0.
    """
    side_a, side_b = inst.side_a(), inst.side_b()
    nb2 = 2 * len(side_b)
    pairs = []
    held: tuple[set[str], set[str]] = (set(), set())  # by the + copy, by the - copy
    for p in range(2 * len(side_a)):
        r = prop_partner[p]
        if 0 <= r < nb2:
            a, b = side_a[p >> 1], side_b[r >> 1]
            pairs.append((a, b))
            held[p & 1].add(a)
            held[r & 1].add(b)
    witness = {u: 1 if u in held[0] else -1 if u in held[1] else 0 for u in inst.vertices}
    return Matching._checked(inst, pairs), witness


class ProposalResult(NamedTuple):
    prop_partner: list[int]   # responder id or -1
    resp_partner: list[int]   # proposer id or -1
    cur_rank: list[int]       # crossrank of the held proposer, BIG if free
    accept_pos: list[int]     # absolute accepted slot, or end of list
    proposals: int


def run_proposals(
    view: BipartiteView,
    start_rel: dict[int, int] | None = None,
    cutoff: dict[int, int] | None = None,
    seeds: list[tuple[int, int]] | None = None,
) -> ProposalResult:
    """Reference implementation of the proposal loop."""
    off, adj, crossrank = view.off, view.adj, view.crossrank
    P = view.n_prop
    R = view.n_resp
    prop_partner = [-1] * P
    resp_partner = [-1] * R
    cur_rank = [BIG] * R
    cut = [BIG] * R
    if cutoff:
        for r, k in cutoff.items():
            cut[r] = k
    nxt = [off[p] + (start_rel.get(p, 0) if start_rel else 0) for p in range(P)]
    accept_pos = [off[p + 1] for p in range(P)]
    seeded: set[int] = set()
    if seeds:
        for p, r in seeds:
            k = None
            for pos in range(off[p], off[p + 1]):
                if adj[pos] == r:
                    k = pos
                    break
            if k is None:
                raise ValueError("seed pair is not an adjacency")
            prop_partner[p] = r
            resp_partner[r] = p
            cur_rank[r] = crossrank[k]
            accept_pos[p] = k
            seeded.add(p)

    heap = [p for p in range(P) if p not in seeded]
    heapq.heapify(heap)
    proposals = 0

    while heap:
        p = heapq.heappop(heap)
        pos = nxt[p]
        end = off[p + 1]
        while pos < end:
            proposals += 1
            r = adj[pos]
            cr = crossrank[pos]
            if cr >= cut[r] or cr >= cur_rank[r]:
                pos += 1
                continue
            old = resp_partner[r]
            if old >= 0:
                prop_partner[old] = -1
                accept_pos[old] = off[old + 1]
                heapq.heappush(heap, old)
            resp_partner[r] = p
            cur_rank[r] = cr
            prop_partner[p] = r
            accept_pos[p] = pos
            break
        nxt[p] = pos
        if pos == end:
            prop_partner[p] = -1
            accept_pos[p] = end

    return ProposalResult(prop_partner, resp_partner, cur_rank, accept_pos, proposals)


def output_is_stable(view: BipartiteView, res: ProposalResult) -> bool:
    """Stability of a run's output against the FULL lists (constraints ignored).

    A blocking pair must have the proposer preferring the responder to its
    assignment, so scanning each proposer's prefix up to its accepted slot
    covers all candidates.
    """
    off, adj, crossrank = view.off, view.adj, view.crossrank
    for p in range(view.n_prop):
        for pos in range(off[p], res.accept_pos[p]):
            if crossrank[pos] < res.cur_rank[adj[pos]]:
                return False
    return True


# -- batched per-edge probe ------------------------------------------------
#
# Input arrays, one entry per probed edge (a, b) of the ORIGINAL graph, all
# referring to the compiled expansion view:
#   e_aplus, e_aminus, e_dbresp : proposer id of a+, proposer id of a-,
#                                 responder id of d(a)
#   e_bplus, e_bminus           : responder ids of b+ and b-
#   e_start                     : relative start slot for a+  (skip b and all
#                                 better choices)
#   e_posb                      : slot of a- in b+'s list = b's original rank
#                                 of a (0-based)
#   e_degb                      : original degree of b
#
# ``ExpansionProbes`` holds them under the same names without the ``e_``.
# ``probe_run`` is the run for one edge: a+ starts at e_start, and b-
# accepts only d(b), which it ranks first.  A probe accepts when a- is
# matched to d(a) or unmatched, b+ holds a strictly worse neighbor than a
# (and not d(b)), a+ sits strictly below b, and the run's output is stable
# against the full expansion.  The three O(1) checks come before the O(m)
# stability scan; the checks are conjunctive, so the order does not change
# the answer.  The probes return the first accepting edge index, or -1.
#
# ``probe_edges_python`` is the definition and runs every edge.  The
# compiled twin also skips, without a run, every edge where a is last on
# b's list (e_posb + 1 >= e_degb): no rank lies strictly between the two,
# so the b+ check cannot pass.


def probe_run(view: BipartiteView, aplus: int, start: int, bminus: int) -> ProposalResult:
    """The constrained proposal run that probes one edge (a, b)."""
    return run_proposals(view, start_rel={aplus: start}, cutoff={bminus: 1})


def probe_edges_python(
    view: BipartiteView,
    e_aplus,
    e_aminus,
    e_dbresp,
    e_bplus,
    e_bminus,
    e_start,
    e_posb,
    e_degb,
    counter: list[int] | None = None,
) -> int:
    off = view.off
    for i in range(len(e_aplus)):
        res = probe_run(view, e_aplus[i], e_start[i], e_bminus[i])
        if counter is not None:
            counter[0] += 1
        am = e_aminus[i]
        am_match = res.prop_partner[am]
        if am_match >= 0 and am_match != e_dbresp[i]:
            continue
        brank = res.cur_rank[e_bplus[i]]
        if not (e_posb[i] < brank < e_degb[i]):
            continue
        ap = e_aplus[i]
        if res.prop_partner[ap] >= 0 and res.accept_pos[ap] - off[ap] <= e_start[i] - 1:
            continue
        if output_is_stable(view, res):
            return i
    return -1


# -- compiled twin ---------------------------------------------------------

_PROBE_SOURCE = Path(__file__).with_name("_probe.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


class ProbeUnavailable(RuntimeError):
    """The compiled probe cannot be built or loaded on this machine."""


def find_compiler() -> str | None:
    """The C compiler the compiled probe is built with, or None."""
    return shutil.which("cc")


def _probe_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/popmatch`` if that is absolute, else ``~/.cache/popmatch``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "popmatch"


def _require_private(path: Path) -> None:
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise ProbeUnavailable(
            f"{path} is owned or writable by another user; "
            "refusing to load the compiled probe from it"
        )


def build_probe(cache_dir: Path) -> Path:
    """The probe library in ``cache_dir`` (created 0700), compiled if absent.

    The file is named by a hash of the source and flags, and written
    atomically: compiled under a temporary name, then moved into place.
    Raises ProbeUnavailable naming the missing compiler or the build error.

    Only a cold build imports ``subprocess``, so a warm start, which finds
    the library in place, never loads it.  ``hashlib`` is imported at
    module level all the same: the warm path names the cached file by the
    sha256 of source and flags too, and a weaker digest could load a stale
    or foreign library.
    """
    try:
        source = _PROBE_SOURCE.read_bytes()
        cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        _require_private(cache_dir)
        digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
        target = cache_dir / f"probe-{digest[:16]}.so"
        if target.exists():
            _require_private(target)
            return target
        cc = find_compiler()
        if cc is None:
            raise ProbeUnavailable("the compiled probe needs a C compiler; `cc` is not on PATH")
        import subprocess

        fd, tmp = tempfile.mkstemp(prefix=".probe-", suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, str(_PROBE_SOURCE)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise ProbeUnavailable(
                    f"building the compiled probe with {cc} failed:\n{proc.stderr.strip()}"
                )
            os.chmod(tmp, 0o700)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ProbeUnavailable(f"cannot build the compiled probe: {exc}") from exc
    return target


@functools.cache
def _load_probe():
    """(kernel, None) once loaded, else (None, reason); decided once per process."""
    try:
        lib = ctypes.CDLL(str(build_probe(_probe_cache_dir())))
    except ProbeUnavailable as exc:
        return None, str(exc)
    except OSError as exc:
        return None, f"cannot load the compiled probe: {exc}"
    kernel = lib.popmatch_probe_edges
    i64 = ctypes.c_int64
    p64 = ctypes.POINTER(i64)
    kernel.argtypes = [i64, i64, p64, p64, p64, i64, *[p64] * 8, p64]
    kernel.restype = i64
    return kernel, None


def _in_range(xs, hi: int) -> bool:
    return not xs or (min(xs) >= 0 and max(xs) < hi)


def _buffer(xs):
    a = array("q", xs)
    return (ctypes.c_int64 * len(a)).from_buffer(a)  # keeps ``a`` alive


def probe_edges_compiled(view: BipartiteView, *edge_arrays) -> int:
    """Compiled twin of ``probe_edges_python``: first accepting edge, or -1.

    Takes the same eight edge arrays.  Raises ProbeUnavailable when the
    kernel cannot be built or loaded here.
    """
    kernel, reason = _load_probe()
    if kernel is None:
        raise ProbeUnavailable(reason)
    e_aplus, e_aminus, _, e_bplus, _, e_start, _, _ = edge_arrays
    P, R = view.n_prop, view.n_resp
    off = view.off
    n = len(e_aplus)
    ok = (
        all(len(a) == n for a in edge_arrays)
        and len(off) == P + 1
        and off[0] == 0
        and len(view.adj) == len(view.crossrank) == off[-1]
        and all(x <= y for x, y in zip(off, off[1:]))
        and _in_range(view.adj, R)
        and _in_range(e_aplus, P)
        and _in_range(e_aminus, P)
        and _in_range(e_bplus, R)
        and all(0 <= s <= off[p + 1] - off[p] for p, s in zip(e_aplus, e_start))
    )
    if not ok:
        raise ValueError("probe arrays do not fit the compiled view")
    return int(
        kernel(
            P,
            R,
            _buffer(off),
            _buffer(view.adj),
            _buffer(view.crossrank),
            n,
            *map(_buffer, edge_arrays),
            _buffer([0] * (4 * P + 2 * R)),  # kernel scratch
        )
    )
