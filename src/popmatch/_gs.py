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

``compile_view`` compiles a marriage instance by its names.  Its
three-copy expansion is built from that compiled form by index arithmetic
(``expansion_view``, cached on the instance), and ``project_expansion`` is
the same arithmetic on the way back to the original instance.

The pure-Python functions are the reference semantics.  The per-edge probe
of the decision has one contract and two implementations:
``probe_edges_python``, the reference, and ``probe_edges_compiled``, the C
kernel in ``_probe.c`` (one batched sweep, state reset in-kernel, free
proposers on a LIFO stack), which the classifier runs on every input it
can load the kernel for.  Both take the instance's ``compile_view`` and
the CSR slot of each edge (``edge_slots``), build the expansion by the
same arithmetic, work out each edge's values from its slot, and return
the first accepting edge index with the expansion ``prop_partner`` of its
run, or (-1, None); the two are differentially tested.

The kernel is built on first use with the system C compiler into the user
cache directory and loaded through ``ctypes``.  Only that cold build
imports ``subprocess``; a warm start finds the library by its sha256 name,
so ``hashlib`` stays a module-level import (``build_probe``).  The records
here are ``NamedTuple``s, so importing the module loads no
``dataclasses``.
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


def _expand(view: BipartiteView) -> BipartiteView:
    """The three-copy expansion of a compiled marriage instance.

    The arithmetic of ``build_expansion`` in ``_probe.c``, on the same input.
    """
    off, adj, crossrank, n_a, n_b = view
    deg = [0] * n_b
    for j in adj:
        deg[j] += 1
    nb2 = 2 * n_b
    xoff = [0]
    xadj: list[int] = []
    xcr: list[int] = []
    for i in range(n_a):
        bs, ks = adj[off[i] : off[i + 1]], crossrank[off[i] : off[i + 1]]
        # a+ ranks b- in a's order, then d(a); a- ranks d(a) first, then b+
        xadj += [2 * j + 1 for j in bs] + [nb2 + i, nb2 + i] + [2 * j for j in bs]
        xcr += [k + 1 for k in ks] + [0, 1] + ks
        xoff += [xoff[-1] + len(bs) + 1, xoff[-1] + 2 * len(bs) + 2]
    for j in range(n_b):
        # d(b) ranks b+ (where it is last) before b- (where it is first)
        xadj += [2 * j, 2 * j + 1]
        xcr += [deg[j], 0]
        xoff.append(xoff[-1] + 2)
    return BipartiteView(xoff, xadj, xcr, 2 * n_a + n_b, nb2 + n_a)


def expansion_view(inst: Instance) -> BipartiteView:
    """The compiled expansion of a marriage instance (cached on the instance)."""
    inst.require_marriage("the expansion")
    cached = getattr(inst, "_expansion_view", None)
    if cached is None:
        cached = inst._expansion_view = _expand(compile_view(inst))
    return cached


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
# The input is ``compile_view(inst)`` and the scan order, ``edge_slots(inst)``:
# the e-th probed edge (a, b) is the CSR slot s = order[e].  Its values on
# the expansion follow from s and the copy numbering above: a is the owner
# i of s (off[i] <= s < off[i+1]) and b is j = adj[s], so a+ = 2i,
# a- = 2i+1, d(a) = 2|B|+i, b+ = 2j and b- = 2j+1; a+ starts at
# start = s - off[i] + 1 (past b and every better choice); posb =
# crossrank[s] is a's 0-based rank on b's list, which is also a-'s rank in
# b+'s list; and degb, b's degree, is the count of j in adj.
#
# The run for one edge starts a+ at start, and b- accepts only d(b), which
# it ranks first.  A probe accepts when a- is matched to d(a) or unmatched,
# b+ holds a strictly worse neighbor than a (and not d(b)), a+ sits
# strictly below b, and the run's output is stable against the full
# expansion.  The three O(1) checks come before the O(m) stability scan;
# the checks are conjunctive, so the order does not change the answer.
#
# ``probe_edges_python`` is the definition and runs every edge.  The
# compiled twin also skips, without a run, every edge where a is last on
# b's list (posb + 1 >= degb): no rank lies strictly between the two, so
# the b+ check cannot pass.


def probe_edges_python(view: BipartiteView, order) -> tuple[int, list[int] | None]:
    """The first edge in ``order`` whose probe accepts, and the run's ``prop_partner``.

    ``view`` is ``compile_view(inst)`` and ``order`` is ``edge_slots(inst)``.
    Returns (-1, None) when no edge accepts.
    """
    off, adj, crossrank = view.off, view.adj, view.crossrank
    ex = _expand(view)
    owner = [i for i in range(view.n_prop) for _ in range(off[i], off[i + 1])]
    for e, s in enumerate(order):
        i, j = owner[s], adj[s]
        ap, start = 2 * i, s - off[i] + 1
        res = run_proposals(ex, start_rel={ap: start}, cutoff={2 * j + 1: 1})
        am_match = res.prop_partner[ap + 1]
        if am_match >= 0 and am_match != 2 * view.n_resp + i:
            continue
        if not crossrank[s] < res.cur_rank[2 * j] < adj.count(j):
            continue
        if res.prop_partner[ap] >= 0 and res.accept_pos[ap] - ex.off[ap] <= start - 1:
            continue
        if output_is_stable(ex, res):
            return e, res.prop_partner
    return -1, None


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
    kernel.argtypes = [i64, i64, i64, p64, p64, p64, i64, p64, p64]
    kernel.restype = i64
    return kernel, None


def _buffer(xs):
    a = array("q", xs)
    return (ctypes.c_int64 * len(a)).from_buffer(a)  # keeps ``a`` alive


def _scratch_sizes(view: BipartiteView) -> tuple[int, int, int]:
    """The kernel scratch's regions for ``view``: run state, expansion, input.

    ``_probe.c`` lays them out in this order; the run state starts with the
    expansion's ``prop_partner``.
    """
    n_a, n_b, m = view.n_prop, view.n_resp, len(view.adj)
    P, R = 2 * n_a + n_b, 2 * n_b + n_a
    return 4 * P + 2 * R, P + 1 + 4 * (m + n_a + n_b), n_b + m


def edge_slots(inst: Instance) -> list[int]:
    """The ``compile_view`` slot of each edge of ``inst``, in edge order.

    ``inst.edges`` follows the vertex order, so it leaves CSR order when the
    two sides interleave there; the probe scans in edge order.
    """
    off = compile_view(inst).off
    first = {a: off[i] - 1 for i, a in enumerate(inst.side_a())}
    rank = inst.rank
    return [first[a] + rank[a][b] for a, b in inst.edges]


def probe_edges_compiled(view: BipartiteView, order) -> tuple[int, list[int] | None]:
    """Compiled twin of ``probe_edges_python``: same arguments, same result.

    Raises ValueError when the kernel finds that the arrays do not fit
    together, and ProbeUnavailable when the kernel cannot be built or loaded
    here.
    """
    kernel, reason = _load_probe()
    if kernel is None:
        raise ProbeUnavailable(reason)
    m = len(view.adj)
    hit = -2
    if len(view.off) == view.n_prop + 1 and len(view.crossrank) == m:
        work = (ctypes.c_int64 * sum(_scratch_sizes(view)))()
        hit = kernel(
            view.n_prop,
            view.n_resp,
            m,
            _buffer(view.off),
            _buffer(view.adj),
            _buffer(view.crossrank),
            len(order),
            _buffer(order),
            work,
        )
    if hit == -2:
        raise ValueError("probe arrays do not fit the compiled view")
    if hit < 0:
        return -1, None
    return hit, work[: 2 * view.n_prop + view.n_resp]
