"""bc-analyze: BarterCast-specific determinism & byte-accounting analyzer.

Rule catalogue (see DESIGN.md section 9):

  D1 unordered-iteration  iteration over std::unordered_map/unordered_set
                          must go through bc::util::sorted_view (or be
                          suppressed with a reason explaining why iteration
                          order cannot reach gossip selection, reputation
                          evaluation, or serialized output)
  D2 wall-clock           no wall-clock time sources outside src/obs/ and
                          src/util/logging.*; simulation code uses Engine
                          time so runs replay bit-identically
  D3 unseeded-random      no std::random_device / libc rand / std::<random>
                          engines outside src/util/rng.*; all randomness
                          flows through the seeded bc::Rng
  B2 float-equality       no ==/!= on reputation/time floating-point
                          values; use explicit thresholds or restructure
                          comparators to use </> only
  C1 raw-primitive        no std::mutex/std::thread/std::atomic/
                          std::condition_variable (or their lock/semaphore/
                          future relatives) outside src/util/concurrency/;
                          only the annotated bc::util wrappers are covered
                          by the Clang thread-safety analysis
  C2 unguarded-shared-member
                          a class owning a bc::util::Mutex must annotate
                          every mutable data member with BC_GUARDED_BY /
                          BC_PT_GUARDED_BY (or suppress with a reason
                          proving the member is single-threaded)
  C3 detached-execution   no `.detach()` and no std::async: detached work
                          escapes scope-based reasoning and deterministic
                          teardown; use bc::util::ThreadPool, which joins
                          in its destructor
  G1 dense-index-leak     no graph::PeerIndex / NodeIndex / kNoNode (or
                          includes of graph/peer_index.hpp) outside
                          src/graph/: dense slots are per graph
                          (first-touch order) and are not peer
                          identifiers; consumers use the PeerId API
  D4 determinism-taint    interprocedural: no call-graph path from a
                          nondeterminism source (surviving D1/D2/D3
                          finding, thread id, pointer order/hash) into a
                          reputation / gossip / persistence sink
                          (bartercast::, gossip::, max_flow_*, encode*).
                          Calls through src/util/rng, sorted_view and
                          src/obs/ launder the taint.
  P1 hot-path-allocation  no heap allocation or unreserved container
                          growth inside loops of BC_OBS_SCOPE-instrumented
                          hot functions, directly or through calls: the
                          maxflow/choker hot paths must not hit the
                          allocator per iteration
  C4 blocking-under-lock  no blocking or allocating operation while a
                          bc::util::Mutex is held (LockGuard scope),
                          directly or through calls; CondVar::wait on the
                          held mutex is the one sanctioned wait shape
  C5 lock-order-cycle     no cycles in the cross-function
                          lock-acquisition-order graph (acquiring B while
                          holding A, including through calls): opposite-
                          order acquisition deadlocks
  V1 possible-overflow    interprocedural interval analysis (absint.py):
                          unguarded `+`/`*`/`+=`/`*=` on Bytes / int64
                          accounting values whose derived interval exceeds
                          [INT64_MIN, INT64_MAX] — signed overflow is UB;
                          convert to bc::util::checked_add / checked_mul /
                          saturating_add (src/util/checked.hpp) or add a
                          dominating BC_ASSERT bound
  V2 maybe-zero-divisor   a `/` or `%` whose divisor interval contains
                          zero (Eq. 1 denominators, histogram bucket math,
                          rates) with no dominating guard proving it
                          nonzero
  V3 value-narrowing      a Bytes / loop-carried / int64-derived value
                          cast or stored into a narrower type (including
                          implicitly, and into double past 2^53) whose
                          interval does not fit: the upload-download
                          ledgers behind c(i,j) and the Eq. 1 maxflow
                          capacities must never silently truncate
  V4 unbounded-index      subscript arithmetic (`v[i + 1]`, `buf[n - 1]`)
                          with no dominating size()/resize bound or
                          interval proof that the index stays in range
  L1 dangling-return      escape analysis (escape.py): a function whose
                          declared return type is a view (std::span /
                          std::string_view / EdgeView / iterator) or a
                          reference must not return a local owning
                          object, a view borrowed from one, or a
                          temporary — the storage dies with the frame
  L2 invalidated-view     a view borrowed from an owner (out_edges span,
                          string_view, iterator, T& binding, range-for)
                          must not be used after a call that may
                          invalidate the owner's storage, directly
                          (`push_back`/`erase`/`resize`/...) or through
                          a transitively composed mutation summary
                          (holding `out_edges(p)` across
                          `FlowGraph::add_capacity` -> `touch` ->
                          `out_.resize`); re-acquire or copy into an
                          owning snapshot (sorted_view) instead
  L3 escaping-capture     no lambda passed to a *storing* callback sink
                          (Engine::schedule_*, observer setters,
                          std::function-keeping members) may capture a
                          frame local by reference or a view by value:
                          the stored callback outlives the frame
  L4 use-after-move       no read of a moved-from local/parameter
                          without an intervening reassignment/clear();
                          `return std::move(x)` and sibling-branch moves
                          are left to clang-tidy's path-sensitive
                          bugprone-use-after-move
  SUP bad-suppression     a `// bc-analyze: allow(...)` marker that names an
                          unknown rule or omits the mandatory `-- reason`,
                          or a stale marker whose rule no longer fires on
                          its target line

Suppression syntax, on the offending line or a comment line directly above:

  // bc-analyze: allow(D1) -- result is fully re-sorted with a total order
  // bc-analyze: allow(D2,B2) -- wall-clock display only, never in sim state
"""

__version__ = "2.1"

RULES = {
    "D1": "unordered-iteration",
    "D2": "wall-clock",
    "D3": "unseeded-random",
    "D4": "determinism-taint",
    "B2": "float-equality",
    "C1": "raw-primitive",
    "C2": "unguarded-shared-member",
    "C3": "detached-execution",
    "C4": "blocking-under-lock",
    "C5": "lock-order-cycle",
    "G1": "dense-index-leak",
    "P1": "hot-path-allocation",
    "V1": "possible-overflow",
    "V2": "maybe-zero-divisor",
    "V3": "value-narrowing",
    "V4": "unbounded-index",
    "L1": "dangling-return",
    "L2": "invalidated-view",
    "L3": "escaping-capture",
    "L4": "use-after-move",
    "SUP": "bad-suppression",
}

#: Paths (relative to the repo root, prefix-matched) exempt per rule: the
#: sanctioned implementation of each facility lives here.
RULE_EXEMPT_PREFIXES = {
    "D1": ("src/util/sorted_view.hpp",),
    "D2": ("src/obs/", "src/util/logging.hpp", "src/util/logging.cpp"),
    "D3": ("src/util/rng.hpp", "src/util/rng.cpp"),
    "B2": (),
    "C1": ("src/util/concurrency/",),
    "C2": (),
    "C3": (),
    # src/obs/: the registry/profiler lock scopes guard cold registration
    # and snapshot export only; the hot-path counters (Counter::inc) are
    # lock-free by design and stay covered by C1/C2.
    "C4": ("src/util/concurrency/", "src/obs/"),
    "C5": (),
    "G1": ("src/graph/",),
    # D4 exemptions apply to its *extra* source scans (thread id, pointer
    # order) and to sink files; the D1-D3-derived sources already honor
    # those rules' own exemptions.
    "D4": ("src/obs/", "src/util/logging.hpp", "src/util/logging.cpp",
           "src/util/concurrency/"),
    "P1": (),
    # The checked-arithmetic helpers are the sanctioned overflow handling:
    # their own bodies manipulate the extremes V1 exists to flag.
    "V1": ("src/util/checked.hpp",),
    "V2": (),
    "V3": (),
    "V4": (),
    "L1": (),
    # sorted_view's own iterator plumbing is the sanctioned laundering
    # implementation: its views never outlive the statement by contract.
    "L2": ("src/util/sorted_view.hpp",),
    "L3": (),
    "L4": (),
}
