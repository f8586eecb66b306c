// Epoch-based snapshot isolation primitives (DESIGN.md "Snapshot
// isolation").
//
// An *epoch* is the unit of visibility: every committed flush advances
// the store's epoch by one, and everything written since the previous
// commit becomes visible atomically at that boundary.  A `Snapshot` pins
// one committed epoch; readers holding it see exactly that epoch's state
// no matter how far ingest has advanced since.  The machinery is
// deliberately backend-agnostic:
//
//   EpochManager   the committed-epoch counter plus the set of live
//                  (pinned) epochs.  `current()` is the last committed
//                  epoch; `open()` (= current+1) tags mutations made
//                  since.  `advance()` runs at commit.
//   VersionStore   copy-on-write pre-images.  On the FIRST mutation of a
//                  key in an epoch the writer captures the key's current
//                  payload tagged with the open epoch — the same
//                  discipline (and often the same bytes) as the
//                  journal's undo pre-images, kept in memory and shared
//                  out to snapshot readers.  A version captured at epoch
//                  E holds the state as of commit E-1, so snapshot S is
//                  served by the version with the SMALLEST capture epoch
//                  > S; when none exists the live bytes are already
//                  valid for S, and `pin` hands out a shared latch under
//                  which they stay so while the reader reads them in
//                  place.  `purge(min_live)` drops versions no live
//                  snapshot can need, bounding memory to roughly one
//                  epoch of mutations once readers drain.
//   SnapshotScope  thread-local plumbing: installs a snapshot for the
//                  duration of a query so deep read paths
//                  (pin_subblock, for_each_vertex, chunk walks) can ask
//                  "am I under a snapshot of THIS store?" without
//                  threading a handle through every signature.  Keyed by
//                  an owner pointer so nested scopes over different
//                  backends coexist.
//
// Capture happens UNCONDITIONALLY while snapshots are enabled — not just
// while one is pinned — because a snapshot may pin mid-epoch, after
// mutations already landed.  The cost is bounded by purge: with no
// readers, min_live == current() and every version from closed epochs
// drops immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/shared_latch.hpp"
#include "common/types.hpp"

namespace mssg {

/// Monotonic commit counter.  Epoch 0 is the empty store; the first
/// committed flush advances to 1.
using Epoch = std::uint64_t;

class EpochManager;

/// A pinned, consistent view of one backend at one committed epoch.
/// Obtained from `GraphDB::begin_snapshot()`; release (destruction)
/// unpins the epoch and lets its versions retire.  `owner` identifies
/// the backend instance the snapshot belongs to (SnapshotScope matches
/// on it); `extent`/`nonempty` freeze whatever per-backend high-water
/// mark the read path needs (max vertex bound, committed log length) so
/// scans never chase state written after the pin.
class Snapshot {
 public:
  Snapshot(EpochManager* mgr, Epoch epoch, const void* owner,
           std::uint64_t extent, bool nonempty)
      : mgr_(mgr), epoch_(epoch), owner_(owner), extent_(extent),
        nonempty_(nonempty) {}
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] const void* owner() const { return owner_; }
  [[nodiscard]] std::uint64_t extent() const { return extent_; }
  [[nodiscard]] bool nonempty() const { return nonempty_; }

 private:
  EpochManager* mgr_;
  Epoch epoch_;
  const void* owner_;
  std::uint64_t extent_;
  bool nonempty_;
};

using SnapshotRef = std::shared_ptr<const Snapshot>;

/// A snapshot's frozen high-water mark (see Snapshot).
struct SnapshotBounds {
  std::uint64_t extent = 0;
  bool nonempty = false;
};

/// The committed-epoch counter and the live-snapshot ledger.  All ops
/// take one short mutex; none are on a per-read hot path (reads consult
/// the Snapshot handle, not the manager).
class EpochManager {
 public:
  /// Last committed epoch.
  [[nodiscard]] Epoch current() const {
    std::lock_guard lk(mu_);
    return current_;
  }

  /// The epoch in-flight mutations belong to (= current()+1): they
  /// become visible when the next commit advances to it.
  [[nodiscard]] Epoch open() const {
    std::lock_guard lk(mu_);
    return current_ + 1;
  }

  /// Pins the current committed epoch and returns the handle.  The
  /// caller owns `owner`/`extent`/`nonempty` semantics (see Snapshot).
  SnapshotRef pin(const void* owner, std::uint64_t extent, bool nonempty) {
    return pin(owner, [=] { return SnapshotBounds{extent, nonempty}; });
  }

  /// As above, with the extent read by `bounds()` under the manager's
  /// mutex once the epoch is fixed: a writer publishes its extent before
  /// advance() takes that mutex, so the extent covers every commit up to
  /// the pinned epoch.
  template <typename Bounds>
  SnapshotRef pin(const void* owner, Bounds&& bounds) {
    std::lock_guard lk(mu_);
    const SnapshotBounds b = bounds();
    ++live_[current_];
    return std::make_shared<Snapshot>(this, current_, owner, b.extent,
                                      b.nonempty);
  }

  /// Commit boundary: everything written in the open epoch becomes the
  /// new current.  Returns the new committed epoch.
  Epoch advance() {
    std::lock_guard lk(mu_);
    return ++current_;
  }

  /// Restores the committed epoch after recovery re-opens a store (the
  /// counter is in-memory state; reopen continuity is per-process).
  void reset(Epoch committed) {
    std::lock_guard lk(mu_);
    MSSG_CHECK(live_.empty());
    current_ = committed;
  }

  /// The oldest epoch any live snapshot pins — or current() when none
  /// is live.  Versions captured at epochs <= min_live() serve no one.
  [[nodiscard]] Epoch min_live() const {
    std::lock_guard lk(mu_);
    return live_.empty() ? current_ : live_.begin()->first;
  }

  /// Live pinned snapshots (the `txn.epochs_live` gauge counts distinct
  /// epochs, not handles).
  [[nodiscard]] std::uint64_t live_count() const {
    std::lock_guard lk(mu_);
    return live_.size();
  }

  /// Hook invoked — under the manager's mutex, with the new min_live —
  /// whenever releasing a snapshot fully retires an epoch.  Backends
  /// purge their VersionStore here so dropping the last reader frees
  /// retired versions promptly rather than waiting for the next commit.
  /// The hook must not call back into this EpochManager.
  void set_retire_hook(std::function<void(Epoch)> hook) {
    std::lock_guard lk(mu_);
    retire_hook_ = std::move(hook);
  }

 private:
  friend class Snapshot;
  void unpin(Epoch e) {
    std::lock_guard lk(mu_);
    auto it = live_.find(e);
    MSSG_CHECK(it != live_.end());
    if (--it->second == 0) {
      live_.erase(it);
      if (retire_hook_) {
        retire_hook_(live_.empty() ? current_ : live_.begin()->first);
      }
    }
  }

  mutable std::mutex mu_;
  Epoch current_ = 0;
  std::map<Epoch, std::uint64_t> live_;  ///< pinned epoch -> handle count
  std::function<void(Epoch)> retire_hook_;
};

inline Snapshot::~Snapshot() {
  if (mgr_ != nullptr) mgr_->unpin(epoch_);
}

/// Copy-on-write version shelf, templated on the payload a backend
/// versions: grDB captures whole blocks (`std::vector<std::byte>`), the
/// vertex-granularity backends capture one adjacency list
/// (`std::vector<VertexId>`).  Payloads are handed out as
/// shared_ptr<const Payload> so a reader's bytes stay alive and
/// immutable regardless of purge timing.  Readers share the store's
/// latch; shelving a capture and purging take it exclusive.
template <typename Payload>
class VersionStore {
 public:
  using Ptr = std::shared_ptr<const Payload>;

  /// A snapshot read's claim on one key: the version that serves its
  /// epoch, or — when none does — a shared latch on the store, under
  /// which the live payload is valid for that epoch.
  struct Pin {
    Ptr version;                          ///< null: read live
    std::shared_lock<SharedLatch> latch;  ///< held iff !version
  };

  /// Captures a pre-image for `key` at `open_epoch` if none exists yet
  /// (first mutation of the epoch wins; later mutations are already
  /// covered).  `make` materializes the payload only when the capture
  /// actually happens.  Returns true when a new version was shelved.
  /// Shelving waits for every live-read latch `pin` handed out.
  template <typename MakeFn>
  bool capture(std::uint64_t key, Epoch open_epoch, MakeFn&& make) {
    {
      std::shared_lock lk(mu_);
      auto it = map_.find(key);
      if (it != map_.end() && !it->second.empty() &&
          it->second.back().capture_epoch == open_epoch) {
        return false;
      }
    }
    // Materialize outside the lock: make() may read through the block
    // cache (its own mutex) and must not nest under ours.
    Ptr payload = std::make_shared<const Payload>(make());
    std::unique_lock lk(mu_);
    auto& chain = map_[key];
    if (!chain.empty() && chain.back().capture_epoch == open_epoch) {
      return false;  // racing writer captured first — theirs is older, keep it
    }
    MSSG_CHECK(chain.empty() || chain.back().capture_epoch < open_epoch);
    chain.push_back(Version{open_epoch, std::move(payload)});
    ++count_;
    return true;
  }

  /// The payload snapshot `snapshot_epoch` must read for `key`, or
  /// nullptr when the live bytes are already valid for it (no version
  /// captured after the snapshot pinned).
  [[nodiscard]] Ptr lookup(std::uint64_t key, Epoch snapshot_epoch) const {
    std::shared_lock lk(mu_);
    return find(key, snapshot_epoch);
  }

  /// Snapshot read with the race against a first mutation closed.  If a
  /// version serves `snapshot_epoch`, returns it; otherwise returns a
  /// shared latch on the store, and the caller reads the live payload in
  /// place until it drops the latch.  Why the latch suffices: a writer's
  /// first mutation of a key in an epoch shelves its pre-image here
  /// (capture) BEFORE touching the live bytes, and shelving takes this
  /// latch exclusive — so while the latch is held, no first mutation of
  /// the epoch can begin, and any earlier epoch's writes are already
  /// ordered before the reader's pin (commit advances under the
  /// EpochManager mutex the pin also takes).  A waiting capture goes
  /// ahead of new readers (SharedLatch), so a thread must hold at most
  /// one latch at a time.
  [[nodiscard]] Pin pin(std::uint64_t key, Epoch snapshot_epoch) const {
    std::shared_lock lk(mu_);
    if (Ptr version = find(key, snapshot_epoch)) {
      return {std::move(version), {}};
    }
    return {nullptr, std::move(lk)};
  }

  /// Drops every version no live snapshot can need: capture epoch
  /// <= min_live (a version at E serves only snapshots pinned before
  /// E, i.e. at epochs < E).
  void purge(Epoch min_live) {
    std::unique_lock lk(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      auto& chain = it->second;
      std::size_t drop = 0;
      while (drop < chain.size() && chain[drop].capture_epoch <= min_live) {
        ++drop;
      }
      if (drop > 0) {
        chain.erase(chain.begin(),
                    chain.begin() + static_cast<std::ptrdiff_t>(drop));
        count_ -= drop;
      }
      it = chain.empty() ? map_.erase(it) : std::next(it);
    }
  }

  /// Versions currently shelved (the `txn.cow_pages` gauge).
  [[nodiscard]] std::uint64_t versions() const {
    std::shared_lock lk(mu_);
    return count_;
  }

  void clear() {
    std::unique_lock lk(mu_);
    map_.clear();
    count_ = 0;
  }

 private:
  struct Version {
    Epoch capture_epoch;  ///< open epoch at capture; holds state of E-1
    Ptr payload;
  };

  /// The version serving `snapshot_epoch`, or nullptr.  Caller holds mu_.
  [[nodiscard]] Ptr find(std::uint64_t key, Epoch snapshot_epoch) const {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    // Chains are short (one version per epoch still live) and sorted by
    // capture epoch: scan for the first strictly newer than the pin.
    for (const Version& v : it->second) {
      if (v.capture_epoch > snapshot_epoch) return v.payload;
    }
    return nullptr;
  }

  mutable SharedLatch mu_;
  std::unordered_map<std::uint64_t, std::vector<Version>> map_;
  std::uint64_t count_ = 0;
};

/// Thread-local snapshot installation, in the idiom of
/// CacheAttributionScope: a query runner installs
/// the snapshot it pinned, and every read the thread makes through that
/// backend serves the pinned epoch.  Scopes nest (innermost wins per
/// owner) so a query over one backend can call helpers that pin another.
class SnapshotScope {
 public:
  explicit SnapshotScope(SnapshotRef snap);
  SnapshotScope(const SnapshotScope&) = delete;
  SnapshotScope& operator=(const SnapshotScope&) = delete;
  ~SnapshotScope();

  /// The innermost snapshot installed on this thread whose owner is
  /// `owner`, or nullptr when the thread reads live state.
  [[nodiscard]] static const Snapshot* active_for(const void* owner);

 private:
  SnapshotScope* prev_;
  SnapshotRef snap_;  ///< may be null (scope is then a no-op frame)
};

/// The vertex-granularity snapshot kit shared by the backends that
/// version whole adjacency lists (HashMap/Array staging, KVStore,
/// Relational): one epoch counter plus one VersionStore keyed by vertex.
struct VertexSnapshots {
  EpochManager epochs;
  VersionStore<std::vector<VertexId>> versions;

  VertexSnapshots() {
    epochs.set_retire_hook(
        [this](Epoch min_live) { versions.purge(min_live); });
  }

  /// Commit boundary: advance, then retire versions nobody can read.
  void advance_and_purge() {
    epochs.advance();
    versions.purge(epochs.min_live());
  }
};

}  // namespace mssg
