#ifndef DSKG_CORE_PLAN_CACHE_H_
#define DSKG_CORE_PLAN_CACHE_H_

/// \file plan_cache.h
/// The plan cache: one compiled plan per `(query text, plan_epoch)` for
/// every `core::Session` handle and server statement that shares it.
///
/// A plan depends only on the query text and the store's physical state
/// (versioned by `DualStore::plan_epoch()`), never on who asked. So the
/// cache keeps one `PlanEntry` per text — the parse, its `$param` names
/// and the newest epoch's plan — and every handle on that text holds a
/// `shared_ptr` to the same entry:
///
///   * `Lookup(text)` returns the entry, parsing the text on first
///     sight. Only this text-keyed step takes the cache's map lock.
///   * `PlanFor(entry, store)` returns the entry's plan for
///     `store.plan_epoch()`. A hit is one pointer compare under the
///     entry's own mutex; a miss prepares against `store`, reusing the
///     parse, so an epoch move (an `ApplyUpdates`, a tuning window)
///     re-plans without re-parsing.
///   * Installs are monotone: a newer epoch's plan replaces an older one
///     (`stats().invalidations`), and a reader pinned to an older
///     snapshot gets a plan for its own epoch without overwriting the
///     newer one.
///   * Texts are LRU-bounded (`capacity`, 0 = unbounded) by lookup.
///     Handles keep an evicted entry alive through their shared_ptr and
///     keep working; looking the text up again is a fresh parse.
///
/// A `Session` owns a cache by default or borrows one passed at
/// construction; the server's connections share the server's. Thread-
/// safe; no lock is held across a parse or prepare, so a slow
/// compilation of one text does not serialize lookups of another. Losing
/// a prepare race costs one redundant compilation; both callers get a
/// valid plan for their epoch.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "core/dual_store.h"
#include "core/query_processor.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "sparql/ast.h"

namespace dskg::core {

/// One cached query text: the store-independent parse plus the epoch-
/// stamped plan, refreshed in place when the store's physical state
/// moves. Shared by every handle on the text.
class PlanEntry {
 public:
  PlanEntry(std::string text, sparql::Query query);

  const std::string text;
  const sparql::Query query;              ///< parsed once; may hold $params
  const std::vector<std::string> params;  ///< distinct $param names

 private:
  friend class SharedPlanCache;
  mutable std::mutex mu_;  // guards `plan_`
  /// The newest epoch's plan; null until first prepared.
  mutable std::shared_ptr<const PreparedPlan> plan_;
};

/// One handle's `$param` → term bindings for an entry (which it keeps
/// alive), resolved to dictionary ids. The one resolver behind
/// `PreparedQuery::Bind` and the server's EXECUTE.
class ParamBindings {
 public:
  explicit ParamBindings(std::shared_ptr<const PlanEntry> entry);

  const PlanEntry& entry() const { return *entry_; }

  /// Binds `$name` to the term with text `term`, looked up in `dict`,
  /// the dictionary as of plan epoch `epoch`. InvalidArgument when the
  /// query has no such parameter; NotFound when the term is not in the
  /// dictionary (nothing could ever match).
  Status Bind(std::string_view name, std::string_view term,
              const rdf::Dictionary& dict, uint64_t epoch);

  /// Drops every binding.
  void Clear();

  /// The per-plan-parameter id array for a plan at `epoch` (empty when
  /// the query has no parameters). A term bound at another epoch is
  /// re-resolved in `dict` — ids are recycled, so a possibly re-assigned
  /// id is never trusted. FailedPrecondition when a parameter is
  /// unbound; NotFound when a bound term has left the dictionary.
  Result<std::vector<rdf::TermId>> Values(const rdf::Dictionary& dict,
                                          uint64_t epoch);

 private:
  struct Binding {
    bool bound = false;
    std::string term;                       // bound term text
    rdf::TermId id = rdf::kInvalidTermId;   // resolved id
    uint64_t epoch = 0;                     // plan epoch at resolve time
  };

  std::shared_ptr<const PlanEntry> entry_;
  std::vector<Binding> bindings_;  // aligned with entry_->params
};

/// A plan cache shared by any number of sessions and server connections.
class SharedPlanCache {
 public:
  /// Default bound on cached texts. Sized for a production template
  /// catalog; an adversarial stream of distinct texts evicts LRU.
  static constexpr size_t kDefaultCapacity = 512;

  explicit SharedPlanCache(size_t capacity = kDefaultCapacity);

  SharedPlanCache(const SharedPlanCache&) = delete;
  SharedPlanCache& operator=(const SharedPlanCache&) = delete;

  /// The entry for `text`, parsed on first sight (a ParseError surfaces
  /// here and caches nothing); marks the text most recently used. A
  /// caller that passes `parsed` learns whether this call parsed the
  /// text and counts that parse in its own telemetry (a Session's
  /// `session.prepares`); otherwise the cache counts it in
  /// `stats().parses`. Either way a parse is counted once.
  Result<std::shared_ptr<const PlanEntry>> Lookup(std::string_view text,
                                                  bool* parsed = nullptr);

  /// `entry`'s plan for `store.plan_epoch()` — under an installed
  /// `DualStore::SnapshotScope`, the pinned epoch, and the plan is
  /// prepared against the pinned snapshot. `*replanned` (optional) turns
  /// true when this call compiled although the entry already held a plan
  /// for another epoch.
  Result<std::shared_ptr<const PreparedPlan>> PlanFor(
      const PlanEntry& entry, const DualStore& store,
      bool* replanned = nullptr);

  /// Monotone counters since construction.
  struct Stats {
    uint64_t hits = 0;           ///< plan served without compiling
    uint64_t misses = 0;         ///< full prepare (new text or new epoch)
    uint64_t parses = 0;         ///< texts parsed, unless caller-counted
    uint64_t invalidations = 0;  ///< stale-epoch plans replaced
    uint64_t evictions = 0;      ///< texts dropped by the LRU bound
  };
  Stats stats() const;

  /// Distinct texts currently cached.
  size_t size() const;

  /// Rebounds the cache (0 = unbounded), evicting immediately if over.
  void set_capacity(size_t capacity);

 private:
  using LruList = std::list<std::shared_ptr<const PlanEntry>>;

  /// Caller holds `mu_`.
  void EvictOverflowLocked();

  mutable std::mutex mu_;
  /// Entries, most recently looked up first. Guarded by `mu_`.
  LruList lru_;
  /// Text → position in `lru_`; keys view the entries' own text.
  std::unordered_map<std::string_view, LruList::iterator> index_;
  size_t capacity_;

  /// Dedicated cells in the global `plan_cache.shared.*` counters: exact
  /// per-cache stats that also roll up into the process-wide totals.
  telemetry::Counter::Cell* hits_;
  telemetry::Counter::Cell* misses_;
  telemetry::Counter::Cell* parses_;
  telemetry::Counter::Cell* invalidations_;
  telemetry::Counter::Cell* evictions_;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_PLAN_CACHE_H_
