#include "core/plan_cache.h"

#include <utility>

#include "sparql/parser.h"

namespace dskg::core {

PlanEntry::PlanEntry(std::string text, sparql::Query query)
    : text(std::move(text)), query(std::move(query)),
      params(this->query.Parameters()) {}

// ---- ParamBindings ----------------------------------------------------------

ParamBindings::ParamBindings(std::shared_ptr<const PlanEntry> entry)
    : entry_(std::move(entry)), bindings_(entry_->params.size()) {}

Status ParamBindings::Bind(std::string_view name, std::string_view term,
                           const rdf::Dictionary& dict, uint64_t epoch) {
  const std::vector<std::string>& params = entry_->params;
  size_t idx = 0;
  while (idx < params.size() && params[idx] != name) ++idx;
  if (idx == params.size()) {
    return Status::InvalidArgument("no parameter $" + std::string(name) +
                                   " in query \"" + entry_->text + "\"");
  }
  const rdf::TermId id = dict.Lookup(term);
  if (id == rdf::kInvalidTermId) {
    return Status::NotFound("term " + std::string(term) +
                            " is not in the dictionary; binding it to $" +
                            std::string(name) + " could never match");
  }
  bindings_[idx] = {true, std::string(term), id, epoch};
  return Status::OK();
}

void ParamBindings::Clear() {
  bindings_.assign(entry_->params.size(), Binding{});
}

Result<std::vector<rdf::TermId>> ParamBindings::Values(
    const rdf::Dictionary& dict, uint64_t epoch) {
  std::vector<rdf::TermId> values;
  values.reserve(bindings_.size());
  for (size_t i = 0; i < bindings_.size(); ++i) {
    Binding& b = bindings_[i];
    if (!b.bound) {
      return Status::FailedPrecondition(
          "parameter $" + entry_->params[i] + " is unbound in query \"" +
          entry_->text + "\"");
    }
    if (b.epoch != epoch) {
      b.id = dict.Lookup(b.term);
      b.epoch = epoch;
      if (b.id == rdf::kInvalidTermId) {
        return Status::NotFound("bound term " + b.term +
                                " is no longer in the dictionary");
      }
    }
    values.push_back(b.id);
  }
  return values;
}

// ---- SharedPlanCache --------------------------------------------------------

SharedPlanCache::SharedPlanCache(size_t capacity) : capacity_(capacity) {
  auto& reg = telemetry::MetricsRegistry::Global();
  hits_ = reg.counter("plan_cache.shared.hits")->NewCell();
  misses_ = reg.counter("plan_cache.shared.misses")->NewCell();
  parses_ = reg.counter("plan_cache.shared.parses")->NewCell();
  invalidations_ = reg.counter("plan_cache.shared.invalidations")->NewCell();
  evictions_ = reg.counter("plan_cache.shared.evictions")->NewCell();
}

Result<std::shared_ptr<const PlanEntry>> SharedPlanCache::Lookup(
    std::string_view text, bool* parsed) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(text);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (parsed != nullptr) *parsed = false;
      return *it->second;
    }
  }

  // First sight: parse outside the lock — a slow parse must not serialize
  // unrelated lookups.
  DSKG_ASSIGN_OR_RETURN(sparql::Query query, sparql::Parser::Parse(text));
  auto entry =
      std::make_shared<const PlanEntry>(std::string(text), std::move(query));
  if (parsed != nullptr) {
    *parsed = true;
  } else {
    parses_->Add();
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it != index_.end()) {  // lost a race: share the winner's entry
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  lru_.push_front(entry);
  index_.emplace(entry->text, lru_.begin());
  EvictOverflowLocked();
  return entry;
}

Result<std::shared_ptr<const PreparedPlan>> SharedPlanCache::PlanFor(
    const PlanEntry& entry, const DualStore& store, bool* replanned) {
  const uint64_t epoch = store.plan_epoch();
  {
    std::lock_guard<std::mutex> lock(entry.mu_);
    if (entry.plan_ != nullptr && entry.plan_->plan_epoch == epoch) {
      hits_->Add();
      return entry.plan_;
    }
    if (replanned != nullptr) *replanned = entry.plan_ != nullptr;
  }

  // Miss: prepare outside the entry's lock, from the cached parse.
  DSKG_ASSIGN_OR_RETURN(PreparedPlan plan, store.Prepare(entry.query));
  auto shared = std::make_shared<const PreparedPlan>(std::move(plan));
  misses_->Add();

  std::lock_guard<std::mutex> lock(entry.mu_);
  // Epochs are monotone: install only over an older (or absent) plan. A
  // reader pinned to an older snapshot keeps its plan to itself, and a
  // racing caller that installed this epoch first keeps its install.
  if (entry.plan_ == nullptr || entry.plan_->plan_epoch < shared->plan_epoch) {
    if (entry.plan_ != nullptr) invalidations_->Add();
    entry.plan_ = shared;
  }
  return shared;
}

void SharedPlanCache::EvictOverflowLocked() {
  if (capacity_ == 0) return;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back()->text);
    lru_.pop_back();
    evictions_->Add();
  }
}

SharedPlanCache::Stats SharedPlanCache::stats() const {
  Stats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.parses = parses_->value();
  s.invalidations = invalidations_->value();
  s.evictions = evictions_->value();
  return s;
}

size_t SharedPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void SharedPlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  EvictOverflowLocked();
}

}  // namespace dskg::core
