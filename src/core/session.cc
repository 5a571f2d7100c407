#include "core/session.h"

#include <utility>

namespace dskg::core {

using session_internal::Snapshot;

namespace {

// Session-layer span histograms, resolved once against the global
// registry (the lookup takes a lock; the pointers are stable).
struct SessionHists {
  telemetry::Histogram* prepare_us;
  telemetry::Histogram* bind_us;
  telemetry::Histogram* execute_us;
  telemetry::Histogram* cursor_next_us;
};

const SessionHists& Hists() {
  static const SessionHists h = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    return SessionHists{reg.histogram("session.prepare_us"),
                        reg.histogram("session.bind_us"),
                        reg.histogram("session.execute_us"),
                        reg.histogram("session.cursor_next_us")};
  }();
  return h;
}

}  // namespace

Session::StatCells::StatCells() {
  auto& reg = telemetry::MetricsRegistry::Global();
  prepares = reg.counter("session.prepares")->NewCell();
  cache_hits = reg.counter("session.cache_hits")->NewCell();
  executions = reg.counter("session.executions")->NewCell();
  replans = reg.counter("session.replans")->NewCell();
}

// ---- Cursor -----------------------------------------------------------------

Status Cursor::Next(sparql::BindingTable* chunk, size_t max_rows,
                    bool* done) {
  telemetry::TraceScope span(Hists().cursor_next_us, "session.cursor_next");
  DualStore::SnapshotScope scope(view_);
  return impl_.Next(chunk, max_rows, done);
}

Result<sparql::BindingTable> Cursor::DrainAll(size_t chunk_rows) {
  sparql::BindingTable all;
  all.columns = columns();
  sparql::BindingTable chunk;
  bool done = false;
  while (!done) {
    DSKG_RETURN_NOT_OK(Next(&chunk, chunk_rows, &done));
    all.AppendRowsFrom(chunk);
  }
  return all;
}

// ---- PreparedQuery ----------------------------------------------------------

Status PreparedQuery::Bind(std::string_view param, std::string_view term) {
  telemetry::TraceScope span(Hists().bind_us, "session.bind");
  const Snapshot snap = session_->Pin();
  DualStore::SnapshotScope scope(snap.view);
  return bindings_.Bind(param, term, snap.store->dict(),
                        snap.store->plan_epoch());
}

void PreparedQuery::ClearBindings() { bindings_.Clear(); }

Result<std::vector<rdf::TermId>> PreparedQuery::ResolveForExecution(
    const Snapshot& snap, std::shared_ptr<const PreparedPlan>* plan) {
  bool replanned = false;
  DSKG_ASSIGN_OR_RETURN(*plan, session_->cache_->PlanFor(
                                   bindings_.entry(), *snap.store, &replanned));
  session_->cells_.executions->Add();
  if (replanned) session_->cells_.replans->Add();
  return bindings_.Values(snap.store->dict(), (*plan)->plan_epoch);
}

Result<QueryExecution> PreparedQuery::ExecuteAll() {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double start_us = telem ? reg.NowMicros() : 0;
  Snapshot snap = session_->Pin();
  // Everything from plan validation to the last row reads the pinned
  // snapshot: over an OnlineStore the execution is wait-free against the
  // applier and never sees a half-applied batch.
  DualStore::SnapshotScope scope(snap.view);
  std::shared_ptr<const PreparedPlan> plan;
  DSKG_ASSIGN_OR_RETURN(std::vector<rdf::TermId> values,
                        ResolveForExecution(snap, &plan));
  Result<QueryExecution> result = snap.store->ExecutePlan(
      *plan, values.empty() ? nullptr : values.data());
  if (telem) {
    const double dur_us = reg.NowMicros() - start_us;
    Hists().execute_us->Record(dur_us);
    if (reg.traces().enabled()) {
      reg.traces().Record("session.execute", start_us, dur_us);
    }
    if (result.ok() && reg.slow_queries().enabled()) {
      reg.slow_queries().MaybeRecord(text(), RouteName(result->route),
                                     dur_us / 1000.0);
    }
  }
  return result;
}

Result<Cursor> PreparedQuery::OpenCursor() {
  Snapshot snap = session_->Pin();
  DualStore::SnapshotScope scope(snap.view);
  std::shared_ptr<const PreparedPlan> plan;
  DSKG_ASSIGN_OR_RETURN(std::vector<rdf::TermId> values,
                        ResolveForExecution(snap, &plan));
  Cursor cursor;
  DSKG_ASSIGN_OR_RETURN(
      cursor.impl_,
      snap.store->OpenCursor(*plan,
                             values.empty() ? nullptr : values.data()));
  cursor.plan_ = std::move(plan);
  // The cursor owns the snapshot pin from here: over an OnlineStore the
  // pinned snapshot stays immutable (and re-installed per Next) until
  // the cursor is destroyed.
  cursor.view_ = snap.view;
  cursor.pin_ = std::move(snap.guard);
  return cursor;
}

// ---- Session ----------------------------------------------------------------

Session::Session(DualStore* dual, OnlineStore* online, ThreadPool* pool,
                 SharedPlanCache* plan_cache)
    : dual_(dual), online_(online), pool_(pool),
      owned_cache_(plan_cache == nullptr ? std::make_unique<SharedPlanCache>()
                                         : nullptr),
      cache_(plan_cache == nullptr ? owned_cache_.get() : plan_cache) {}

Snapshot Session::Pin() const {
  Snapshot snap;
  if (online_ != nullptr) {
    snap.guard = online_->Read();
    snap.store = &snap.guard->store();
    snap.view = &snap.guard->snapshot();
  } else {
    snap.store = dual_;
  }
  return snap;
}

Result<PreparedQuery> Session::Prepare(std::string_view text) {
  telemetry::TraceScope span(Hists().prepare_us, "session.prepare");
  bool parsed = false;
  DSKG_ASSIGN_OR_RETURN(std::shared_ptr<const PlanEntry> entry,
                        cache_->Lookup(text, &parsed));
  (parsed ? cells_.prepares : cells_.cache_hits)->Add();
  return PreparedQuery(this, std::move(entry));
}

Result<QueryExecution> Session::Execute(std::string_view text) {
  DSKG_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(text));
  return prepared.ExecuteAll();
}

std::future<Result<QueryExecution>> Session::SubmitAsync(
    std::string_view text) {
  std::string owned(text);
  if (pool_ == nullptr) {
    std::promise<Result<QueryExecution>> promise;
    promise.set_value(Execute(owned));
    return promise.get_future();
  }
  return pool_->Submit(
      [this, owned = std::move(owned)] { return Execute(owned); });
}

std::future<Result<QueryExecution>> Session::SubmitAsync(
    PreparedQuery prepared) {
  if (pool_ == nullptr) {
    std::promise<Result<QueryExecution>> promise;
    promise.set_value(prepared.ExecuteAll());
    return promise.get_future();
  }
  return pool_->Submit(
      [prepared = std::move(prepared)]() mutable {
        return prepared.ExecuteAll();
      });
}

Session::Stats Session::stats() const {
  Stats s;
  s.prepares = cells_.prepares->value();
  s.cache_hits = cells_.cache_hits->value();
  s.executions = cells_.executions->value();
  s.replans = cells_.replans->value();
  return s;
}

}  // namespace dskg::core
